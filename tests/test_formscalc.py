from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopforms import formscalc as fc
from loopforms import loopspace as lp
from loopforms import sampling
from loopforms.connections import partial_theta
from loopforms.liecore import InvariantPolynomial, eval_invariant_polynomial
from loopforms.loopspace import grid

from helpers import su2_basis, zero_form

RNG = np.random.default_rng(11)
X1, X2, X3 = su2_basis()


def dx(i, dim):
    return fc.FormField(1, dim, lambda p, idx: 1.0 if idx == (i,) else 0.0)


class TestEvaluate:
    def test_dx_on_basis_vector(self):
        form = dx(0, 3)
        e0 = np.array([1.0, 0.0, 0.0])
        assert fc.evaluate(form, np.zeros(3), [e0]) == 1.0

    def test_wedge_half_convention(self):
        # (dx1 ^ dx2)(e1, e2) = 1/2
        form = fc.single_term_form(3, (0, 1), 1.0)
        e0, e1 = np.eye(3)[0], np.eye(3)[1]
        assert fc.evaluate(form, np.zeros(3), [e0, e1]) == pytest.approx(0.5)

    def test_repeated_vector_vanishes(self):
        form = fc.single_term_form(3, (0, 2), 1.0)
        v = RNG.standard_normal(3)
        assert abs(fc.evaluate(form, np.zeros(3), [v, v])) < 1e-15

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=6, max_size=6))
    def test_alternating(self, flat):
        form = fc.single_term_form(3, (0, 1), 2.3)
        v = np.array(flat[:3])
        w = np.array(flat[3:])
        a = fc.evaluate(form, np.zeros(3), [v, w])
        b = fc.evaluate(form, np.zeros(3), [w, v])
        assert abs(a + b) < 1e-12

    def test_multilinear(self):
        form = fc.single_term_form(4, (1, 3), 1.0)
        p = np.zeros(4)
        v, w, u = (RNG.standard_normal(4) for _ in range(3))
        lhs = fc.evaluate(form, p, [2.0 * v + 0.5 * u, w])
        rhs = 2.0 * fc.evaluate(form, p, [v, w]) + 0.5 * fc.evaluate(form, p, [u, w])
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestExteriorDerivative:
    def test_constant_coefficients(self):
        form = fc.single_term_form(3, (0,), 1.5)
        d = fc.exterior_derivative(form)
        pts = [RNG.standard_normal(3)]
        assert fc.max_coeff(d, pts) < 1e-12

    def test_coordinate_example(self):
        # d(x2 dx1) = dx2 ^ dx1 = -dx1 ^ dx2, so evaluation on (e1, e2) is -1/2
        form = fc.FormField(1, 2, lambda p, idx: p[1] if idx == (0,) else 0.0)
        d = fc.exterior_derivative(form, 1e-4)
        e0, e1 = np.eye(2)
        for p in (np.zeros(2), np.array([0.7, -0.3])):
            val = fc.evaluate(d, p, [e0, e1])
            assert val == pytest.approx(-0.5, abs=1e-10)

    def test_d_squared_zero(self):
        dim = 3
        polys = [sampling.random_poly(RNG, dim) for _ in range(dim)]
        form = fc.FormField(1, dim, lambda p, idx: polys[idx[0]](p))
        dd = fc.exterior_derivative(fc.exterior_derivative(form, 1e-3), 1e-3)
        assert fc.max_coeff(dd, [RNG.standard_normal(dim) * 0.5]) < 1e-6

    def test_d_squared_zero_polynomial_tight(self):
        # quadratic coefficients: central differences are exact, residual at round-off
        dim = 3
        c = RNG.standard_normal((dim, dim, dim))

        def coeff(p, idx):
            (i,) = idx
            return float(p @ c[i] @ p)

        form = fc.FormField(1, dim, coeff)
        dd = fc.exterior_derivative(fc.exterior_derivative(form, 1e-3), 1e-3)
        assert fc.max_coeff(dd, [RNG.standard_normal(dim) * 0.5]) < 1e-10

    def test_zero_form_gradient(self):
        # d of a 0-form is its gradient 1-form
        dim = 3
        poly = sampling.random_poly(RNG, dim)
        f0 = fc.FormField(0, dim, lambda p, idx: poly(p))
        df = fc.exterior_derivative(f0, 1e-5)
        p = 0.4 * RNG.standard_normal(dim)
        h = 1e-5
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            want = (poly(p + e) - poly(p - e)) / (2 * h)
            assert df.coeff(p, (i,)) == pytest.approx(want, abs=1e-9)
        # evaluate of a 0-form takes zero vectors
        assert fc.evaluate(f0, p, []) == poly(p)

    def test_semidirect_gauge_map(self):
        # d of an LG x| S1-valued 0-form is the central difference of its
        # group values, bit for bit, in loop part and angle rate
        rng = np.random.default_rng(5)
        dim, h = 3, 1e-4
        sigma = sampling.random_semidirect_gauge(rng, dim, 16, 2)
        dsigma = fc.exterior_derivative(sigma, h)
        p = 0.4 * rng.standard_normal(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            want = lp.central(sigma(p + e), sigma(p - e), h)
            got = dsigma.coeff(p, (i,))
            assert isinstance(got, lp.SemiDirectAlgebraElement)
            np.testing.assert_array_equal(got.loop_part, want.loop_part)
            assert got.circle_part == want.circle_part


class TestMaurerCartan:
    @pytest.mark.parametrize("pairs", [False, True], ids=["lg", "lgxs1"])
    def test_left_translated_central_difference_bitwise(self, pairs):
        # sigma^{-1} d sigma is sigma(p)^{-1} times the central difference
        rng = np.random.default_rng(47)
        dim, h = 3, 1e-4
        gauge = sampling.random_semidirect_gauge if pairs else sampling.random_gauge_loop
        sigma = gauge(rng, dim, 16, 2)
        mc = fc.maurer_cartan(sigma, h)
        p = 0.4 * rng.standard_normal(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            plus, minus = sigma(p + e), sigma(p - e)
            got = mc.coeff(p, (i,))
            if pairs:
                diff = lp.SemiDirectAlgebraElement(
                    (plus.loop_part - minus.loop_part) / (2 * h),
                    lp.angle_delta(plus.angle, minus.angle) / (2 * h),
                )
                want = lp.left_translate(sigma(p), diff)
                np.testing.assert_array_equal(got.loop_part, want.loop_part)
                assert got.circle_part == want.circle_part
            else:
                want = lp.left_translate(sigma(p), (plus - minus) / (2 * h))
                np.testing.assert_array_equal(got, want)


class TestWedge:
    def test_bracket_square_collinear(self):
        # A = f(x) dx0 with a fixed direction: [A, A] = 0
        dim = 2
        poly = sampling.random_poly(RNG, dim)

        def coeff(p, idx):
            return poly(p) * X1 if idx == (0,) else np.zeros((2, 2), dtype=complex)

        A = fc.FormField(1, dim, coeff)
        sq = fc.wedge_bracket(A, A)
        assert fc.max_coeff(sq, [RNG.standard_normal(dim)]) < 1e-14

    def test_bracket_square_two_directions(self):
        # A = X1 dx0 + X2 dx1: [A, A](e0, e1) = [A(e0), A(e1)] = X3,
        # and (1/2)[A, A](e0, e1) = X3 / 2
        dim = 2
        vals = {(0,): X1, (1,): X2}
        A = fc.FormField(1, dim, lambda p, idx: vals[tuple(idx)])
        sq = fc.wedge_bracket(A, A)
        e0, e1 = np.eye(2)
        got = np.asarray(fc.evaluate(sq, np.zeros(2), [e0, e1]))
        assert np.max(np.abs(got - X3)) < 1e-14
        assert np.max(np.abs(0.5 * got - 0.5 * X3)) < 1e-14

    def test_bracket_evaluation_vs_bruteforce(self):
        dim = 3
        A = sampling.random_loop_one_form(RNG, dim, 8, 2, kmax=1)
        B = sampling.random_loop_one_form(RNG, dim, 8, 2, kmax=1)
        wed = fc.wedge_bracket(A, B)
        p = 0.3 * RNG.standard_normal(dim)
        v, w = RNG.standard_normal(dim), RNG.standard_normal(dim)
        got = fc.evaluate(wed, p, [v, w])

        def contract(form):
            def c(vecs):
                return fc.evaluate(form, p, vecs)

            return c

        # (1/2!)(sum over perms) of [A(v), B(w)]
        want = 0.5 * (
            _mb(fc.evaluate(A, p, [v]), fc.evaluate(B, p, [w]))
            - _mb(fc.evaluate(A, p, [w]), fc.evaluate(B, p, [v]))
        )
        assert np.max(np.abs(np.asarray(got) - want)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_half_bracket_is_half_wedge_bracket_bitwise(self, n, dim):
        rng = np.random.default_rng([n, dim])
        A = sampling.random_loop_one_form(rng, dim, 16, n)
        half, full = fc.half_bracket(A), fc.wedge_bracket(A, A)
        assert (half.degree, half.dim) == (2, dim)
        for p in sampling.random_chart_points(rng, dim, 3):
            for ij in combinations(range(dim), 2):
                assert half.coeff(p, ij).tobytes() == (0.5 * full.coeff(p, ij)).tobytes()

    def test_half_bracket_takes_only_a_one_form(self):
        dim = 3
        A = sampling.random_loop_one_form(RNG, dim, 8, 2)
        phi = sampling.random_higgs_field(RNG, dim, 8, 2)
        for form in (phi, fc.exterior_derivative(A)):
            with pytest.raises(fc.DegreeError):
                fc.half_bracket(form)

    def test_pair_convention(self):
        # A = xi dx0, B = zeta dx1: <A ^ B>(e0, e1) = (1/2) <xi, zeta>
        dim = 2
        xi = sampling.random_algebra(RNG, 2)
        zeta = sampling.random_algebra(RNG, 2)
        A = fc.single_term_form(dim, (0,), xi)
        B = fc.single_term_form(dim, (1,), zeta)
        pairform = fc.wedge_pair(A, B)
        e0, e1 = np.eye(2)
        got = fc.evaluate(pairform, np.zeros(2), [e0, e1])
        from loopforms.liecore import killing

        assert got == pytest.approx(0.5 * killing(xi, zeta), abs=1e-13)

    def test_zero_form_slot(self):
        # a 0-form slot takes its value at the point: the Higgs-field terms of
        # nabla Phi and of F~ = F + f Phi, bit for bit
        dim, N = 3, 16
        A = sampling.random_loop_one_form(RNG, dim, N, 2)
        a = sampling.random_real_one_form(RNG, dim)
        phi = sampling.random_higgs_field(RNG, dim, N, 2)
        f = fc.exterior_derivative(a, 1e-3)
        bracket, f_phi = fc.wedge_bracket(A, phi), fc.wedge_scalar(f, phi)
        twist = fc.wedge_scalar(a, partial_theta(phi))
        assert (bracket.degree, f_phi.degree, twist.degree) == (1, 2, 1)
        p = 0.3 * RNG.standard_normal(dim)
        ph = phi(p)
        for i in range(dim):
            Ai = A.coeff(p, (i,))
            want = lp.loop_product(Ai, ph) - lp.loop_product(ph, Ai)
            assert np.array_equal(bracket.coeff(p, (i,)), want)
            assert np.array_equal(twist.coeff(p, (i,)), a.coeff(p, (i,)) * lp.loop_derivative(ph))
        for ij in combinations(range(dim), 2):
            assert np.array_equal(f_phi.coeff(p, ij), f.coeff(p, ij) * ph)

    def test_pair_zero(self):
        dim = 2
        A = sampling.random_loop_one_form(RNG, dim, 8, 2)
        Z = zero_form(dim, 1, np.zeros((8, 2, 2), dtype=complex))
        pairform = fc.wedge_pair(A, Z)
        assert fc.max_coeff(pairform, [np.zeros(dim)]) == 0.0

    def test_pure_gauge_flatness(self):
        # master convention test: F = dA + (1/2)[A, A] = 0 for A = g^{-1} dg
        dim = 2
        seeds = [sampling.random_algebra(RNG, 2, 0.7) for _ in range(2)]
        polys = [sampling.random_poly(RNG, dim, 0.6) for _ in range(2)]

        def gmap(p):
            return lp.exp_loop(sum(f(p) * x for f, x in zip(polys, seeds)))

        h = 1e-4

        def A_coeff(p, idx):
            (i,) = idx
            e = np.zeros(dim)
            e[i] = h
            return np.linalg.inv(gmap(p)) @ (gmap(p + e) - gmap(p - e)) / (2 * h)

        A = fc.FormField(1, dim, A_coeff)
        F = fc.form_sum([fc.exterior_derivative(A, h), fc.wedge_bracket(A, A)], [1.0, 0.5])
        pts = [0.4 * RNG.standard_normal(dim) for _ in range(4)]
        assert fc.max_coeff(F, pts) < 1e-6


class TestLeibniz:
    def test_pairing_leibniz(self):
        dim = 3
        A = sampling.random_loop_one_form(RNG, dim, 16, 2)
        B = sampling.random_loop_one_form(RNG, dim, 16, 2)
        h = 1e-4
        lhs = fc.exterior_derivative(fc.wedge_pair(A, B), h)
        rhs = fc.form_sum(
            [
                fc.wedge_pair(fc.exterior_derivative(A, h), B),
                fc.wedge_pair(A, fc.exterior_derivative(B, h)),
            ],
            [1.0, -1.0],
        )
        diff = fc.form_sum([lhs, rhs], [1.0, -1.0])
        assert fc.max_coeff(diff, [0.3 * RNG.standard_normal(dim)]) < 1e-6


class TestPullback:
    def test_identity(self):
        dim = 3
        polys = [sampling.random_poly(RNG, dim) for _ in range(dim)]
        form = fc.FormField(1, dim, lambda p, idx: polys[idx[0]](p))
        pulled = fc.pullback(form, lambda u: u, dim, lambda u: np.eye(dim))
        p = RNG.standard_normal(dim)
        for i in range(dim):
            assert pulled.coeff(p, (i,)) == pytest.approx(form.coeff(p, (i,)), abs=1e-14)

    def test_parabola(self):
        # pull dx0 back along u -> (u^2, u): get 2u du
        form = dx(0, 2)
        pulled = fc.pullback(
            form, lambda u: np.array([u[0] ** 2, u[0]]), 1, lambda u: np.array([[2 * u[0]], [1.0]])
        )
        for u0 in (0.3, -0.8):
            got = pulled.coeff(np.array([u0]), (0,))
            assert got == pytest.approx(2 * u0, abs=1e-15)

    def test_commutes_with_d(self):
        target, source = 3, 2
        polys = [sampling.random_poly(RNG, target) for _ in range(target)]
        form = fc.FormField(1, target, lambda p, idx: polys[idx[0]](p))
        mat = RNG.standard_normal((target, source))

        def mapping(u):
            return mat @ u + 0.2 * np.concatenate([u ** 2, [u[0] * u[1]]])

        def jacobian(u):
            return mat + 0.2 * np.array([[2 * u[0], 0.0], [0.0, 2 * u[1]], [u[1], u[0]]])

        h = 1e-4
        lhs = fc.exterior_derivative(fc.pullback(form, mapping, source, jacobian), h)
        rhs = fc.pullback(fc.exterior_derivative(form, h), mapping, source, jacobian)
        diff = fc.form_sum([lhs, rhs], [1.0, -1.0])
        assert fc.max_coeff(diff, [0.4 * RNG.standard_normal(source)]) < 1e-6


class TestCylinder:
    """Fiber integrals of one cylinder form through the identity value map."""

    def test_constant_dtheta_integral(self):
        # w = f(x) dtheta -> 2 pi f(x)
        dim = 2
        N = 16
        poly = sampling.random_poly(RNG, dim)
        beta = zero_form(dim, 1, np.zeros(N))
        gamma = fc.FormField(0, dim, lambda p, idx: np.full(N, poly(p)))
        out = fc.fiber_integrate_poly_wedge([fc.CylinderForm(beta, gamma)], lambda v: v[0])
        p = RNG.standard_normal(dim)
        assert out.coeff(p, ()) == pytest.approx(2 * np.pi * poly(p), rel=1e-12)

    def test_pure_oscillation_integrates_to_zero(self):
        dim = 2
        N = 16
        beta = zero_form(dim, 2, np.zeros(N))
        gamma = fc.FormField(
            1, dim, lambda p, idx: np.sin(grid(N)) if idx == (0,) else np.zeros(N)
        )
        out = fc.fiber_integrate_poly_wedge([fc.CylinderForm(beta, gamma)], lambda v: v[0])
        assert abs(out.coeff(np.zeros(dim), (0,))) < 1e-13

    def test_no_dtheta_component(self):
        dim = 2
        N = 16
        polys = {
            (0, 1): sampling.random_poly(RNG, dim),
        }
        beta = fc.FormField(2, dim, lambda p, idx: np.full(N, polys[tuple(idx)](p)))
        gamma = zero_form(dim, 1, np.zeros(N))
        out = fc.fiber_integrate_poly_wedge([fc.CylinderForm(beta, gamma)], lambda v: v[0])
        assert fc.max_coeff(out, [RNG.standard_normal(dim)]) == 0.0


def _algebra_form(rng, degree, dim, N, n):
    """A form with a fixed random algebra loop per index tuple."""
    vals = {
        idx: sampling.bandlimited_algebra_loop(rng, N, n)
        for idx in combinations(range(dim), degree)
    }
    return fc.FormField(degree, dim, lambda p, idx: vals[tuple(idx)])


def _plain(f):
    """f as an opaque value map: poly_wedge cannot see its symmetry."""
    return lambda vals: eval_invariant_polynomial(f, vals)


def _splittings(degrees):
    total, count = sum(degrees), 1
    for q in degrees:
        count *= comb(total, q)
        total -= q
    return count


def _size(forms, p):
    """Largest Frobenius norm of any coefficient value of the forms at p."""
    return max(
        np.max(np.linalg.norm(f.coeff(p, idx), axis=(-2, -1)))
        for f in forms
        for idx in combinations(range(f.dim), f.degree)
    )


EPS = np.finfo(float).eps


class TestSymmetricClasses:
    """An InvariantPolynomial as the value map: slots holding one form object
    are summed once per class of splittings, and a fibre integral merges the
    terms of one cylinder object.  Against the same polynomial as an opaque
    map, the gap is round-off, c eps kappa with kappa the number of terms
    times the product of the slots' largest coefficient norms (the largest
    ratio over 20 seeds was 0.24, so c = 4)."""

    @pytest.mark.parametrize("degrees", [(1, 2, 2), (2, 2), (1, 1, 2), (0, 1, 2)])
    def test_distinct_slots_are_bitwise_the_plain_sum(self, degrees):
        rng = np.random.default_rng(list(degrees))
        dim = sum(degrees) + 1
        forms = [_algebra_form(rng, q, dim, 16, 2) for q in degrees]
        f = InvariantPolynomial(len(forms))
        grouped, plain = fc.poly_wedge(forms, f), fc.poly_wedge(forms, _plain(f))
        p = np.zeros(dim)
        for idx in combinations(range(dim), sum(degrees)):
            assert grouped.coeff(p, idx).tobytes() == plain.coeff(p, idx).tobytes()

    @pytest.mark.parametrize(
        "degrees", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 2, 2), (1, 1, 1, 1)]
    )
    def test_distinct_label_plan_is_the_split_plan(self, degrees):
        # classes=None labels every slot apart: the same blocks, order and
        # signs as the plain shuffle plan, term for term
        total = sum(degrees)
        plan = fc._class_patterns(total, degrees, None)
        assert plan == fc._split_patterns(total, degrees)
        assert all(type(w) is int for w, _ in plan)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("degrees", [(2, 2), (1, 2, 2)])
    def test_repeated_slots_match_the_plain_sum(self, degrees, n):
        rng = np.random.default_rng([n, len(degrees)])
        dim = sum(degrees) + 1
        A, F = _algebra_form(rng, 1, dim, 16, n), _algebra_form(rng, 2, dim, 16, n)
        slots = [A, F, F] if degrees == (1, 2, 2) else [F, F]
        f = InvariantPolynomial(len(slots))
        grouped, plain = fc.poly_wedge(slots, f), fc.poly_wedge(slots, _plain(f))
        p = np.zeros(dim)
        kappa = _splittings(degrees) * _size(slots, p) ** len(slots)
        for idx in combinations(range(dim), sum(degrees)):
            gap = np.max(np.abs(grouped.coeff(p, idx) - plain.coeff(p, idx)))
            assert gap <= 4 * EPS * kappa

    def test_repeated_odd_slot_is_an_exact_zero(self):
        rng = np.random.default_rng(5)
        dim, N = 5, 16
        A, F = _algebra_form(rng, 1, dim, N, 3), _algebra_form(rng, 2, dim, N, 3)
        p = np.zeros(dim)
        for slots in ([A, A], [A, A, F], [A, F, A]):
            f = InvariantPolynomial(len(slots))
            form = fc.poly_wedge(slots, f)
            for idx in combinations(range(dim), form.degree):
                val = form.coeff(p, idx)
                assert val.shape == (N,)
                assert not np.any(val)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("layout", ["cc", "dcc", "cdc"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_merged_fibre_integral_matches_term_by_term(self, q, layout, n):
        # c copies of one cylinder, d another; deg beta = q
        rng = np.random.default_rng([q, len(layout), n])
        dim = len(layout) * q + 1
        c, d = (
            fc.CylinderForm(
                _algebra_form(rng, q, dim, 16, n), _algebra_form(rng, q - 1, dim, 16, n)
            )
            for _ in range(2)
        )
        cyls = [c if ch == "c" else d for ch in layout]
        f = InvariantPolynomial(len(cyls))
        merged = fc.fiber_integrate_poly_wedge(cyls, f)
        plain = fc.fiber_integrate_poly_wedge(cyls, _plain(f))
        p = np.zeros(dim)
        slots = [x for cyl in (c, d) for x in (cyl.beta, cyl.gamma)]
        terms = len(cyls) * _splittings([q] * (len(cyls) - 1) + [q - 1])
        kappa = 2 * np.pi * terms * _size(slots, p) ** len(cyls)
        for idx in combinations(range(dim), merged.degree):
            want = plain.coeff(p, idx)
            assert abs(merged.coeff(p, idx) - want) <= 4 * EPS * kappa
            if q == 1 and layout == "cc":
                assert merged.coeff(p, idx) == 0.0  # the two terms cancel exactly

    def test_fibre_merge_evaluates_one_term_per_cylinder(self, monkeypatch):
        rng = np.random.default_rng(9)
        dim = 5
        c, d = (
            fc.CylinderForm(_algebra_form(rng, 2, dim, 16, 2), _algebra_form(rng, 1, dim, 16, 2))
            for _ in range(2)
        )
        wedges = []
        poly_wedge = fc.poly_wedge

        def counted(forms, combine):
            wedges.append(forms)
            return poly_wedge(forms, combine)

        monkeypatch.setattr(fc, "poly_wedge", counted)
        fc.fiber_integrate_poly_wedge([d, c, c], InvariantPolynomial(3))
        assert wedges == [[d.gamma, c.beta, c.beta], [d.beta, c.gamma, c.beta]]


def _mb(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a @ b - b @ a


class TestMaxCoeff:
    def test_nan_coefficient_is_not_dropped(self):
        form = fc.FormField(1, 2, lambda p, idx: np.nan if idx == (1,) else 0.0)
        assert np.isnan(fc.max_coeff(form, [np.zeros(2)]))


class TestMinor:
    def test_triangular_2x2_is_exact(self):
        rng = np.random.default_rng(3)
        for a, b in rng.standard_normal((1000, 2)):
            assert fc._minor(np.array([[1.0, a], [0.0, b]])) == b

    def test_3x3_matches_lu(self):
        # scaled by the Hadamard bound, the largest |det| rows of these norms allow
        rng = np.random.default_rng(4)
        for m in rng.standard_normal((1000, 3, 3)):
            scale = np.prod(np.linalg.norm(m, axis=1))
            assert abs(fc._minor(m) - np.linalg.det(m)) <= 1e-15 * scale

    def test_small_and_large_orders(self):
        m = RNG.standard_normal((4, 4))
        assert fc._minor(np.zeros((0, 0))) == 1.0
        assert fc._minor(m[:1, :1]) == m[0, 0]
        assert fc._minor(m) == float(np.linalg.det(m))


class TestMemo:
    @staticmethod
    def counted(value):
        calls = []

        def raw(p, idx):
            calls.append((np.asarray(p).tobytes(), idx))
            return value(p, idx)

        return raw, calls

    def test_repeat_is_computed_once_and_new_point_again(self):
        raw, calls = self.counted(lambda p, idx: p[idx[0]] * p[idx[1]] * np.ones(2))
        form = fc.FormField(2, 3, raw)
        p = np.array([0.5, 2.0, 3.0])
        for _ in range(3):
            form.coeff(p, (1, 2))
        form.coeff(p.copy(), [1, 2])
        assert len(calls) == 1
        form.coeff(p, (0, 1))
        assert len(calls) == 2
        np.testing.assert_array_equal(form.coeff(p + 1.0, (1, 2)), [12.0, 12.0])
        assert len(calls) == 3
        form.coeff(p, (1, 2))  # a 2-form keeps one point: the new one dropped p
        assert len(calls) == 4

    def test_returned_array_is_read_only(self):
        form = fc.FormField(1, 2, lambda p, idx: np.ones((2, 2)))
        val = form.coeff(np.zeros(2), (0,))
        with pytest.raises(ValueError):
            val += 1.0
        np.testing.assert_array_equal(form.coeff(np.zeros(2), (0,)), np.ones((2, 2)))

    def test_single_term_value_stays_writeable(self):
        value = np.ones((2, 2))
        form = fc.single_term_form(2, (0, 1), value)
        e0, e1 = np.eye(2)
        fc.evaluate(form, np.zeros(2), [e0, e1])
        assert not form.coeff(np.zeros(2), (0, 1)).flags.writeable
        assert value.flags.writeable
        value += 1.0

    def test_nearby_points_never_share_a_value(self):
        # the value's sign tells -0.0 from 0.0
        raw, calls = self.counted(lambda p, idx: float(np.copysign(1.0, p[0]) + p[0]))
        form = fc.FormField(1, 1, raw)
        x = np.array([1.0])
        up = np.nextafter(x, 2.0)
        assert form.coeff(x, (0,)) == 2.0
        assert form.coeff(up, (0,)) == 1.0 + up[0]
        assert form.coeff(np.array([0.0]), (0,)) == 1.0
        assert form.coeff(np.array([-0.0]), (0,)) == -1.0
        assert form.coeff(np.array([-0.0]), (0,)) == -1.0
        assert len(calls) == 4

    def test_forms_from_one_closure_keep_separate_memos(self):
        raw, calls = self.counted(lambda p, idx: float(p[0]))
        a, b = fc.FormField(1, 1, raw), fc.FormField(1, 1, raw)
        p = np.array([0.25])
        a.coeff(p, (0,))
        b.coeff(p, (0,))
        a.coeff(p, (0,))
        assert len(calls) == 2

    def test_memo_keeps_the_closure_module(self):
        def f(p, idx):
            return 0.0

        assert fc.FormField(1, 2, f).coeff.__module__ == f.__module__

    def test_zero_form_keeps_a_stencil_of_points(self):
        raw, calls = self.counted(lambda p, idx: np.full(2, p[0]))
        phi = fc.FormField(0, 1, raw)
        pts = [np.array([float(k)]) for k in range(fc.STENCIL_POINTS)]
        for _ in range(2):
            for p in pts:
                np.testing.assert_array_equal(phi(p), [p[0], p[0]])
        assert len(calls) == fc.STENCIL_POINTS

    def test_zero_form_memo_is_bounded(self):
        raw, calls = self.counted(lambda p, idx: float(p[0]))
        phi = fc.FormField(0, 1, raw)
        for k in range(fc.STENCIL_POINTS + 1):
            phi(np.array([float(k)]))
        phi(np.array([float(fc.STENCIL_POINTS)]))  # the newest is still kept
        assert len(calls) == fc.STENCIL_POINTS + 1
        phi(np.array([0.0]))  # the earliest was dropped
        assert len(calls) == fc.STENCIL_POINTS + 2

    def test_one_form_keeps_a_stencil_of_points(self):
        raw, calls = self.counted(lambda p, idx: float(p[0]))
        A = fc.FormField(1, 1, raw)
        for k in range(fc.STENCIL_POINTS + 1):
            A.coeff(np.array([float(k)]), (0,))
        for k in range(1, fc.STENCIL_POINTS + 1):
            assert A.coeff(np.array([float(k)]), (0,)) == k
        assert len(calls) == fc.STENCIL_POINTS + 1
        A.coeff(np.array([0.0]), (0,))  # the earliest was dropped
        assert len(calls) == fc.STENCIL_POINTS + 2

    def test_zero_form_value_is_read_only(self):
        phi = fc.FormField(0, 2, lambda p, idx: np.ones((4, 2, 2)))
        val = phi(np.zeros(2))
        with pytest.raises(ValueError):
            val += 1.0
        np.testing.assert_array_equal(phi(np.zeros(2)), np.ones((4, 2, 2)))

    def test_only_a_zero_form_takes_a_point(self):
        with pytest.raises(fc.DegreeError):
            fc.FormField(1, 2, lambda p, idx: 0.0)(np.zeros(2))

    def test_keep_sets_the_points_kept(self):
        raw, calls = self.counted(lambda p, idx: float(p[0]))
        phi = fc.chart_function(lambda p: raw(p, ()), 1, keep=fc.STENCIL_POINTS + 9)
        pts = [np.array([float(k)]) for k in range(fc.STENCIL_POINTS + 9)]
        for _ in range(2):
            for p in pts:
                assert phi(p) == p[0]
        assert len(calls) == fc.STENCIL_POINTS + 9

    @staticmethod
    def counting(monkeypatch, name):
        # counts the calls formscalc makes to one of its loopspace imports
        calls = []
        fn = getattr(fc, name)
        monkeypatch.setattr(fc, name, lambda *args: calls.append(1) or fn(*args))
        return calls

    def test_d_of_one_form_and_half_bracket_keep_nothing(self, monkeypatch):
        # F keeps the values; dA and (1/2)[A, A] are asked again only by F
        rng = np.random.default_rng(8)
        central = self.counting(monkeypatch, "central")
        brackets = self.counting(monkeypatch, "bracket")
        A = sampling.random_loop_one_form(rng, 3, 16, 2)
        dA, AA = fc.exterior_derivative(A, 1e-4), fc.half_bracket(A)
        p = 0.3 * rng.standard_normal(3)
        for _ in range(2):
            dA.coeff(p, (0, 2))
            AA.coeff(p, (0, 2))
        assert (len(central), len(brackets)) == (4, 2)
        assert fc._memo(A.coeff, 0) is A.coeff

    def test_curvature_and_d_of_zero_form_keep_their_values(self, monkeypatch):
        rng = np.random.default_rng(8)
        central = self.counting(monkeypatch, "central")
        brackets = self.counting(monkeypatch, "bracket")
        A = sampling.random_loop_one_form(rng, 3, 16, 2)
        F = fc.form_sum([fc.exterior_derivative(A, 1e-4), fc.half_bracket(A)])
        dphi = fc.exterior_derivative(fc.FormField(0, 3, lambda p, idx: p[0] * p[1]), 1e-4)
        p = 0.3 * rng.standard_normal(3)
        for _ in range(2):
            F.coeff(p, (0, 2))
            dphi.coeff(p, (1,))
        assert (len(central), len(brackets)) == (3, 1)

    def test_chart_function(self):
        phi = fc.chart_function(lambda p: 2.0 * p[0], 2)
        assert (phi.degree, phi.dim) == (0, 2)
        assert phi(np.array([1.5, 0.0])) == 3.0
        assert fc.chart_function(phi, 2) is phi
        with pytest.raises(fc.DegreeError):
            fc.chart_function(phi, 3)
