from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from loopforms import connections as cn
from loopforms import formscalc as fc
from loopforms import loopspace as lp
from loopforms import sampling
from loopforms.liecore import InvariantPolynomial, pontrjagyn_polynomial

from helpers import su2_basis, zero_form

RNG = np.random.default_rng(23)
N = 32
X1, X2, X3 = su2_basis()


def zero_connection(dim, n=2):
    zero_loop = np.zeros((N, n, n), dtype=complex)
    A = zero_form(dim, 1, zero_loop)
    return cn.LGConnectionData(A, lambda p: zero_loop, dim, N, n)


def const_phi_connection(dim, phi_const, n=2):
    zero_loop = np.zeros((N, n, n), dtype=complex)
    A = zero_form(dim, 1, zero_loop)
    return cn.LGConnectionData(
        A, lambda p: np.broadcast_to(phi_const, (N, n, n)).copy(), dim, N, n
    )


class TestCurvatureLG:
    def test_zero_connection(self):
        c = zero_connection(2)
        F = c.F
        assert fc.max_coeff(F, [np.zeros(2)]) < 1e-15

    def test_pure_gauge_flat(self):
        dim = 2
        sigma = sampling.random_gauge_loop(RNG, dim, N, 2)
        c = cn.gauge_transform(zero_connection(dim), sigma)
        F = c.F
        pts = [0.4 * RNG.standard_normal(dim) for _ in range(3)]
        assert fc.max_coeff(F, pts) < 1e-6

    def test_abelian_coefficient_against_dense_fd(self):
        # A = xi(theta) x1^2 dx0 on a 2-chart; F_(0,1) = -2 x1 xi(theta)
        dim = 2
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2)

        def A_coeff(p, idx):
            if idx == (0,):
                return p[1] ** 2 * xi
            return np.zeros_like(xi)

        c = cn.LGConnectionData(fc.FormField(1, dim, A_coeff), lambda p: 0 * xi, dim, N, 2)
        F = c.F
        p = np.array([0.3, 0.7])
        got = F.coeff(p, (0, 1))
        assert np.max(np.abs(got + 2 * p[1] * xi)) < 1e-8
        # independent dense finite-difference oracle with a different step
        h = 2e-5
        e1 = np.array([0.0, h])
        dense = -(c.A.coeff(p + e1, (0,)) - c.A.coeff(p - e1, (0,))) / (2 * h)
        assert np.max(np.abs(got - dense)) < 1e-7


class TestCovariantHiggsLG:
    def test_flat_constant_phi(self):
        c = const_phi_connection(2, X1)
        nabla = c.nabla_phi
        assert fc.max_coeff(nabla, [np.zeros(2)]) < 1e-12

    def test_reduces_to_dphi(self):
        dim = 2
        c0 = sampling.random_lg_connection(RNG, dim, N, 2)
        zero_loop = np.zeros((N, 2, 2), dtype=complex)
        c = cn.LGConnectionData(zero_form(dim, 1, zero_loop), c0.phi, dim, N, 2)
        nabla = c.nabla_phi
        p = 0.3 * RNG.standard_normal(dim)
        h = c.fd_step
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            want = (c.phi(p + e) - c.phi(p - e)) / (2 * h)
            assert np.max(np.abs(nabla.coeff(p, (i,)) - want)) < 1e-12

    def test_term_by_term_oracle(self):
        # theta-independent A and Phi: nabla Phi = dPhi + [A, Phi]
        dim = 2
        a_consts = [sampling.random_algebra(RNG, 2) for _ in range(dim)]
        polys = [sampling.random_poly(RNG, dim) for _ in range(dim)]
        phi_const = sampling.random_algebra(RNG, 2)
        phi_poly = sampling.random_poly(RNG, dim)

        def A_coeff(p, idx):
            (i,) = idx
            return np.broadcast_to(polys[i](p) * a_consts[i], (N, 2, 2)).copy()

        def phi(p):
            return np.broadcast_to(phi_poly(p) * phi_const, (N, 2, 2)).copy()

        c = cn.LGConnectionData(fc.FormField(1, dim, A_coeff), phi, dim, N, 2)
        nabla = c.nabla_phi
        p = 0.2 * RNG.standard_normal(dim)
        h = 1e-5
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            dphi = (phi(p + e) - phi(p - e)) / (2 * h)
            Ai = A_coeff(p, (i,))
            ph = phi(p)
            want = dphi + Ai @ ph - ph @ Ai
            assert np.max(np.abs(nabla.coeff(p, (i,)) - want)) < 1e-6


class TestStringFormLG:
    def test_flat_covariantly_constant(self):
        c = const_phi_connection(3, X1)
        s = cn.higher_string_form(pontrjagyn_polynomial(), c)
        assert fc.max_coeff(s, [np.zeros(3)]) < 1e-14

    def test_matches_higher_string_form(self):
        # the degree-3 form -(1/4 pi^2) Int <F, nabla Phi> dtheta, typed out
        dim = 3
        c = sampling.random_lg_connection(RNG, dim, N, 2)
        hi = cn.higher_string_form(pontrjagyn_polynomial(), c)
        pair = fc.integrate_loop_form(fc.wedge_pair(c.F, c.nabla_phi))
        lo = fc.form_sum([pair], [-1.0 / (4 * np.pi ** 2)])
        diff = fc.form_sum([hi, lo], [1.0, -1.0])
        assert fc.max_coeff(diff, [0.3 * RNG.standard_normal(dim)]) < 1e-13

    def test_closed(self):
        dim = 4
        c = sampling.random_lg_connection(RNG, dim, N, 2)
        ds = fc.exterior_derivative(cn.higher_string_form(pontrjagyn_polynomial(), c), 1e-4)
        assert fc.max_coeff(ds, [0.2 * RNG.standard_normal(dim)]) < 1e-5

    def test_gauge_invariance_pointwise(self):
        dim = 3
        c = sampling.random_lg_connection(RNG, dim, N, 2)
        sigma = sampling.random_gauge_loop(RNG, dim, N, 2)
        ct = cn.gauge_transform(c, sigma)
        f = pontrjagyn_polynomial()
        diff = fc.form_sum([cn.higher_string_form(f, c), cn.higher_string_form(f, ct)], [1.0, -1.0])
        assert fc.max_coeff(diff, [0.3 * RNG.standard_normal(dim)]) < 1e-5

    def test_curvature_gauge_covariance(self):
        dim = 2
        c = sampling.random_lg_connection(RNG, dim, N, 2)
        sigma = sampling.random_gauge_loop(RNG, dim, N, 2)
        ct = cn.gauge_transform(c, sigma)
        F = c.F
        Ft = ct.F
        p = 0.3 * RNG.standard_normal(dim)
        g = sigma(p)
        want = lp.loop_inverse(g) @ F.coeff(p, (0, 1)) @ g
        assert np.max(np.abs(Ft.coeff(p, (0, 1)) - want)) < 1e-6


class TestHigherStringForm:
    def test_k1_covariantly_constant(self):
        c = const_phi_connection(2, X1)
        f = InvariantPolynomial(1)
        s1 = cn.higher_string_form(f, c)
        assert fc.max_coeff(s1, [np.zeros(2)]) < 1e-14

    def test_k1_traceless_vanishes(self):
        # linear invariant polynomial is a multiple of the trace: zero on su(n)
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        f = InvariantPolynomial(1)
        s1 = cn.higher_string_form(f, c)
        assert fc.max_coeff(s1, [0.3 * RNG.standard_normal(2)]) < 1e-13

    def test_k3_closed_su3(self):
        dim = 6
        c = sampling.random_lg_connection(RNG, dim, N, 3)
        f = InvariantPolynomial(3)
        s5 = cn.higher_string_form(f, c)
        ds = fc.exterior_derivative(s5, 1e-4)
        assert fc.max_coeff(ds, [0.2 * RNG.standard_normal(dim)]) < 1e-5

    def test_dimension_guard(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        with pytest.raises(ValueError):
            cn.higher_string_form(InvariantPolynomial(2), c)

    def test_k3_evaluates_f_once_per_class_of_splittings(self, monkeypatch):
        # slots (nabla Phi, F, F): of the 5 * C(4, 2) = 30 splittings of a
        # coefficient, the two that swap the F blocks are one term, so f is
        # evaluated 15 times, not 30
        calls = []
        evaluate = fc.eval_invariant_polynomial

        def counted(f, args):
            calls.append(len(args))
            return evaluate(f, args)

        monkeypatch.setattr(fc, "eval_invariant_polynomial", counted)
        c = sampling.random_lg_connection(RNG, 5, 16, 2)
        s5 = cn.higher_string_form(InvariantPolynomial(3), c)
        s5.coeff(0.3 * RNG.standard_normal(5), (0, 1, 2, 3, 4))
        assert calls == [3] * 15


class TestFiberIntegralRoute:
    # Int_S1 f(cyl, ..., cyl) of the string cylinder is the string form: the
    # fiber integral keeps the k terms with one gamma = nabla Phi.  On LG x| S1
    # data beta = F~ - a ^ nabla Phi, and a ^ nabla Phi meets nabla Phi in
    # the symmetric f, where the pair cancels to round-off.
    CASES = {"k2": (2, 3), "k3": (3, 5)}  # k -> (n, chart dim 2k - 1)

    @staticmethod
    def _route_residual(k, twisted, seed):
        """|fiber integral - string form| and its round-off bound."""
        rng = np.random.default_rng(seed)
        n, dim = TestFiberIntegralRoute.CASES[f"k{k}"]
        draw = sampling.random_lgxs1_connection if twisted else sampling.random_lg_connection
        c = draw(rng, dim, 16, n)
        f = InvariantPolynomial(k) if k == 3 else pontrjagyn_polynomial()
        cyl = c.cylinder
        route = fc.fiber_integrate_poly_wedge([cyl] * k, f)
        p, top = 0.3 * rng.standard_normal(dim), tuple(range(dim))
        s = cn.higher_string_form(f, c).coeff(p, top)
        bound = 16 * np.finfo(float).eps * max(1.0, abs(s))
        return abs(route.coeff(p, top) - s), bound

    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("twisted", [False, True], ids=["lg", "lgxs1"])
    @pytest.mark.parametrize("k", [2, 3], ids=["k2", "k3"])
    def test_matches_string_form(self, k, twisted, seed):
        resid, bound = self._route_residual(k, twisted, seed)
        assert resid <= bound

    @pytest.mark.parametrize("twisted", [False, True], ids=["lg", "lgxs1"])
    def test_sees_a_scaled_k3_string_form(self, twisted, monkeypatch):
        # a relative error of 1e-6 in the degree-5 form alone, which no
        # closedness or gauge check can see
        build = cn.higher_string_form

        def scaled(f, c):
            s = build(f, c)
            return fc.form_sum([s], [1.0 + 1e-6]) if f.degree == 3 else s

        monkeypatch.setattr(cn, "higher_string_form", scaled)
        resid, bound = self._route_residual(3, twisted, 1)
        assert resid > bound


class TestLGxS1:
    def test_a_zero_reduces_curvature(self):
        # at a = 0 the twist terms add exact zeros: F, nabla Phi and the
        # cylinder's beta and gamma equal the LG ones bit for bit
        dim = 3
        base = sampling.random_lg_connection(RNG, dim, N, 2)
        ext = cn.LGxS1ConnectionData(
            base.A, fc.FormField(1, dim, lambda p, idx: 0.0), base.phi, dim, N, 2
        )
        cyl_ext, cyl_base = ext.cylinder, base.cylinder
        pairs = [
            (ext.F, base.F),
            (ext.nabla_phi, base.nabla_phi),
            (cyl_ext.beta, cyl_base.beta),
            (cyl_ext.gamma, cyl_base.gamma),
        ]
        p = 0.3 * RNG.standard_normal(dim)
        for got, want in pairs:
            for idx in combinations(range(dim), got.degree):
                assert np.array_equal(got.coeff(p, idx), want.coeff(p, idx)), idx

    def test_theta_independent_A_kills_twist(self):
        dim = 2
        a_consts = [sampling.random_algebra(RNG, 2) for _ in range(dim)]
        polys = [sampling.random_poly(RNG, dim) for _ in range(dim)]

        def A_coeff(p, idx):
            (i,) = idx
            return np.broadcast_to(polys[i](p) * a_consts[i], (N, 2, 2)).copy()

        A = fc.FormField(1, dim, A_coeff)
        a = sampling.random_real_one_form(RNG, dim)
        phi = sampling.random_higgs_field(RNG, dim, N, 2)
        ext = cn.LGxS1ConnectionData(A, a, phi, dim, N, 2)
        base = cn.LGConnectionData(A, phi, dim, N, 2)
        p = 0.3 * RNG.standard_normal(dim)
        got = ext.F.coeff(p, (0, 1))
        want = base.F.coeff(p, (0, 1))
        assert np.max(np.abs(got - want)) < 1e-13

    def test_twisted_curvature_term_by_term_oracle(self):
        # assemble dA + (1/2)[A, A] - a ^ dA/dtheta by hand with an
        # independent dense finite-difference stencil
        dim = 2
        c = sampling.random_lgxs1_connection(RNG, dim, N, 2)
        p = 0.25 * RNG.standard_normal(dim)
        got = c.F.coeff(p, (0, 1))
        h = 3e-5
        e0, e1 = np.eye(dim) * h
        dA = (
            (c.A.coeff(p + e0, (1,)) - c.A.coeff(p - e0, (1,)))
            - (c.A.coeff(p + e1, (0,)) - c.A.coeff(p - e1, (0,)))
        ) / (2 * h)
        A0, A1 = c.A.coeff(p, (0,)), c.A.coeff(p, (1,))
        a0, a1 = float(c.a.coeff(p, (0,))), float(c.a.coeff(p, (1,)))
        want = (
            dA
            + (A0 @ A1 - A1 @ A0)
            - a0 * lp.loop_derivative(A1)
            + a1 * lp.loop_derivative(A0)
        )
        assert np.max(np.abs(got - want)) < 1e-7
        fval = float(c.f.coeff(p, (0, 1)))
        da = (
            (float(c.a.coeff(p + e0, (1,))) - float(c.a.coeff(p - e0, (1,))))
            - (float(c.a.coeff(p + e1, (0,))) - float(c.a.coeff(p - e1, (0,))))
        ) / (2 * h)
        assert fval == pytest.approx(da, abs=1e-7)

    def test_covariant_higgs_reduction_and_twist(self):
        dim = 2
        c = sampling.random_lgxs1_connection(RNG, dim, N, 2)
        base = cn.LGConnectionData(c.A, c.phi, c.dim, c.N, c.n, c.fd_step)
        nab_ext = c.nabla_phi
        nab_base = base.nabla_phi
        p = 0.3 * RNG.standard_normal(dim)
        for i in range(dim):
            want = nab_base.coeff(p, (i,)) - c.a.coeff(p, (i,)) * lp.loop_derivative(
                c.phi(p)
            )
            assert np.array_equal(nab_ext.coeff(p, (i,)), want)

    def test_string_form_reduces(self):
        dim = 3
        base = sampling.random_lg_connection(RNG, dim, N, 2)
        ext = cn.LGxS1ConnectionData(
            base.A, fc.FormField(1, dim, lambda p, idx: 0.0), base.phi, dim, N, 2
        )
        p = 0.3 * RNG.standard_normal(dim)
        f = pontrjagyn_polynomial()
        assert np.array_equal(
            cn.higher_string_form(f, ext).coeff(p, (0, 1, 2)),
            cn.higher_string_form(f, base).coeff(p, (0, 1, 2)),
        )

    def test_string_form_flat_zero(self):
        ext = cn.LGxS1ConnectionData(
            zero_form(3, 1, np.zeros((N, 2, 2), dtype=complex)),
            fc.FormField(1, 3, lambda p, idx: 0.0),
            lambda p: np.zeros((N, 2, 2), dtype=complex),
            3, N, 2,
        )
        s = cn.higher_string_form(pontrjagyn_polynomial(), ext)
        assert fc.max_coeff(s, [np.zeros(3)]) < 1e-15

    def test_twisted_gauge_invariance(self):
        dim = 3
        c = sampling.random_lgxs1_connection(RNG, dim, N, 2)
        sigma = sampling.random_semidirect_gauge(RNG, dim, N, 2)
        ct = cn.gauge_transform(c, sigma)
        f = pontrjagyn_polynomial()
        diff = fc.form_sum(
            [cn.higher_string_form(f, c), cn.higher_string_form(f, ct)], [1.0, -1.0]
        )
        assert fc.max_coeff(diff, [0.3 * RNG.standard_normal(dim)]) < 1e-5

    def test_twisted_curvature_covariance(self):
        # F transforms by rot_{-phi}(Ad(s^{-1}) F - f s^{-1} ds), f is unchanged
        dim = 2
        c = sampling.random_lgxs1_connection(RNG, dim, N, 2)
        sigma = sampling.random_semidirect_gauge(RNG, dim, N, 2)
        ct = cn.gauge_transform(c, sigma)
        p = 0.3 * RNG.standard_normal(dim)
        s = sigma(p)
        g, ang = s.loop_part, s.angle
        ginv = lp.loop_inverse(g)
        F = c.F.coeff(p, (0, 1))
        fval = float(c.f.coeff(p, (0, 1)))
        want = lp.rotate(-ang, ginv @ F @ g - fval * (ginv @ lp.loop_derivative(g)))
        assert np.max(np.abs(ct.F.coeff(p, (0, 1)) - want)) < 5e-6
        assert float(ct.f.coeff(p, (0, 1))) == pytest.approx(fval, abs=1e-6)


class TestIndependence:
    def test_equal_connections_give_zero(self):
        c = sampling.random_lg_connection(RNG, 3, N, 2)
        f = pontrjagyn_polynomial()
        psi = cn.independence_homotopy_form(f, c, c)
        assert fc.max_coeff(psi, [0.3 * RNG.standard_normal(3)]) < 1e-14

    def test_difference_is_exact(self):
        dim = 3
        c0 = sampling.random_lg_connection(RNG, dim, N, 2)
        c1 = sampling.random_lg_connection(RNG, dim, N, 2)
        f = pontrjagyn_polynomial()
        psi = cn.independence_homotopy_form(f, c0, c1)
        dpsi = fc.exterior_derivative(psi, 1e-4)
        s0 = cn.higher_string_form(f, c0)
        s1 = cn.higher_string_form(f, c1)
        diff = fc.form_sum([dpsi, s1, s0], [1.0, -1.0, 1.0])
        assert fc.max_coeff(diff, [0.2 * RNG.standard_normal(dim)]) < 1e-4

    def test_first_order_linearity(self):
        dim = 3
        c0 = sampling.random_lg_connection(RNG, dim, N, 2)
        pert = sampling.random_lg_connection(RNG, dim, N, 2)
        f = pontrjagyn_polynomial()

        def perturbed(eps):
            A = fc.form_sum([c0.A, pert.A], [1.0, eps])

            def phi(p, eps=eps):
                return c0.phi(p) + eps * pert.phi(p)

            return cn.LGConnectionData(A, phi, dim, N, 2)

        p = np.array([0.1, -0.2, 0.3])
        idx = (0, 1)
        eps = 1e-4
        psi_1 = cn.independence_homotopy_form(f, c0, perturbed(eps))
        psi_2 = cn.independence_homotopy_form(f, c0, perturbed(2 * eps))
        v1 = psi_1.coeff(p, idx)
        v2 = psi_2.coeff(p, idx)
        # psi scales linearly to first order in the perturbation
        assert abs(v2 - 2 * v1) < 40 * eps * max(abs(v1), eps)

    def test_twisted_data_raise(self):
        # rebuilt as LG data, the interpolants would lose a and f and give the
        # untwisted primitive
        rng = np.random.default_rng(8)
        lg = sampling.random_lg_connection(rng, 3, N, 2)
        twisted = sampling.random_lgxs1_connection(rng, 3, N, 2)
        f = pontrjagyn_polynomial()
        for c0, c1 in ((twisted, twisted), (lg, twisted), (twisted, lg)):
            with pytest.raises(TypeError):
                cn.independence_homotopy_form(f, c0, c1)


class TestGaugeTransformBasics:
    def test_identity_gauge_is_noop(self):
        dim = 2
        c = sampling.random_lg_connection(RNG, dim, N, 2)
        eye = np.broadcast_to(np.eye(2, dtype=complex), (N, 2, 2)).copy()
        ct = cn.gauge_transform(c, lambda p: eye)
        p = 0.3 * RNG.standard_normal(dim)
        assert np.max(np.abs(ct.A.coeff(p, (0,)) - c.A.coeff(p, (0,)))) < 1e-12
        assert np.max(np.abs(ct.phi(p) - c.phi(p))) < 1e-12

    def test_higgs_equivariance_shift(self):
        # constant gauge loop: Phi -> Ad(g^{-1}) Phi + g^{-1} dg
        dim = 2
        c = sampling.random_lg_connection(RNG, dim, N, 2)
        gloop = sampling.bandlimited_group_loop(RNG, N, 2)
        ct = cn.gauge_transform(c, lambda p: gloop)
        p = 0.2 * RNG.standard_normal(dim)
        ginv = lp.loop_inverse(gloop)
        want = ginv @ c.phi(p) @ gloop + ginv @ lp.loop_derivative(gloop)
        assert np.max(np.abs(ct.phi(p) - want)) < 1e-12


class TestGaugeComposition:
    """gauge_transform(gauge_transform(c, s1), s2) = gauge_transform(c, s1 s2),
    s1 s2 = ``lp.multiply``, each gap bounded by its error model at step h.

    - A: the stencil's product rule, d(s1 s2) against the product of the
      differences, fails by c h^2; the gap is 4x smaller per halving of h.
      Bound 4 (h^2 + eps/h) (c up to 0.16 on LG, 0.98 on LG x| S1 over the
      draws here).
    - a: d is linear, so only round-off: three angle rates, each a
      difference of angles up to 2 pi over 2h, pi eps/h apiece.  Bound
      4 pi eps/h (4 eps/h seen).
    - Phi: the Higgs shift is an exact right action; round-off of a loop
      derivative, bound 4 N eps max|Phi| as in test_loopspace (1.1 seen).

    At N = 64 samples: at 32 the group loops alias and Phi's gap is 3e-9.
    """

    EPS = np.finfo(float).eps
    N = 64

    @pytest.mark.parametrize("twisted", [False, True], ids=["lg", "lgxs1"])
    def test_gauge_action_composes(self, twisted):
        rng = np.random.default_rng(53)
        dim = 3
        connection = sampling.random_lgxs1_connection if twisted else sampling.random_lg_connection
        gauge = sampling.random_semidirect_gauge if twisted else sampling.random_gauge_loop
        for _ in range(5):
            c = connection(rng, dim, self.N, 2)
            s1, s2 = gauge(rng, dim, self.N, 2), gauge(rng, dim, self.N, 2)
            p = 0.3 * rng.standard_normal(dim)
            gaps = {}
            for h in (2e-4, 1e-4):
                ch = replace(c, fd_step=h)
                lhs = cn.gauge_transform(cn.gauge_transform(ch, s1), s2)
                rhs = cn.gauge_transform(ch, lambda q: lp.multiply(s1(q), s2(q)))
                gaps[h] = max(np.max(np.abs(lhs.A.coeff(p, (i,)) - rhs.A.coeff(p, (i,))))
                              for i in range(dim))
                assert gaps[h] <= 4.0 * (h ** 2 + self.EPS / h)
                if twisted:
                    a_gap = max(abs(lhs.a.coeff(p, (i,)) - rhs.a.coeff(p, (i,)))
                                for i in range(dim))
                    assert a_gap <= 4.0 * np.pi * self.EPS / h
            assert 3.9 <= gaps[2e-4] / gaps[1e-4] <= 4.1
            phi = rhs.phi(p)
            assert np.max(np.abs(lhs.phi(p) - phi)) <= 4 * self.N * self.EPS * np.max(np.abs(phi))


class TestChartMaps:
    """Phi and sigma are memoized 0-forms: each stencil point is computed once."""

    @staticmethod
    def counted_phi(rng, dim):
        phi = sampling.random_higgs_field(rng, dim, N, 2)
        calls = []

        def raw(p):
            calls.append(np.asarray(p).tobytes())
            return np.array(phi(p))

        return raw, calls

    def test_higgs_runs_once_per_stencil_point(self):
        rng = np.random.default_rng(31)
        dim = 3
        raw, calls = self.counted_phi(rng, dim)
        c = cn.LGConnectionData(sampling.random_loop_one_form(rng, dim, N, 2), raw, dim, N, 2)
        nabla = c.nabla_phi
        p = 0.3 * rng.standard_normal(dim)
        for i in range(dim):
            nabla.coeff(p, (i,))
        assert len(calls) == len(set(calls)) == 2 * dim + 1

    def test_connection_runs_once_per_stencil_point(self):
        # F and nabla Phi ask A at the points of one stencil again and again
        rng = np.random.default_rng(43)
        dim = 3
        A = sampling.random_loop_one_form(rng, dim, N, 2)
        calls = []

        def raw(p, idx):
            calls.append((np.asarray(p).tobytes(), tuple(idx)))
            return A.coeff(p, idx)

        phi = sampling.random_higgs_field(rng, dim, N, 2)
        c = cn.LGConnectionData(fc.FormField(1, dim, raw), phi, dim, N, 2)
        p = 0.3 * rng.standard_normal(dim)
        fc.max_coeff(c.F, [p])
        fc.max_coeff(c.nabla_phi, [p])
        assert len(calls) == len(set(calls))

    @staticmethod
    def connection_and_gauge(rng, dim, twisted):
        if twisted:
            c = sampling.random_lgxs1_connection(rng, dim, N, 2)
            return c, sampling.random_semidirect_gauge(rng, dim, N, 2)
        c = sampling.random_lg_connection(rng, dim, N, 2)
        return c, sampling.random_gauge_loop(rng, dim, N, 2)

    @pytest.mark.parametrize("twisted", [False, True])
    def test_derived_forms_built_once_per_connection(self, twisted):
        c, sigma = self.connection_and_gauge(np.random.default_rng(47), 3, twisted)
        derived = ("F", "nabla_phi", "dA_dtheta", "cylinder") + (("f",) if twisted else ())
        for name in derived:
            assert getattr(c, name) is getattr(c, name)
        ct = cn.gauge_transform(c, sigma)
        for name in derived:
            assert getattr(ct, name) is getattr(ct, name)
            assert getattr(ct, name) is not getattr(c, name)
        assert replace(c, fd_step=1e-3).F is not c.F
        # the cylinder reads the attributes: gamma is nabla Phi, and on LG
        # data beta is F
        assert c.cylinder.gamma is c.nabla_phi
        assert (c.cylinder.beta is c.F) is not twisted

    def test_twisted_f_and_nabla_share_dA_dtheta(self, monkeypatch):
        # the twists a ^ dA/dtheta of F and dA/dtheta of nabla Phi take one
        # loop derivative per component of A, plus one for dPhi/dtheta
        rng = np.random.default_rng(53)
        dim = 3
        c = sampling.random_lgxs1_connection(rng, dim, N, 2)
        count = [0]
        loop_derivative = lp.loop_derivative

        def counted(s):
            count[0] += 1
            return loop_derivative(s)

        monkeypatch.setattr(lp, "loop_derivative", counted)
        p = 0.3 * rng.standard_normal(dim)
        fc.max_coeff(c.F, [p])
        fc.max_coeff(c.nabla_phi, [p])
        assert count[0] == dim + 1

    @pytest.mark.parametrize("twisted", [False, True])
    def test_curvature_brackets_once_per_pair(self, monkeypatch, twisted):
        dim = 4
        c, _ = self.connection_and_gauge(np.random.default_rng(59), dim, twisted)
        count = [0]
        bracket = fc.bracket

        def counted(a, b):
            count[0] += 1
            return bracket(a, b)

        monkeypatch.setattr(fc, "bracket", counted)
        F = c.F
        for p in sampling.random_chart_points(np.random.default_rng(61), dim, 2):
            for ij in combinations(range(dim), 2):
                F.coeff(p, ij)
        assert count[0] == 2 * dim * (dim - 1) // 2

    @pytest.mark.parametrize("twisted", [False, True])
    def test_gauge_transform_exp_loops(self, monkeypatch, twisted):
        rng = np.random.default_rng(37)
        dim = 3
        if twisted:
            c = sampling.random_lgxs1_connection(rng, dim, N, 2)
            sigma = sampling.random_semidirect_gauge(rng, dim, N, 2)
        else:
            c = sampling.random_lg_connection(rng, dim, N, 2)
            sigma = sampling.random_gauge_loop(rng, dim, N, 2)
        count = [0]
        exp_loop = lp.exp_loop

        def counted(xi):
            count[0] += 1
            return exp_loop(xi)

        monkeypatch.setattr(lp, "exp_loop", counted)
        ct = cn.gauge_transform(c, sigma)
        p = 0.3 * rng.standard_normal(dim)
        for i in range(dim):
            ct.A.coeff(p, (i,))
            if twisted:
                ct.a.coeff(p, (i,))
        ct.phi(p)
        assert count[0] == 2 * dim + 1

    def test_plain_callable_phi_gives_same_values(self):
        rng = np.random.default_rng(41)
        dim = 3
        A = sampling.random_loop_one_form(rng, dim, N, 2)
        a = sampling.random_real_one_form(rng, dim)
        form = sampling.random_higgs_field(rng, dim, N, 2)

        def plain(p):
            return np.array(form(p))

        p = 0.3 * rng.standard_normal(dim)
        for build in (
            lambda phi: cn.LGConnectionData(A, phi, dim, N, 2),
            lambda phi: cn.LGxS1ConnectionData(A, a, phi, dim, N, 2),
        ):
            c_plain, c_form = build(plain), build(form)
            assert isinstance(c_plain.phi, fc.FormField) and c_plain.phi.degree == 0
            assert c_form.phi is form
            np.testing.assert_array_equal(c_plain.phi(p), form(p))
            np.testing.assert_array_equal(
                cn.higher_string_form(pontrjagyn_polynomial(), c_plain).coeff(p, (0, 1, 2)),
                cn.higher_string_form(pontrjagyn_polynomial(), c_form).coeff(p, (0, 1, 2)),
            )
