import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from loopforms import loopspace, sampling
from loopforms.loopspace import (
    LOOP_PRODUCT_MAX_N,
    SemiDirectAlgebraElement,
    SemiDirectGroupElement,
    adjoint,
    adjoint_inverse,
    bracket,
    central,
    circle_integral,
    exp_loop,
    gauge_shift,
    grid,
    left_translate,
    loop_derivative,
    loop_inverse,
    loop_product,
    multiply,
    resample,
    rotate,
    z_map,
)

from helpers import su2_basis

RNG = np.random.default_rng(7)
N = 64
X1, X2, X3 = su2_basis()


class TestDerivative:
    def test_constant_loop(self):
        const = np.broadcast_to(X1, (N, 2, 2)).copy()
        assert np.max(np.abs(loop_derivative(const))) < 1e-15

    def test_bandlimited_exact(self):
        theta = grid(N)
        xi = np.sin(theta)[:, None, None] * X1
        want = np.cos(theta)[:, None, None] * X1
        assert np.max(np.abs(loop_derivative(xi) - want)) < 1e-13

    def test_bandlimited_exact_small_grid(self):
        theta = grid(4)
        xi = np.sin(theta)
        assert np.max(np.abs(loop_derivative(xi) - np.cos(theta))) < 1e-14

    def test_integration_by_parts(self):
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2)
        zeta = sampling.bandlimited_algebra_loop(RNG, N, 2)

        def pair(a, b):
            return circle_integral(np.real(-np.einsum("jab,jba->j", a, b)))

        total = pair(xi, loop_derivative(zeta)) + pair(loop_derivative(xi), zeta)
        assert abs(total) < 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            loop_derivative(np.zeros(2))


class TestIntegral:
    def test_constant(self):
        assert circle_integral(np.full(N, 3.0)) == pytest.approx(6 * np.pi)
        assert circle_integral(3.0) == pytest.approx(6 * np.pi)

    def test_sine_cancels(self):
        assert abs(circle_integral(np.sin(grid(N)))) < 1e-14

    def test_sine_squared(self):
        assert circle_integral(np.sin(grid(N)) ** 2) == pytest.approx(
            np.pi, abs=1e-12
        )


class TestRotate:
    def test_zero(self):
        s = sampling.bandlimited_algebra_loop(RNG, N, 2)
        assert np.array_equal(rotate(0.0, s), s)

    def test_grid_shift(self):
        s = sampling.bandlimited_algebra_loop(RNG, N, 2)
        got = rotate(2 * np.pi / N, s)
        assert np.allclose(got, np.roll(s, 1, axis=0))

    def test_exact_on_bandlimited(self):
        theta = grid(N)
        phi = 1.234
        s = np.sin(3 * theta) + 0.25 * np.cos(theta)
        want = np.sin(3 * (theta - phi)) + 0.25 * np.cos(theta - phi)
        assert np.max(np.abs(rotate(phi, s) - want)) < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
    def test_action_composition(self, p1, p2):
        s = np.sin(2 * grid(N)) + 0.3 * np.cos(5 * grid(N))
        lhs = rotate(p1, rotate(p2, s))
        rhs = rotate(p1 + p2, s)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_integral_invariance(self):
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2)
        zeta = sampling.bandlimited_algebra_loop(RNG, N, 2)
        phi = 0.987

        def energy(a, b):
            return circle_integral(
                np.real(-np.einsum("jab,jba->j", a, loop_derivative(b)))
            )

        assert energy(rotate(phi, xi), rotate(phi, zeta)) == pytest.approx(
            energy(xi, zeta), abs=1e-10
        )


def _phase_rotation(phi, s):
    """s(theta - phi) as a phase on the spectrum, the Nyquist bin scaled by
    cos(N phi / 2): the reference for off-grid rotation."""
    N = s.shape[0]
    k = np.fft.fftfreq(N, d=1.0 / N)
    phase = np.exp(-1j * k * phi)
    phase[N // 2] = np.cos(0.5 * N * phi)
    phase = phase.reshape((N,) + (1,) * (s.ndim - 1))
    out = np.fft.ifft(phase * np.fft.fft(s, axis=0), axis=0)
    return out.real if np.isrealobj(s) else out


class TestResample:
    @pytest.mark.parametrize("M", [32, 128])
    @pytest.mark.parametrize("shift", [0.0, 0.0137, -0.4])
    def test_band_limited_loop_at_offset_nodes(self, M, shift):
        # every mode of a 32-sample grid, the Nyquist mode as its cosine
        N = 32
        modes = [(k, sampling.random_algebra(RNG, 2), sampling.random_algebra(RNG, 2))
                 for k in range(N // 2)]
        nyquist = sampling.random_algebra(RNG, 2)

        def loop(t):
            out = np.cos(N / 2 * t)[:, None, None] * nyquist
            for k, c, s in modes:
                out = out + np.cos(k * t)[:, None, None] * c + np.sin(k * t)[:, None, None] * s
            return out

        got = resample(loop(grid(N)), M, shift)
        assert np.max(np.abs(got - loop(grid(M) + shift))) < 1e-12

    @pytest.mark.parametrize("phi", [0.3, -1.234, 2.5 * 2 * np.pi / N])
    def test_off_grid_rotation_matches_phase_formula(self, phi):
        # unfiltered samples, so the Nyquist bin carries weight
        loop = RNG.standard_normal((N, 2, 2)) + 1j * RNG.standard_normal((N, 2, 2))
        scalar = RNG.standard_normal(N)
        for s in (loop, scalar):
            err = np.max(np.abs(resample(s, N, -phi) - _phase_rotation(phi, s)))
            assert err < 1e-15 * np.max(np.abs(s))
            assert np.array_equal(rotate(phi, s), resample(s, N, -phi))


class TestLoopProduct:
    # Error model: each entry is an n-term complex dot product, so each
    # side is off by at most about n eps times (|a| |b|) in that entry;
    # 4 n eps bounds the gap between the two.
    SHAPES = [
        ((N, "n", "n"), (N, "n", "n")),
        ((N, "n", "n"), ("n", "n")),
        (("n", "n"), (N, "n", "n")),
        ((3, N, "n", "n"), (N, "n", "n")),
    ]

    @staticmethod
    def _draw(rng, shape, n):
        shape = tuple(n if d == "n" else d for d in shape)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("shapes", SHAPES)
    def test_matches_matmul(self, n, shapes):
        rng = np.random.default_rng(n)
        a, b = (self._draw(rng, shape, n) for shape in shapes)
        got, want = loop_product(a, b), np.matmul(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        scale = np.matmul(np.abs(a), np.abs(b))
        assert np.max(np.abs(got - want) / scale) <= 4 * n * np.finfo(float).eps

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_wide_matrices_take_matmul_bitwise(self, n):
        assert n > LOOP_PRODUCT_MAX_N
        rng = np.random.default_rng(n)
        for shapes in self.SHAPES:
            a, b = (self._draw(rng, shape, n) for shape in shapes)
            assert np.array_equal(loop_product(a, b), a @ b)

    @pytest.mark.parametrize("n", [2, 3])
    def test_product_independent_of_stack_position(self, n):
        # the bitwise claims of the blocked holonomy scan rest on this
        rng = np.random.default_rng(n)
        a, b = self._draw(rng, (N, n, n), n), self._draw(rng, (N, n, n), n)
        full = loop_product(a, b)
        for k in (0, 1, N // 2, N - 1):
            assert np.array_equal(full[k], loop_product(a[k : k + 1], b[k : k + 1])[0])
            assert np.array_equal(full[k::7], loop_product(a[k::7], b[k::7]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_read_only_inputs_untouched_and_not_aliased(self, n):
        # memoized form coefficients come back as read-only views
        rng = np.random.default_rng(n)
        for shapes in self.SHAPES:
            a, b = (self._draw(rng, shape, n) for shape in shapes)
            saved = a.copy(), b.copy()
            a.flags.writeable = b.flags.writeable = False
            out = loop_product(a, b)
            assert np.array_equal(a, saved[0]) and np.array_equal(b, saved[1])
            assert out.flags.writeable
            assert not np.shares_memory(out, a) and not np.shares_memory(out, b)


class TestZMap:
    def test_constant_loop(self):
        g = np.broadcast_to(sampling.random_group(RNG, 2), (N, 2, 2)).copy()
        assert np.max(np.abs(z_map(g))) < 1e-13

    def test_integer_geodesic(self):
        # gamma(theta) = exp(theta m X) closed for X = diag(i, -i), any integer m
        m = 2
        X = np.diag([1j, -1j])
        theta = grid(N)
        gamma = exp_loop(np.einsum("j,ab->jab", m * theta, X))
        want = np.broadcast_to(m * X, (N, 2, 2))
        assert np.max(np.abs(z_map(gamma) - want)) < 1e-10

    def test_cocycle(self):
        g1 = sampling.bandlimited_group_loop(RNG, N, 2)
        g2 = sampling.bandlimited_group_loop(RNG, N, 2)
        lhs = z_map(g1 @ g2)
        rhs = z_map(g1) + g1 @ z_map(g2) @ loop_inverse(g1)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def _sd_alg(scale=0.5):
    return SemiDirectAlgebraElement(
        sampling.bandlimited_algebra_loop(RNG, N, 2, scale=scale),
        float(RNG.standard_normal()),
    )


def _sd_grp():
    return SemiDirectGroupElement(
        sampling.bandlimited_group_loop(RNG, N, 2), RNG.uniform(0, 2 * np.pi)
    )


class TestSemiDirect:
    def test_bracket_reduces_to_pointwise(self):
        a = SemiDirectAlgebraElement(sampling.bandlimited_algebra_loop(RNG, N, 2), 0.0)
        b = SemiDirectAlgebraElement(sampling.bandlimited_algebra_loop(RNG, N, 2), 0.0)
        got = bracket(a, b)
        want = a.loop_part @ b.loop_part - b.loop_part @ a.loop_part
        assert np.max(np.abs(got.loop_part - want)) < 1e-14
        assert got.circle_part == 0.0

    def test_bracket_rotation_generator(self):
        # [(0, x), (zeta, 0)] = (-x dzeta, 0)
        zeta = sampling.bandlimited_algebra_loop(RNG, N, 2)
        a = SemiDirectAlgebraElement(np.zeros_like(zeta), 1.7)
        b = SemiDirectAlgebraElement(zeta, 0.0)
        got = bracket(a, b)
        assert np.max(np.abs(got.loop_part + 1.7 * loop_derivative(zeta))) < 1e-12

    def test_bracket_antisymmetric(self):
        a = _sd_alg()
        got = bracket(a, a)
        assert np.max(np.abs(got.loop_part)) < 1e-13
        assert got.circle_part == 0.0

    def test_jacobi(self):
        a, b, c = _sd_alg(), _sd_alg(), _sd_alg()
        acc = bracket(a, bracket(b, c)).loop_part
        acc = acc + bracket(b, bracket(c, a)).loop_part
        acc = acc + bracket(c, bracket(a, b)).loop_part
        assert np.max(np.abs(acc)) < 1e-10

    def test_adjoint_identity(self):
        a = _sd_alg()
        g = SemiDirectGroupElement(
            np.broadcast_to(np.eye(2, dtype=complex), (N, 2, 2)).copy(), 0.0
        )
        got = adjoint(g, a)
        assert np.max(np.abs(got.loop_part - a.loop_part)) < 1e-14
        assert got.circle_part == a.circle_part

    def test_adjoint_reduces_to_loop_adjoint(self):
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2)
        a = SemiDirectAlgebraElement(xi, 0.0)
        gam = sampling.bandlimited_group_loop(RNG, N, 2)
        g = SemiDirectGroupElement(gam, 0.0)
        got = adjoint(g, a)
        want = gam @ xi @ loop_inverse(gam)
        assert np.max(np.abs(got.loop_part - want)) < 1e-13

    def test_adjoint_bracket_homomorphism(self):
        g = _sd_grp()
        a, b = _sd_alg(), _sd_alg()
        lhs = adjoint(g, bracket(a, b))
        rhs = bracket(adjoint(g, a), adjoint(g, b))
        assert np.max(np.abs(lhs.loop_part - rhs.loop_part)) < 1e-9

    def test_adjoint_inverse_roundtrip(self):
        g = _sd_grp()
        a = _sd_alg()
        back = adjoint(g, adjoint_inverse(g, a))
        assert np.max(np.abs(back.loop_part - a.loop_part)) < 1e-10

    def test_element_keeps_its_theta_derivative(self, monkeypatch):
        # z and drift are z_map and gamma^{-1} d gamma of the loop part, bit
        # for bit, from one derivative kept on the element
        g = _sd_grp()
        gamma = g.loop_part
        z, drift = z_map(gamma), left_translate(gamma, loop_derivative(gamma))
        calls = []
        monkeypatch.setattr(
            loopspace, "loop_derivative", lambda s: calls.append(s) or loop_derivative(s)
        )
        for a in (_sd_alg(), _sd_alg()):
            adjoint(g, a)
            adjoint_inverse(g, a)
        assert len(calls) == 1
        assert g.z.tobytes() == z.tobytes()
        assert g.drift.tobytes() == drift.tobytes()
        assert g.dtheta is g.dtheta


def _trig_group_loop(rng, m1=1, m2=2):
    """u1 e^{m1 theta H} u2 e^{m2 theta H} u3 with H = diag(i, -i): an SU(2)
    loop whose entries are trigonometric polynomials of degree m1 + m2, so
    the products, rotations and derivatives below stay below N/2 and the
    group laws hold to round-off."""
    theta = grid(N)
    u1, u2, u3 = (sampling.random_group(rng, 2) for _ in range(3))

    def e(m):
        out = np.zeros((N, 2, 2), dtype=complex)
        out[:, 0, 0], out[:, 1, 1] = np.exp(1j * m * theta), np.exp(-1j * m * theta)
        return out

    return u1 @ e(m1) @ u2 @ e(m2) @ u3


def _group_pair(rng, pairs):
    """Two group points and an algebra loop X, on LG or on LG x| S1."""
    g1, g2 = _trig_group_loop(rng), _trig_group_loop(rng)
    X = sampling.bandlimited_algebra_loop(rng, N, 2)
    if not pairs:
        return g1, g2, X
    g1, g2 = (SemiDirectGroupElement(g, rng.uniform(0, 2 * np.pi)) for g in (g1, g2))
    return g1, g2, SemiDirectAlgebraElement(X, float(rng.standard_normal()))


def _loop(x):
    return x.loop_part if isinstance(x, SemiDirectAlgebraElement) else x


class TestGroupInterface:
    """Right-action laws, bounded by c eps ||rhs||, ||.|| the largest entry.

    A law that takes a loop derivative (the pair adjoint's drift
    x g^{-1} dg, every gauge shift) gets c = N: the spectral derivative
    scales round-off by up to the top frequency N/2, and over 200 draws the
    ratio reached 0.52 N at N = 64 and 0.45 N at N = 256.  Ad(g^{-1}) of
    loops is pointwise and gets c = 8 (at most 2.8 seen).
    """

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("pairs", [False, True], ids=["lg", "lgxs1"])
    def test_adjoint_inverse_is_a_right_action(self, pairs):
        # Ad((g1 g2)^{-1}) = Ad(g2^{-1}) Ad(g1^{-1})
        rng = np.random.default_rng(19)
        c = N if pairs else 8
        for _ in range(10):
            g1, g2, X = _group_pair(rng, pairs)
            lhs = _loop(adjoint_inverse(multiply(g1, g2), X))
            rhs = _loop(adjoint_inverse(g2, adjoint_inverse(g1, X)))
            assert np.max(np.abs(lhs - rhs)) <= c * self.EPS * np.max(np.abs(rhs))

    @pytest.mark.parametrize("pairs", [False, True], ids=["lg", "lgxs1"])
    def test_gauge_shift_is_a_right_action(self, pairs):
        rng = np.random.default_rng(20)
        for _ in range(10):
            g1, g2, X = _group_pair(rng, pairs)
            phi = _loop(X)
            lhs = gauge_shift(multiply(g1, g2), phi)
            rhs = gauge_shift(g2, gauge_shift(g1, phi))
            assert np.max(np.abs(lhs - rhs)) <= N * self.EPS * np.max(np.abs(rhs))

    def test_pairs_at_angle_zero_are_loops_bitwise(self):
        rng = np.random.default_rng(21)
        g1, g2, X = _group_pair(rng, False)
        Y = sampling.bandlimited_algebra_loop(rng, N, 2)
        p1, p2 = (SemiDirectGroupElement(g, 0.0) for g in (g1, g2))
        a, b = SemiDirectAlgebraElement(X, 0.0), SemiDirectAlgebraElement(Y, 0.0)
        assert np.array_equal(multiply(p1, p2).loop_part, multiply(g1, g2))
        assert np.array_equal(adjoint(p1, a).loop_part, adjoint(g1, X))
        assert np.array_equal(adjoint_inverse(p1, a).loop_part, adjoint_inverse(g1, X))
        assert np.array_equal(bracket(a, b).loop_part, bracket(X, Y))
        assert np.array_equal(gauge_shift(p1, X), gauge_shift(g1, X))

    def test_pair_adjoint_shape_mismatch(self):
        # the loop parts of the element and the algebra pair must match
        g = SemiDirectGroupElement(np.broadcast_to(np.eye(2, dtype=complex), (N, 2, 2)), 0.5)
        a = SemiDirectAlgebraElement(np.zeros((N, 3, 3), dtype=complex), 1.0)
        shapes = rf"\({N}, 2, 2\) vs \({N}, 3, 3\)"
        with pytest.raises(ValueError, match="shapes differ: " + shapes):
            adjoint(g, a)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bracket_of_loops_is_the_commutator_bitwise(self, n):
        rng = np.random.default_rng(22)
        x, y = (sampling.bandlimited_algebra_loop(rng, N, n) for _ in range(2))
        assert np.array_equal(bracket(x, y), loop_product(x, y) - loop_product(y, x))


def _left_translated_loop_delta(p0, p1, p_1, h):
    """Loop part of p0^{-1} (p1 - p_1) / 2h on LG x| S1, the difference
    quotient first, then p0^{-1} through the group law."""
    inv = SemiDirectGroupElement(rotate(-p0.angle, loop_inverse(p0.loop_part)), -p0.angle)
    delta = (p1.loop_part - p_1.loop_part) / (2.0 * h)
    return multiply(inv, SemiDirectGroupElement(delta, 0.0)).loop_part


class TestCentral:
    H = 1e-4

    def test_plain_arrays_bitwise(self):
        p, m = RNG.standard_normal((2, N, 2, 2))
        assert np.array_equal(central(p, m, self.H), (p - m) / (2 * self.H))
        assert central(0.7, 0.2, self.H) == (0.7 - 0.2) / (2 * self.H)

    def test_left_translated_lg(self):
        b = sampling.bandlimited_group_loop(RNG, N, 2)
        p, m = (sampling.bandlimited_group_loop(RNG, N, 2) for _ in range(2))
        want = loop_product(loop_inverse(b), (p - m) / (2 * self.H))
        assert np.array_equal(left_translate(b, central(p, m, self.H)), want)

    @pytest.mark.parametrize("with_base", [False, True])
    def test_angle_rate_across_wrap(self, with_base):
        # angles 0.005 and 2 pi - 0.005 are 0.01 apart across the wrap
        h = 1e-2
        loop = sampling.bandlimited_group_loop(RNG, N, 2)
        plus = SemiDirectGroupElement(loop, 0.5 * h)
        minus = SemiDirectGroupElement(loop, -0.5 * h)
        got = central(plus, minus, h)
        if with_base:
            got = left_translate(SemiDirectGroupElement(loop, 0.0), got)
        assert got.circle_part == pytest.approx(0.5, rel=1e-12)

    def test_semidirect_left_translation_matches_group_law(self):
        base, tangent = _sd_grp(), _sd_alg()
        plus, minus = (
            multiply(base, SemiDirectGroupElement(
                exp_loop(t * tangent.loop_part), t * tangent.circle_part))
            for t in (self.H, -self.H)
        )
        got = left_translate(base, central(plus, minus, self.H))
        want = _left_translated_loop_delta(base, plus, minus, self.H)
        assert np.max(np.abs(got.loop_part - want)) < 1e-10
        # and both are the tangent itself up to O(h^2)
        assert np.max(np.abs(got.loop_part - tangent.loop_part)) < 1e-6
        assert got.circle_part == pytest.approx(tangent.circle_part, abs=1e-10)


class TestExpLoop:
    """One 2x2 (the closed form) against scipy's Pade ``expm``, a reference
    only the tests use, within c eps max(1, ||X||_2) with c = 8 (1.8 the
    largest of 5,000 su(2) draws up to norm 12); stacks and n >= 3 against
    the ``eigh`` formula, bit for bit."""

    EPS = np.finfo(float).eps

    def _assert_matches_expm(self, X, c=8.0):
        want = np.stack([expm(x) for x in X.reshape(-1, 2, 2)]).reshape(X.shape)
        scale = max(1.0, np.max(np.linalg.norm(X, 2, axis=(-2, -1))))
        assert np.max(np.abs(exp_loop(X) - want)) <= c * self.EPS * scale * np.max(np.abs(want))

    def test_single_matrix(self):
        rng = np.random.default_rng(30)
        for scale in (0.5, 2.0, 10.0):
            x = sampling.random_algebra(rng, 2)
            self._assert_matches_expm(x * scale / np.linalg.norm(x, 2))

    def test_stack(self):
        # the eigh branch: c = 16 (5.2 the largest of 200 such loops)
        rng = np.random.default_rng(31)
        X = sampling.bandlimited_algebra_loop(rng, N, 2, scale=2.0)
        assert X.shape == (N, 2, 2)
        self._assert_matches_expm(X, c=16.0)

    def test_zero_is_identity(self):
        assert np.array_equal(exp_loop(np.zeros((2, 2))), np.eye(2))

    def test_pi_coroot_is_minus_identity(self):
        H = np.diag([1j, -1j])
        assert np.max(np.abs(exp_loop(np.pi * H) + np.eye(2))) <= 2 * self.EPS
        self._assert_matches_expm(np.pi * H)

    @pytest.mark.parametrize("size", [1e-6, 1e-9, 1e-13, 1e-17, 1e-300])
    def test_near_zero(self, size):
        # s -> 0: sin s / s is taken without cancellation down to s = 0
        x = sampling.random_algebra(np.random.default_rng(32), 2)
        self._assert_matches_expm(size * x / np.linalg.norm(x, 2))

    def test_general_complex_with_trace(self):
        # the closed form holds on all of gl(2, C): e^mu (cos s I + sinc s Y);
        # c = 16 (4.3 the largest of 5,000 normal draws)
        rng = np.random.default_rng(33)
        X = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
        assert np.min(np.abs(np.trace(X, axis1=-2, axis2=-1))) > 0.0
        for x in X:
            self._assert_matches_expm(x, c=16.0)

    @pytest.mark.parametrize("n,stack", [(2, (N,)), (3, ()), (3, (N,)), (4, ()), (4, (N,))],
                             ids=["2-stack", "3-single", "3-stack", "4-single", "4-stack"])
    def test_eigh_branch_bitwise(self, n, stack):
        rng = np.random.default_rng([34, n])
        count = int(np.prod(stack))
        X = np.stack([sampling.random_algebra(rng, n) for _ in range(count)]).reshape(stack + (n, n))
        w, u = np.linalg.eigh(-1j * X)
        want = np.einsum("...ij,...j,...kj->...ik", u, np.exp(1j * w), u.conj())
        assert np.array_equal(exp_loop(X), want)

    def test_hermitian_fault_stays_visible(self):
        # exp of xi + 1e-3 H with H Hermitian is not unitary; an exponential
        # that reads one triangle of its input would return a unitary matrix
        rng = np.random.default_rng(35)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        bad = sampling.random_algebra(rng, 2) + 1e-3 * (z + z.conj().T)
        g = exp_loop(bad)
        assert np.max(np.abs(g @ g.conj().T - np.eye(2))) > 1e-4
        assert np.max(np.abs(g - expm(bad))) < 1e-14
