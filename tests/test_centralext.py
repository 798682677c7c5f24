from functools import partial

import numpy as np
import pytest

from loopforms import centralext as ce
from loopforms import connections as cn
from loopforms import formscalc as fc
from loopforms import loopspace as lp
from loopforms import sampling
from loopforms.liecore import killing

from helpers import su2_basis, zero_form

RNG = np.random.default_rng(57)
N = 64
X1, X2, X3 = su2_basis()


def lg_point_tangent(slots, scale=0.5):
    pts = tuple(sampling.bandlimited_group_loop(RNG, N, 2) for _ in range(slots))
    tans = tuple(
        sampling.bandlimited_algebra_loop(RNG, N, 2, scale=scale) for _ in range(slots)
    )
    return pts, tans


def sd_point_tangent(slots, scale=0.5):
    pts = tuple(
        lp.SemiDirectGroupElement(
            sampling.bandlimited_group_loop(RNG, N, 2), RNG.uniform(0, 2 * np.pi)
        )
        for _ in range(slots)
    )
    tans = tuple(
        lp.SemiDirectAlgebraElement(
            sampling.bandlimited_algebra_loop(RNG, N, 2, scale=scale),
            float(RNG.standard_normal()),
        )
        for _ in range(slots)
    )
    return pts, tans


class TestRForm:
    def test_antisymmetry(self):
        gamma = sampling.bandlimited_group_loop(RNG, N, 2)
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2)
        assert ce.r_form(gamma, xi, xi) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_value(self):
        # xi = sin(theta) X1, zeta = cos(theta) X1:
        # (1/4 pi) Int <sin X1, -sin X1> = -(1/4 pi) pi <X1, X1>
        theta = lp.grid(N)
        xi = np.sin(theta)[:, None, None] * X1
        zeta = np.cos(theta)[:, None, None] * X1
        gamma = sampling.bandlimited_group_loop(RNG, N, 2)
        want = -killing(X1, X1) / 4.0
        assert ce.r_form(gamma, xi, zeta) == pytest.approx(want, abs=1e-12)

    def test_rotation_invariance(self):
        gamma = sampling.bandlimited_group_loop(RNG, N, 2)
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2)
        zeta = sampling.bandlimited_algebra_loop(RNG, N, 2)
        phi = RNG.uniform(0, 2 * np.pi)
        a = ce.r_form(gamma, xi, zeta)
        b = ce.r_form(gamma, lp.rotate(phi, xi), lp.rotate(phi, zeta))
        assert a == pytest.approx(b, abs=1e-10)

    def test_semidirect_probe_ignores_circle_parts(self):
        pts, tans = sd_point_tangent(1)
        a = ce.r_form(pts[0], tans[0], tans[0])
        assert a == pytest.approx(0.0, abs=1e-15)


class TestAlpha:
    def test_constant_second_slot(self):
        g1 = sampling.bandlimited_group_loop(RNG, N, 2)
        g2 = np.broadcast_to(sampling.random_group(RNG, 2), (N, 2, 2)).copy()
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2)
        val = ce.alpha_form((g1, g2), (xi, 0 * xi))
        assert abs(val) < 1e-12

    def test_zero_first_tangent(self):
        pts, tans = lg_point_tangent(2)
        val = ce.alpha_form(pts, (0 * tans[0], tans[1]))
        assert val == 0.0

    def test_left_invariance_first_slot(self):
        pts, tans = lg_point_tangent(2)
        other = sampling.bandlimited_group_loop(RNG, N, 2)
        v1 = ce.alpha_form(pts, tans)
        v2 = ce.alpha_form((other, pts[1]), tans)
        assert v1 == pytest.approx(v2, abs=1e-14)

    def test_semidirect_reduces(self):
        pts, tans = lg_point_tangent(2)
        sd_pts = tuple(lp.SemiDirectGroupElement(g, 0.0) for g in pts)
        sd_tans = tuple(lp.SemiDirectAlgebraElement(t, 0.0) for t in tans)
        assert ce.alpha_form(sd_pts, sd_tans) == pytest.approx(
            ce.alpha_form(pts, tans), abs=1e-14
        )

    def test_semidirect_constant_loop_vanishes(self):
        g1 = lp.SemiDirectGroupElement(
            sampling.bandlimited_group_loop(RNG, N, 2), RNG.uniform(0, 2 * np.pi)
        )
        g2 = lp.SemiDirectGroupElement(
            np.broadcast_to(sampling.random_group(RNG, 2), (N, 2, 2)).copy(), 1.2
        )
        t1 = lp.SemiDirectAlgebraElement(
            sampling.bandlimited_algebra_loop(RNG, N, 2), 0.8
        )
        t2 = lp.SemiDirectAlgebraElement(
            sampling.bandlimited_algebra_loop(RNG, N, 2), -0.3
        )
        assert ce.alpha_form((g1, g2), (t1, t2)) == pytest.approx(0.0, abs=1e-12)


class TestSimplicial:
    def test_delta_of_zero_form(self):
        pts, tans = lg_point_tangent(2)
        assert ce.simplicial_delta_eval(lambda p, t: 0.0, pts, tans) == 0.0

    def test_lgxs1_deltas_differentiate_each_loop_once(self, monkeypatch):
        # the face pushes of both tangent sets and alpha's Z share the
        # d gamma / d theta kept on each LG x| S1 element
        inputs = []
        loop_derivative = lp.loop_derivative
        monkeypatch.setattr(
            lp, "loop_derivative", lambda s: inputs.append(s.tobytes()) or loop_derivative(s)
        )
        pair, tx = sd_point_tangent(2)
        _, ty = sd_point_tangent(2)
        ce.simplicial_delta_eval(ce._r_eval, pair, tx, ty)
        triple, tans = sd_point_tangent(3)
        ce.verify_delta_alpha_zero(triple, tans)
        assert inputs and len(inputs) == len(set(inputs))

    def test_delta_squared_scalar(self):
        probe = sampling.bandlimited_algebra_loop(RNG, N, 2)

        def test_form(points, tangents):
            val = lp.circle_integral(
                np.real(-np.einsum("jab,jba->j", tangents[0], lp.z_map(points[1])))
                + 0.3
                * np.real(
                    -np.einsum(
                        "jab,jba->j",
                        tangents[1],
                        points[0] @ probe @ lp.loop_inverse(points[0]),
                    )
                )
            )
            return float(val)

        d1 = partial(ce.simplicial_delta_eval, test_form)
        pts, tans = lg_point_tangent(4)
        assert abs(ce.simplicial_delta_eval(d1, pts, tans)) < 1e-6

    def test_dalpha_equals_deltaR_lg(self):
        worst = 0.0
        for _ in range(5):
            pts, tx = lg_point_tangent(2)
            _, ty = lg_point_tangent(2)
            worst = max(worst, ce.d_alpha_vs_delta_r(pts, tx, ty))
        assert worst < 1e-5

    def test_dalpha_equals_deltaR_semidirect(self):
        worst = 0.0
        for _ in range(5):
            pts, tx = sd_point_tangent(2)
            _, ty = sd_point_tangent(2)
            worst = max(worst, ce.d_alpha_vs_delta_r(pts, tx, ty))
        assert worst < 1e-5

    @pytest.mark.parametrize("point_tangent", [lg_point_tangent, sd_point_tangent])
    def test_d_alpha_flows_the_second_slot_only(self, monkeypatch, point_tangent):
        # alpha reads g_2 and xi_1 only: four exponentials, where flowing
        # both slots took eight, and bit for bit the all-slot derivative
        pts, tx = point_tangent(2)
        _, ty = point_tangent(2)
        h = ce.FD_STEP

        def directional(tans_flow, tans_eval):
            plus = ce.alpha_form(_flow_all(pts, tans_flow, h), tans_eval)
            minus = ce.alpha_form(_flow_all(pts, tans_flow, -h), tans_eval)
            return lp.central(plus, minus, h)

        bracket = tuple(lp.bracket(x, y) for x, y in zip(tx, ty))
        want = 0.5 * (
            directional(tx, ty) - directional(ty, tx) - ce.alpha_form(pts, bracket)
        )
        count = [0]
        exp_loop = lp.exp_loop

        def counted(xi):
            count[0] += 1
            return exp_loop(xi)

        monkeypatch.setattr(lp, "exp_loop", counted)
        got = ce.d_alpha(pts, tx, ty)
        assert count[0] == 4
        assert got.hex() == want.hex()

    def test_semidirect_needs_correction_term(self):
        # without the -(1/2) mu Z term, d(alpha) != delta R: make sure the
        # correction is doing real work on probes with circle parts
        pts, tx = sd_point_tangent(2)
        _, ty = sd_point_tangent(2)

        def alpha_uncorrected(points, tangents):
            z2 = lp.z_map(points[1].loop_part)
            return ce._pair_integral(tangents[0].loop_part, z2)

        def directional(tans_flow, tans_eval):
            h = ce.FD_STEP
            plus = alpha_uncorrected(_flow_all(pts, tans_flow, h), tans_eval)
            minus = alpha_uncorrected(_flow_all(pts, tans_flow, -h), tans_eval)
            return (plus - minus) / (2 * h)

        bracket = tuple(lp.bracket(x, y) for x, y in zip(tx, ty))
        d_alpha_1 = 0.5 * (
            directional(tx, ty) - directional(ty, tx) - alpha_uncorrected(pts, bracket)
        )
        rhs = ce.simplicial_delta_eval(ce._r_eval, pts, tx, ty)
        assert abs(d_alpha_1 - rhs) > 1e-4

    def test_delta_alpha_zero_lg(self):
        worst = 0.0
        for _ in range(5):
            pts, tans = lg_point_tangent(3)
            worst = max(worst, ce.verify_delta_alpha_zero(pts, tans))
        assert worst < 1e-6

    def test_delta_alpha_zero_semidirect(self):
        worst = 0.0
        for _ in range(5):
            pts, tans = sd_point_tangent(3)
            worst = max(worst, ce.verify_delta_alpha_zero(pts, tans))
        assert worst < 1e-6

    def test_delta_alpha_zero_constant_loops(self):
        pts = tuple(
            np.broadcast_to(sampling.random_group(RNG, 2), (N, 2, 2)).copy()
            for _ in range(3)
        )
        tans = tuple(
            np.broadcast_to(sampling.random_algebra(RNG, 2), (N, 2, 2)).copy()
            for _ in range(3)
        )
        assert ce.verify_delta_alpha_zero(pts, tans) < 1e-9


class TestEpsilon:
    def test_constant_tau_vanishes(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        gloop = sampling.bandlimited_group_loop(RNG, N, 2)
        val = ce.epsilon_form(c, lambda p: gloop, np.zeros(2), np.array([1.0, 0.5]))
        # constant-in-theta tau would vanish; a loop tau with Z != 0 does not
        const = np.broadcast_to(sampling.random_group(RNG, 2), (N, 2, 2)).copy()
        val0 = ce.epsilon_form(c, lambda p: const, np.zeros(2), np.array([1.0, 0.5]))
        assert abs(val0) < 1e-12
        assert abs(val) > 1e-12

    def test_zero_connection_vanishes(self):
        zero = np.zeros((N, 2, 2), dtype=complex)
        c = cn.LGConnectionData(
            zero_form(2, 1, zero), lambda p: zero, 2, N, 2
        )
        tau = sampling.random_gauge_loop(RNG, 2, N, 2)
        val = ce.epsilon_form(c, tau, np.zeros(2), np.array([0.3, -1.0]))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_delta_epsilon_lg(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        tau12 = sampling.random_gauge_loop(RNG, 2, N, 2)
        tau23 = sampling.random_gauge_loop(RNG, 2, N, 2)
        point = 0.3 * RNG.standard_normal(2)
        X = RNG.standard_normal(2)
        assert ce.delta_epsilon_vs_tau_alpha(c, tau12, tau23, point, X) < 1e-5

    def test_delta_epsilon_semidirect(self):
        c = sampling.random_lgxs1_connection(RNG, 2, N, 2)
        tau12 = sampling.random_semidirect_gauge(RNG, 2, N, 2)
        tau23 = sampling.random_semidirect_gauge(RNG, 2, N, 2)
        point = 0.3 * RNG.standard_normal(2)
        X = RNG.standard_normal(2)
        assert ce.delta_epsilon_vs_tau_alpha(c, tau12, tau23, point, X) < 1e-5


class TestCurvings:
    def test_splitting_curving_matches_direct(self):
        c = sampling.random_lgxs1_connection(RNG, 3, N, 2)
        direct = ce.curving_direct(c)
        via_splitting = ce.splitting_curving(c)
        diff = fc.form_sum([direct, via_splitting], [1.0, -1.0])
        pts = [0.3 * RNG.standard_normal(3) for _ in range(4)]
        assert fc.max_coeff(diff, pts) < 1e-6

    def test_flat_theta_independent_vanishes(self):
        # Phi = 0 and A constant in theta: dA/dtheta = 0, so B = 0
        zero = np.zeros((N, 2, 2), dtype=complex)
        consts = [sampling.random_algebra(RNG, 2) for _ in range(2)]
        polys = [sampling.random_poly(RNG, 2) for _ in range(2)]

        def A_coeff(p, idx):
            (i,) = idx
            return np.broadcast_to(polys[i](p) * consts[i], (N, 2, 2)).copy()

        c = cn.LGConnectionData(
            fc.FormField(1, 2, A_coeff), lambda p: zero, 2, N, 2
        )
        B = ce.curving_direct(c)
        assert fc.max_coeff(B, [0.3 * RNG.standard_normal(2)]) < 1e-13

    def test_flat_phi_zero_keeps_omega_term(self):
        zero = np.zeros((N, 2, 2), dtype=complex)
        A = sampling.random_loop_one_form(RNG, 2, N, 2)
        c = cn.LGxS1ConnectionData(
            A, fc.FormField(1, 2, lambda p, idx: 0.0), lambda p: zero, 2, N, 2
        )
        B = ce.curving_direct(c)
        via_splitting = ce.splitting_curving(c)
        p = 0.2 * RNG.standard_normal(2)
        got = B.coeff(p, (0, 1))
        # only the (1/4 pi) Int <A, dA> term survives
        AdA = fc.wedge_pair(A, cn.partial_theta(A))
        want = float(lp.circle_integral(np.asarray(AdA.coeff(p, (0, 1))))) / (
            4 * np.pi
        )
        assert got == pytest.approx(want, abs=1e-12)
        assert via_splitting.coeff(p, (0, 1)) == pytest.approx(want, abs=1e-12)

    def test_reduced_splitting_transformation(self):
        worst = 0.0
        for _ in range(10):
            phi = sampling.bandlimited_algebra_loop(RNG, N, 2)
            g = lp.SemiDirectGroupElement(
                sampling.bandlimited_group_loop(RNG, N, 2),
                RNG.uniform(0, 2 * np.pi),
            )
            a = lp.SemiDirectAlgebraElement(
                sampling.bandlimited_algebra_loop(RNG, N, 2),
                float(RNG.standard_normal()),
            )
            worst = max(worst, ce.reduced_splitting_transformation_residual(phi, g, a))
        assert worst < 1e-6

    def test_lg_curving_reduction(self):
        base = sampling.random_lg_connection(RNG, 3, N, 2)
        ext = cn.LGxS1ConnectionData(
            base.A, fc.FormField(1, 3, lambda p, idx: 0.0), base.phi, 3, N, 2
        )
        p = 0.3 * RNG.standard_normal(3)
        assert ce.curving_direct(ext).coeff(p, (0, 1)) == pytest.approx(
            ce.curving_direct(base).coeff(p, (0, 1)), abs=1e-12
        )


class TestDescent:
    def test_lg_flat_zero(self):
        zero = np.zeros((N, 2, 2), dtype=complex)
        c = cn.LGConnectionData(zero_form(3, 1, zero), lambda p: zero, 3, N, 2)
        assert ce.three_curvature_descent_check(c, [np.zeros(3)]) < 1e-12

    def test_lg_random(self):
        c = sampling.random_lg_connection(RNG, 3, N, 2)
        pts = [0.3 * RNG.standard_normal(3) for _ in range(2)]
        sigma = sampling.random_gauge_loop(RNG, 3, N, 2)
        assert ce.three_curvature_descent_check(c, pts, sigma=sigma) < 1e-4

    def test_lgxs1_random(self):
        c = sampling.random_lgxs1_connection(RNG, 3, N, 2)
        pts = [0.3 * RNG.standard_normal(3) for _ in range(2)]
        sigma = sampling.random_semidirect_gauge(RNG, 3, N, 2)
        assert ce.three_curvature_descent_check(c, pts, sigma=sigma) < 1e-4


class TestStep:
    # checks of the centralext suite that take central differences
    FD_CHECKS = [
        "centralext.dalpha_matches_deltaR.lg",
        "centralext.dalpha_matches_deltaR.lgxs1",
        "centralext.delta_epsilon.lg",
        "centralext.delta_epsilon.lgxs1",
        "centralext.descent.lg",
        "centralext.descent.lgxs1",
        "centralext.splitting_curving_matches_direct",
    ]

    def test_step_reaches_every_stencil(self):
        from loopforms import report as rp

        residuals = {}
        for h in (1e-4, 1e-3):
            rep = rp.run_suite(rp.RunConfig(suite="centralext", samples=16, fd_step=h))
            residuals[h] = {c.name: c.residual for c in rep.checks}
        for name, r in residuals[1e-4].items():
            moved = r != residuals[1e-3][name]
            assert moved == (name in self.FD_CHECKS), name


class TestExactPush:
    # with exact pushes these identities sit at round-off (at most 6.7e-16
    # over seeds 20090622, 1, 7 and 42); pushed by central differences
    # they read 3.7e-14 to 2.8e-8 at the same seeds
    @pytest.mark.parametrize(
        "name",
        [
            "centralext.delta_alpha_zero.lg",
            "centralext.delta_alpha_zero.lgxs1",
            "centralext.delta_squared_zero",
        ],
    )
    def test_roundoff_at_default_seed(self, name):
        from loopforms import report as rp

        ((_, suite, _, _, fn),) = [e for e in rp.checks_for("all") if e[0] == name]
        cfg = rp.RunConfig(suite=suite)
        assert fn(cfg, rp.sampling.rng_for(cfg.seed, name)) <= 1e-14


def _textbook_face(i, points):
    """Face i of the group nerve written out: drop first, multiply the
    pair (i-1, i), drop last."""
    m = len(points)
    if i == 0:
        return points[1:]
    if i == m:
        return points[:-1]
    merged = lp.multiply(points[i - 1], points[i])
    return points[: i - 1] + (merged,) + points[i + 1 :]


def _flow_all(points, tangents, t):
    """Every slot moved along its exponential curve to time t."""
    return tuple(ce._flow(p, tan, t) for p, tan in zip(points, tangents))


def _push_all_slots(i, points, tangents, h):
    """Reference push: flow every slot (zero tangents on all but one) for
    every slot, difference every output component, sum over slots."""

    def zero(t):
        if isinstance(t, lp.SemiDirectAlgebraElement):
            return lp.SemiDirectAlgebraElement(np.zeros_like(t.loop_part), 0.0)
        return np.zeros_like(t)

    base = _textbook_face(i, points)
    total = None
    for s in range(len(points)):
        tan = tuple(t if j == s else zero(t) for j, t in enumerate(tangents))
        plus = _textbook_face(i, _flow_all(points, tan, h))
        minus = _textbook_face(i, _flow_all(points, tan, -h))
        delta = tuple(
            lp.left_translate(b, lp.central(p, q, h)) for b, p, q in zip(base, plus, minus)
        )
        total = delta if total is None else tuple(x + y for x, y in zip(total, delta))
    return base, total


def _textbook_push(i, points, tangents):
    """Push through face i written out: the merged pair (i-1, i) takes
    Ad(g_i^{-1}) xi_{i-1} + xi_i, every other component its own tangent."""
    m = len(points)
    if i == 0:
        return tangents[1:]
    if i == m:
        return tangents[:-1]
    merged = lp.adjoint_inverse(points[i], tangents[i - 1]) + tangents[i]
    return tangents[: i - 1] + (merged,) + tangents[i + 1 :]


def _gap(xs, ys):
    """Largest entry of the difference of two tuples of algebra values."""
    def parts(x):
        if isinstance(x, lp.SemiDirectAlgebraElement):
            return [x.loop_part, np.array(x.circle_part)]
        return [x]

    return max(
        float(np.max(np.abs(a - b)))
        for x, y in zip(xs, ys)
        for a, b in zip(parts(x), parts(y))
    )


def _same(x, y):
    if isinstance(x, lp.SemiDirectGroupElement):
        return np.array_equal(x.loop_part, y.loop_part) and x.angle == y.angle
    if isinstance(x, lp.SemiDirectAlgebraElement):
        return np.array_equal(x.loop_part, y.loop_part) and x.circle_part == y.circle_part
    return np.array_equal(x, y)


@pytest.mark.parametrize("draw", [lg_point_tangent, sd_point_tangent], ids=["lg", "lgxs1"])
class TestFacePush:
    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_reach_table_matches_brute_force(self, draw, length):
        pts, tans = draw(length)
        faces = ce.nerve_faces(length)
        assert len(faces) == length + 1
        for i, reach in enumerate(faces):
            base = _textbook_face(i, pts)
            assert all(_same(a, b) for a, b in zip(ce.face_map(reach, pts), base))
            for s in range(length):
                moved = list(pts)
                moved[s] = ce._flow(pts[s], tans[s], 0.1)
                out = _textbook_face(i, tuple(moved))
                changed = {c for c, (a, b) in enumerate(zip(out, base)) if not _same(a, b)}
                assert changed == {c for c, slots in enumerate(reach) if s in slots}

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_push_equals_all_slots_push_bitwise(self, draw, length):
        # bitwise: the exact push against the textbook face's exact push.
        # Against the brute-force difference of every slot the gap is the
        # difference's c h^2 truncation, a quarter when h halves; c reaches
        # about 8 on LG x| S1 merge faces (the flows rotate the later slots)
        pts, tans = draw(length)
        for i, reach in enumerate(ce.nerve_faces(length)):
            got = ce._push_tangents(reach, pts, tans)
            assert all(_same(a, b) for a, b in zip(got, _textbook_push(i, pts, tans)))
            gap = {h: _gap(got, _push_all_slots(i, pts, tans, h)[1]) for h in (1e-3, 5e-4, 1e-4)}
            assert gap[1e-4] <= 1e-6
            assert 3.9 <= gap[1e-3] / gap[5e-4] <= 4.1

    def test_no_flows(self, draw, monkeypatch):
        # the pushes are exact: no exponential curve is taken
        calls = []
        exp_loop = lp.exp_loop

        def counted(xi):
            calls.append(xi)
            return exp_loop(xi)

        pts, tans = draw(3)
        pair, tx = draw(2)
        _, ty = draw(2)
        monkeypatch.setattr(lp, "exp_loop", counted)
        ce.simplicial_delta_eval(ce.alpha_form, pts, tans)
        ce.simplicial_delta_eval(ce._r_eval, pair, tx, ty)
        assert calls == []
