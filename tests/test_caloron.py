from dataclasses import replace

import numpy as np
import pytest

from loopforms import caloron, connections as cn, formscalc as fc, loopspace as lp
from loopforms import report as rp, sampling
from loopforms.liecore import pontrjagyn_polynomial

from helpers import zero_form

RNG = np.random.default_rng(37)
N = 32


def _flat_connection(dim, n=2):
    zero = np.zeros((N, n, n), dtype=complex)
    return cn.LGConnectionData(
        zero_form(dim, 1, zero), lambda p: zero, dim, N, n
    )


class TestAssembly:
    def test_maurer_cartan_flat(self):
        # A = 0, Phi = 0: the assembled field is Theta alone, curvature ~ 0
        c = _flat_connection(2)
        resid = caloron.g_curvature_transport_check(c, [np.zeros(2)])
        assert resid < 1e-6

    def test_theta_readout_is_higgs(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        cg = caloron.to_g_connection(c)
        x = 0.3 * RNG.standard_normal(2)
        xu = np.concatenate([x, np.zeros(cg.dim - 2)])
        assert np.max(np.abs(cg.phi(xu) - c.phi(x))) < 1e-14

    def test_base_readout_is_connection(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        cg = caloron.to_g_connection(c)
        x = 0.3 * RNG.standard_normal(2)
        xu = np.concatenate([x, np.zeros(cg.dim - 2)])
        for i in range(2):
            assert np.max(np.abs(cg.A.coeff(xu, (i,)) - c.A.coeff(x, (i,)))) < 1e-14

    def test_twisted_base_readout_couples_a(self):
        c = sampling.random_lgxs1_connection(RNG, 2, N, 2)
        cg = caloron.to_g_connection(c)
        x = 0.3 * RNG.standard_normal(2)
        xu = np.concatenate([x, np.zeros(cg.dim - 2)])
        phi = c.phi(x)
        for i in range(2):
            want = c.A.coeff(x, (i,)) + float(c.a.coeff(x, (i,))) * phi
            assert np.max(np.abs(cg.A.coeff(xu, (i,)) - want)) < 1e-14

    def test_twisted_theta_readout(self):
        c = sampling.random_lgxs1_connection(RNG, 2, N, 2)
        cg = caloron.to_g_connection(c)
        x = 0.3 * RNG.standard_normal(2)
        xu = np.concatenate([x, np.zeros(cg.dim - 2)])
        assert np.max(np.abs(cg.phi(xu) - c.phi(x))) < 1e-14

    def test_twisted_reduces_when_a_zero(self):
        base = sampling.random_lg_connection(RNG, 2, N, 2)
        ext = cn.LGxS1ConnectionData(
            base.A, fc.FormField(1, 2, lambda p, idx: 0.0), base.phi, 2, N, 2
        )
        f1 = caloron.to_g_connection(base)
        f2 = caloron.to_g_connection(ext)
        x = 0.3 * RNG.standard_normal(2)
        u = 0.2 * RNG.standard_normal(f1.dim - 2)
        xu = np.concatenate([x, u])
        for i in range(f1.dim):
            assert np.max(np.abs(f1.A.coeff(xu, (i,)) - f2.A.coeff(xu, (i,)))) < 1e-13
        assert np.max(np.abs(f1.phi(xu) - f2.phi(xu))) < 1e-13

    def test_ad_inverse_matches_lapack_inverse(self):
        g = sampling.random_group(RNG, 3)
        loops = sampling.bandlimited_algebra_loop(RNG, N, 3)
        want = np.linalg.inv(g) @ loops @ g
        assert np.max(np.abs(lp.adjoint_inverse(g, loops) - want)) < 1e-14


class TestTransport:
    def test_random_data(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        pts = [0.3 * RNG.standard_normal(2) for _ in range(2)]
        assert caloron.g_curvature_transport_check(c, pts) < 1e-4

    def test_step_refinement_quadratic(self):
        # probed at steps where truncation dominates round-off; at the
        # default 1e-4 step the residual sits at ~1e-10 already
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        pts = [0.3 * RNG.standard_normal(2)]
        chart1 = caloron.ExtendedChart(2, N, 2, fd_step=2e-2)
        chart2 = caloron.ExtendedChart(2, N, 2, fd_step=1e-2)
        r1 = caloron.g_curvature_transport_check(c, pts, chart=chart1)
        r2 = caloron.g_curvature_transport_check(c, pts, chart=chart2)
        assert r2 < 0.5 * r1
        assert r2 > 0.1 * r1  # genuinely second order, not super-convergent

    def test_moved_base_point(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        g0 = sampling.random_group(RNG, 2, 0.8)
        chart = caloron.ExtendedChart(2, N, 2, g0=g0)
        u = 0.2 * RNG.standard_normal(chart.group_dim)
        pts = [0.3 * RNG.standard_normal(2)]
        assert caloron.g_curvature_transport_check(c, pts, chart=chart, u=u) < 1e-4

    def test_default_chart_takes_data_step(self):
        c = replace(sampling.random_lgxs1_connection(RNG, 2, N, 2), fd_step=1e-3)
        pts = [0.3 * RNG.standard_normal(2)]
        chart = caloron.ExtendedChart(2, N, 2, fd_step=1e-3)
        assert caloron.g_curvature_transport_check(c, pts) == (
            caloron.g_curvature_transport_check(c, pts, chart=chart)
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_group_point_computed_once(self, n, monkeypatch):
        # the chart's group map keeps the 1 + 2m^2 points of the nested
        # stencil (m = group_dim), for every base point of the check: F
        # differentiates the Maurer-Cartan component Theta_b only along a != b,
        # so the points u +- 2 e_a are never asked
        inputs = []
        exp_loop = lp.exp_loop
        monkeypatch.setattr(lp, "exp_loop", lambda xi: inputs.append(xi.tobytes()) or exp_loop(xi))
        c = sampling.random_lg_connection(RNG, 2, N, n)
        chart = caloron.ExtendedChart(2, N, n)
        pts = [0.3 * RNG.standard_normal(2) for _ in range(2)]
        assert caloron.g_curvature_transport_check(c, pts, chart=chart) < 1e-4
        m = chart.group_dim
        assert len(inputs) == len(set(inputs)) == 1 + 2 * m * m

    def test_twisted_random_data(self):
        c = sampling.random_lgxs1_connection(RNG, 2, N, 2)
        pts = [0.3 * RNG.standard_normal(2) for _ in range(2)]
        assert caloron.g_curvature_transport_check(c, pts) < 1e-4

    def test_twisted_reduces_to_untwisted(self):
        base = sampling.random_lg_connection(RNG, 2, N, 2)
        ext = cn.LGxS1ConnectionData(
            base.A, fc.FormField(1, 2, lambda p, idx: 0.0), base.phi, 2, N, 2
        )
        pts = [0.3 * RNG.standard_normal(2)]
        r1 = caloron.g_curvature_transport_check(base, pts)
        r2 = caloron.g_curvature_transport_check(ext, pts)
        assert abs(r1 - r2) < 1e-10

    def test_twisted_term_isolation(self):
        # A = 0 and constant Phi isolates the f Phi and dPhi terms
        dim = 2
        zero = np.zeros((N, 2, 2), dtype=complex)
        phi_const = sampling.random_algebra(RNG, 2, 0.7)
        a = sampling.random_real_one_form(RNG, dim)
        c = cn.LGxS1ConnectionData(
            zero_form(dim, 1, zero),
            a,
            lambda p: np.broadcast_to(phi_const, (N, 2, 2)).copy(),
            dim, N, 2,
        )
        pts = [0.3 * RNG.standard_normal(dim)]
        assert caloron.g_curvature_transport_check(c, pts) < 1e-4


class TestRoundTrip:
    def test_roundtrip_is_identity(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        chart = caloron.ExtendedChart(2, N, 2)
        back = caloron.from_g_connection(caloron.to_g_connection(c, chart), chart)
        p = 0.3 * RNG.standard_normal(2)
        for i in range(2):
            assert np.max(np.abs(back.A.coeff(p, (i,)) - c.A.coeff(p, (i,)))) < 1e-10
        assert np.max(np.abs(back.phi(p) - c.phi(p))) < 1e-10

    def test_roundtrip_off_identity_base_point(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        g0 = sampling.random_group(RNG, 2, 0.5)
        chart = caloron.ExtendedChart(2, N, 2, g0=g0)
        back = caloron.from_g_connection(caloron.to_g_connection(c, chart), chart)
        p = 0.3 * RNG.standard_normal(2)
        for i in range(2):
            assert np.max(np.abs(back.A.coeff(p, (i,)) - c.A.coeff(p, (i,)))) < 1e-8
        assert np.max(np.abs(back.phi(p) - c.phi(p))) < 1e-8

    def test_reads_the_section_once_per_point(self):
        c = sampling.random_lg_connection(RNG, 2, N, 2)
        chart = caloron.ExtendedChart(2, N, 2)
        cg = caloron.to_g_connection(c, chart)
        calls = []
        counted = cn.LGConnectionData(
            fc.FormField(1, cg.dim, lambda xu, idx: calls.append(idx) or cg.A.coeff(xu, idx)),
            lambda xu: calls.append(()) or cg.phi(xu),
            cg.dim, N, 2,
        )
        back = caloron.from_g_connection(counted, chart)
        p = 0.3 * RNG.standard_normal(2)
        xu = np.concatenate([p, chart.identity_coordinates()])
        for _ in range(2):
            for i in range(2):
                assert back.A.coeff(p, (i,)).tobytes() == cg.A.coeff(xu, (i,)).tobytes()
            assert back.phi(p).tobytes() == cg.phi(xu).tobytes()
        assert calls == [(0,), (1,), ()]

    def test_check_fails_a_scaled_logarithm(self, monkeypatch):
        # caloron.roundtrip runs at a random g0, where the identity
        # coordinates log(g0^{-1}) are not 0: a relative error of 1e-6 in the
        # logarithm moves g(u*) off the identity
        log = caloron.logarithm
        monkeypatch.setattr(caloron, "logarithm", lambda g: (1 + 1e-6) * log(g))
        rep = rp.run_suite(rp.RunConfig(suite="caloron"))
        (record,) = [r for r in rep.checks if r.name == "caloron.roundtrip"]
        assert record.status == "FAIL"

    def test_pure_maurer_cartan_reads_zero(self):
        c = _flat_connection(2)
        chart = caloron.ExtendedChart(2, N, 2)
        back = caloron.from_g_connection(caloron.to_g_connection(c, chart), chart)
        p = np.zeros(2)
        assert np.max(np.abs(back.A.coeff(p, (0,)))) < 1e-14
        assert np.max(np.abs(back.phi(p))) < 1e-14

    def test_pure_dtheta_term_reads_higgs(self):
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2)
        chart = caloron.ExtendedChart(2, N, 2)
        dim = 2 + chart.group_dim
        cg = cn.LGConnectionData(
            zero_form(dim, 1, np.zeros((N, 2, 2), dtype=complex)), lambda xu: xi, dim, N, 2
        )
        back = caloron.from_g_connection(cg, chart)
        assert np.max(np.abs(back.phi(np.zeros(2)) - xi)) < 1e-14


def _p1_routes(c):
    """Int_S1 p1(cyl, cyl) of the string cylinder, and the string form at p1."""
    f = pontrjagyn_polynomial()
    cyl = cn.string_cylinder(c)
    return fc.fiber_integrate_poly_wedge([cyl, cyl], f), cn.higher_string_form(f, c)


class TestPontrjagyn:
    def test_flat_is_zero(self):
        c = _flat_connection(3)
        form, _ = _p1_routes(c)
        assert fc.max_coeff(form, [np.zeros(3)]) < 1e-15

    def test_matches_string_form(self):
        c = sampling.random_lg_connection(RNG, 3, N, 2)
        p1, s = _p1_routes(c)
        diff = fc.form_sum([p1, s], [1.0, -1.0])
        assert fc.max_coeff(diff, [0.3 * RNG.standard_normal(3)]) < 1e-4

    def test_scaling_bilinearity(self):
        # doubling the pairing normalization doubles both routes identically
        c = sampling.random_lg_connection(RNG, 3, N, 2)
        p1, s = _p1_routes(c)
        p = 0.3 * RNG.standard_normal(3)
        idx = (0, 1, 2)
        assert 2 * p1.coeff(p, idx) == pytest.approx(
            2 * s.coeff(p, idx), abs=2e-4
        )

    def test_twisted_matches_string_form(self):
        c = sampling.random_lgxs1_connection(RNG, 3, N, 2)
        p1, s = _p1_routes(c)
        diff = fc.form_sum([p1, s], [1.0, -1.0])
        assert fc.max_coeff(diff, [0.3 * RNG.standard_normal(3)]) < 1e-4

    def test_twisted_reduces_when_a_zero(self):
        base = sampling.random_lg_connection(RNG, 3, N, 2)
        ext = cn.LGxS1ConnectionData(
            base.A, fc.FormField(1, 3, lambda p, idx: 0.0), base.phi, 3, N, 2
        )
        f1, _ = _p1_routes(base)
        f2, _ = _p1_routes(ext)
        diff = fc.form_sum([f1, f2], [1.0, -1.0])
        assert fc.max_coeff(diff, [0.3 * RNG.standard_normal(3)]) < 1e-12


class TestLoopBundleSlice:
    def test_theta_independent_specialization(self):
        dim = 3
        consts = [sampling.random_algebra(RNG, 2, 0.6) for _ in range(dim)]
        polys = [sampling.random_poly(RNG, dim) for _ in range(dim)]

        def A_coeff(p, idx):
            (i,) = idx
            return np.broadcast_to(polys[i](p) * consts[i], (N, 2, 2)).copy()

        phi_const = sampling.random_algebra(RNG, 2, 0.5)
        c = cn.LGConnectionData(
            fc.FormField(1, dim, A_coeff),
            lambda p: np.broadcast_to(phi_const, (N, 2, 2)).copy(),
            dim, N, 2,
        )
        pts = [0.3 * RNG.standard_normal(dim)]
        assert caloron.g_curvature_transport_check(c, pts) < 1e-5
        p1, s = _p1_routes(c)
        diff = fc.form_sum([p1, s], [1.0, -1.0])
        assert fc.max_coeff(diff, pts) < 1e-5
