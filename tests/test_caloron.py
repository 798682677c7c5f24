from dataclasses import replace
from itertools import combinations

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
    @pytest.mark.parametrize("connection", [sampling.random_lg_connection,
                                            sampling.random_lgxs1_connection],
                             ids=["lg", "twisted"])
    def test_components_read_the_base_cylinder(self, connection):
        # the reader of the G-curvature reads base data too: beta on pairs,
        # gamma on singles, the transport check's target before Ad(g^{-1})
        rng = np.random.default_rng(333)
        c = connection(rng, 3, N, 2)
        x = 0.3 * rng.standard_normal(3)
        comps = caloron.g_curvature_components(c, x)
        pairs, singles = list(combinations(range(3), 2)), [(i,) for i in range(3)]
        assert sorted(comps) == sorted(pairs + singles)
        for idx in pairs:
            assert comps[idx].tobytes() == c.cylinder.beta.coeff(x, idx).tobytes()
        for idx in singles:
            assert comps[idx].tobytes() == c.cylinder.gamma.coeff(x, idx).tobytes()

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

    def test_one_g_connection_per_check(self, monkeypatch):
        built = []
        to_g = caloron.to_g_connection
        monkeypatch.setattr(caloron, "to_g_connection", lambda *a: built.append(1) or to_g(*a))
        rng = np.random.default_rng(8)
        c = sampling.random_lg_connection(rng, 2, N, 2)
        pts = [0.3 * rng.standard_normal(2) for _ in range(2)]
        assert caloron.g_curvature_transport_check(c, pts) < 1e-4
        assert len(built) == 1

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
    """Int_S1 p1(cyl, cyl) of the curvature cylinder, and the string form at p1."""
    f = pontrjagyn_polynomial()
    cyl = c.cylinder
    return fc.fiber_integrate_poly_wedge([cyl, cyl], f), cn.higher_string_form(f, c)


def _g_route_minus_string_form(c, chart, u):
    """p1 of the G-connection's cylinder, integrated over the circle and
    read off the section at u, minus the string form of the base data."""
    f = pontrjagyn_polynomial()
    cyl = caloron.to_g_connection(c, chart).cylinder
    p1 = caloron.on_section(fc.fiber_integrate_poly_wedge([cyl, cyl], f), chart, u)
    return fc.form_sum([p1, cn.higher_string_form(f, c)], [1.0, -1.0])


class TestPontrjagyn:
    def test_flat_is_zero(self):
        c = _flat_connection(3)
        form, _ = _p1_routes(c)
        assert fc.max_coeff(form, [np.zeros(3)]) < 1e-15

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


class TestOnSection:
    def test_base_components_bit_for_bit(self):
        rng = np.random.default_rng(331)
        c = sampling.random_lgxs1_connection(rng, 2, N, 2)
        chart = caloron.ExtendedChart(2, N, 2, g0=sampling.random_group(rng, 2, 0.5))
        cg = caloron.to_g_connection(c, chart)
        u = 0.3 * rng.standard_normal(chart.group_dim)
        x = 0.3 * rng.standard_normal(2)
        xu = np.concatenate([x, u])
        A, phi = caloron.on_section(cg.A, chart, u), caloron.on_section(cg.phi, chart, u)
        assert (A.degree, A.dim, phi.degree, phi.dim) == (1, 2, 0, 2)
        for i in range(2):
            assert A.coeff(x, (i,)).tobytes() == cg.A.coeff(xu, (i,)).tobytes()
        assert phi(x).tobytes() == cg.phi(xu).tobytes()

    def test_one_minor_per_component(self, monkeypatch):
        # a 3-form on 3 + 15 coordinates (n = 4): the section's Jacobian has
        # one nonzero 3-minor, and the C(18, 3) others are never formed
        chart = caloron.ExtendedChart(3, N, 4)
        dim = 3 + chart.group_dim
        form = fc.FormField(3, dim, lambda p, idx: float(sum(idx)))
        minor = fc._minor
        calls = []
        monkeypatch.setattr(fc, "_minor", lambda m: calls.append(1) or minor(m))
        s = caloron.on_section(form, chart, np.zeros(chart.group_dim))
        assert s.coeff(np.zeros(3), (0, 1, 2)) == 3.0
        assert len(calls) == 1


class TestCaloronPontrjagyn:
    @pytest.mark.parametrize("connection", [sampling.random_lg_connection,
                                            sampling.random_lgxs1_connection],
                             ids=["lg", "twisted"])
    def test_g_connection_route_matches_string_form(self, connection):
        # p1 of the G-connection over the (circle-extended) chart, integrated
        # over the circle and read off a section at a generic group point
        rng = np.random.default_rng(332)
        c = connection(rng, 3, N, 2)
        chart = caloron.ExtendedChart(3, N, 2, g0=sampling.random_group(rng, 2, 0.5))
        u = 0.3 * rng.standard_normal(chart.group_dim)
        diff = _g_route_minus_string_form(c, chart, u)
        assert fc.max_coeff(diff, [0.3 * rng.standard_normal(3)]) < 1e-8

    @staticmethod
    def _assembly_minus_a_phi(monkeypatch):
        to_g = caloron.to_g_connection

        def mutant(c, chart=None):
            if isinstance(c, cn.LGxS1ConnectionData):
                c = replace(c, a=fc.form_sum([c.a], [-1.0]))
            return to_g(c, chart)

        monkeypatch.setattr(caloron, "to_g_connection", mutant)

    @staticmethod
    def _f_tilde_drops_f_phi(monkeypatch):
        monkeypatch.setattr(cn._ConnectionChart, "F_tilde", property(lambda self: self.F))

    NAMES = ("caloron.pontrjagyn_matches_string", "caloron.pontrjagyn_matches_string_twisted")

    @pytest.mark.parametrize("plant", ["_assembly_minus_a_phi", "_f_tilde_drops_f_phi"])
    def test_twisted_check_fails_a_twisted_mutant(self, plant, monkeypatch):
        # G-connection Ad(g^{-1})(A - a Phi) + ..., or F~ = F on LG x| S1
        # data: only the twisted twin reads the twist
        getattr(self, plant)(monkeypatch)
        checks = [c for c in rp.checks_for("caloron") if c.name in self.NAMES]
        monkeypatch.setattr(rp, "_REGISTRY", checks)
        report = rp.run_suite(rp.RunConfig(suite="caloron"))
        assert {c.name: c.status for c in report.checks} == dict(zip(self.NAMES, ("pass", "FAIL")))


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
        # the string class through the caloron G-connection, at a generic u
        chart = caloron.ExtendedChart(dim, N, 2)
        u = 0.3 * RNG.standard_normal(chart.group_dim)
        assert fc.max_coeff(_g_route_minus_string_form(c, chart, u), pts) < 1e-8
