"""Seeded verification suites with machine-readable reports.

Every check draws its data from a generator seeded by (run seed,
crc32(check name)), so results are reproducible per check regardless of
which suite ran or in what order.  Residuals are compared against fixed
tolerances; the report serializes to json, csv, or an aligned text table.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from collections import namedtuple
from dataclasses import asdict, astuple, dataclass, field
from functools import partial
from math import isfinite, pi
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from . import caloron, centralext, connections, formscalc as fc, liecore, loopspace as lp
from . import pathfib, sampling

_log = logging.getLogger(__name__)

DEFAULT_SEED = 20090622
# Largest set of live complex loop samples a run may hold, in bytes; larger
# sizes are refused before anything runs instead of failing inside numpy.
MEMORY_BUDGET_BYTES = 2 ** 30
# Most complex (n, n) loops of its own n that a chart check (every suite but
# pathfib) holds at once.  tracemalloc peaks over what a `suite all` run held
# before the check, at 512 samples: string.independence 511, string.closed.k3
# (always n = 3) 452; at 256 samples 542 and 455.  Rounded up by a tenth, which
# also covers a check run alone with its first-call caches (533 at n = 3).
CHART_PEAK_LOOPS = 600
# Most complex (n, n) loops of the run's n that a lie or loops check holds at
# once: tracemalloc peaks of at most 13.2 (loops.semidirect.adjoint_homomorphism)
# at n = 2, 3 and 4 and 64 to 16384 samples, rounded up by a tenth.
LOOP_CHECK_PEAK_LOOPS = 15


class ConfigError(ValueError):
    """Invalid run configuration; nothing was executed."""


def _finite_real(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool) and isfinite(x)


@dataclass(frozen=True)
class RunConfig:
    n: int = 2
    samples: int = 64
    pathfib_samples: int = 256
    fd_step: float = 1e-4
    seed: int = DEFAULT_SEED
    suite: str = "all"
    tolerance_overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        for name in ("n", "samples", "pathfib_samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not _finite_real(self.fd_step):
            raise ConfigError(f"fd_step must be a finite number, got {self.fd_step!r}")
        if not isinstance(self.tolerance_overrides, dict):
            raise ConfigError(
                f"tolerance_overrides must map check names to tolerances, "
                f"got {self.tolerance_overrides!r}"
            )
        bad = {k: v for k, v in self.tolerance_overrides.items()
               if not (_finite_real(v) and v >= 0)}
        if bad:
            raise ConfigError(f"tolerance overrides must be finite and >= 0: {bad}")
        if self.samples < 4 or self.samples % 2 != 0:
            raise ConfigError(f"samples must be even and >= 4, got {self.samples}")
        if self.pathfib_samples < 4 or self.pathfib_samples % 2 != 0:
            raise ConfigError(
                f"pathfib_samples must be even and >= 4, got {self.pathfib_samples}"
            )
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.fd_step <= 0:
            raise ConfigError(f"fd_step must be positive, got {self.fd_step}")
        if self.suite not in SUITES and self.suite != "all":
            raise ConfigError(
                f"unknown suite {self.suite!r}; choose from {sorted(SUITES)} or 'all'"
            )
        unknown = set(self.tolerance_overrides) - {check.name for check in _REGISTRY}
        if unknown:
            raise ConfigError(f"unknown check names in tolerance_overrides: {sorted(unknown)}")
        need = self.peak_loop_bytes()
        if need > MEMORY_BUDGET_BYTES:
            raise ConfigError(
                f"n={self.n}, samples={self.samples}, pathfib_samples={self.pathfib_samples} "
                f"need {need / 2 ** 30:.3g} GiB of loop batches, "
                f"over the {MEMORY_BUDGET_BYTES / 2 ** 30:.3g} GiB budget"
            )

    def peak_loop_bytes(self) -> int:
        """Bytes of the most complex loop values a check of the selected
        suite holds at once; for ``all``, the largest over the suites.

        A chart check (caloron, centralext, forms, string) holds up to
        CHART_PEAK_LOOPS loops of its own n on the suite grid; that n is the
        run's, or 3 for string.closed.k3.  The caloron curvature holds, at
        one point of the extended chart (d = 2 or 3 base + su(n)
        directions), d(d-1)/2 components each of F, dA and (1/2)[A, A], and
        the memos of nabla Phi and of the assembled A and Phi: traced peaks
        of 599-690 loops at n = 4 and 1229-1347 at n = 5, 64 samples, under
        2 D^2 loops with D = n^2 + 3 (722 and 1568), which passes
        CHART_PEAK_LOOPS from n = 4 on.  A lie or loops check holds
        LOOP_CHECK_PEAK_LOOPS.
        The path-fibration holonomy takes MAGNUS_REFINE * max(4
        pathfib_samples, 1024) Magnus steps."""
        D = self.n ** 2 + 3
        chart = max(CHART_PEAK_LOOPS * max(self.n, 3) ** 2, 2 * D ** 2 * self.n ** 2)
        loop_check = LOOP_CHECK_PEAK_LOOPS * self.n ** 2 * self.samples
        loops = {
            "lie": loop_check,
            "loops": loop_check,
            "pathfib": pathfib.MAGNUS_REFINE * max(4 * self.pathfib_samples, 1024) * self.n ** 2,
        }
        suites = SUITES if self.suite == "all" else [self.suite]
        return 16 * max(loops.get(suite, chart * self.samples) for suite in suites)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool
    millis: float
    status: str  # "pass", "FAIL", or "error" when the check raised
    error: str  # the exception's type name for "error", else empty


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    seed: int
    config: dict
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


class Check(NamedTuple):
    """A registered check: ``run(cfg, rng)`` returns its residual."""

    name: str
    suite: str
    anchor: str
    tolerance: float
    run: Callable


_REGISTRY: list[Check] = []


def _check(name: str, suite: str, anchor: str, tolerance: float, **bound):
    """Register ``fn(cfg, rng, **bound)`` as the check ``name``.

    The decorated function is returned unchanged, so twins and families
    stack one ``@_check`` line per name, each with its own ``bound``
    arguments.  Each name seeds its own generator.
    """

    def wrap(fn):
        run = partial(fn, **bound) if bound else fn
        _REGISTRY.append(Check(name, suite, anchor, tolerance, run))
        return fn

    return wrap


def _worst_over(trials: int, trial) -> float:
    """Worst residual of ``trials`` calls of ``trial()``, made in order."""
    return fc._worst([trial() for _ in range(trials)])


# Draw helpers.  Python evaluates call arguments left to right, so each
# draws from the generator in the order its arguments are written.

def _algebra_loop(cfg: RunConfig, rng) -> np.ndarray:
    return sampling.bandlimited_algebra_loop(rng, cfg.samples, cfg.n)


def _group_loop(cfg: RunConfig, rng) -> np.ndarray:
    return sampling.bandlimited_group_loop(rng, cfg.samples, cfg.n)


def _sd_group(cfg: RunConfig, rng) -> lp.SemiDirectGroupElement:
    return lp.SemiDirectGroupElement(_group_loop(cfg, rng), rng.uniform(0, 2 * pi))


def _sd_algebra(cfg: RunConfig, rng) -> lp.SemiDirectAlgebraElement:
    return lp.SemiDirectAlgebraElement(_algebra_loop(cfg, rng), float(rng.standard_normal()))


def _path_xi(cfg: RunConfig, rng, n: int | None = None, scale: float = 0.4) -> np.ndarray:
    """Holonomy generator on the path-fibration grid."""
    return sampling.bandlimited_algebra_loop(
        rng, cfg.pathfib_samples, n or cfg.n, kmax=3, scale=scale
    )


def _point_tangent(cfg: RunConfig, rng, variant, slots: int):
    """``slots`` group points, then ``slots`` tangents, of the variant's group."""
    pts = tuple(variant.point(cfg, rng) for _ in range(slots))
    return pts, tuple(variant.tangent(cfg, rng) for _ in range(slots))


# One side of a twin check, LG or LG x| S1: its random connection data
# (rng, dim, N, n, fd_step=), gauge function (rng, dim, N, n), and group
# point and tangent draws (cfg, rng).
_Variant = namedtuple("_Variant", "connection gauge point tangent")
_LG = _Variant(
    sampling.random_lg_connection,
    sampling.random_gauge_loop,
    _group_loop,
    _algebra_loop,
)
_LGXS1 = _Variant(
    sampling.random_lgxs1_connection,
    sampling.random_semidirect_gauge,
    _sd_group,
    _sd_algebra,
)


# ---------------------------------------------------------------------------
# lie suite
# ---------------------------------------------------------------------------

@_check("lie.bracket.jacobi", "lie", "algebra/jacobi-identity", 1e-13)
def _lie_jacobi(cfg: RunConfig, rng) -> float:
    def trial():
        x, y, z = (sampling.random_algebra(rng, cfg.n) for _ in range(3))
        res = (
            lp.bracket(x, lp.bracket(y, z))
            + lp.bracket(y, lp.bracket(z, x))
            + lp.bracket(z, lp.bracket(x, y))
        )
        return np.max(np.abs(res))

    return _worst_over(50, trial)


@_check("lie.killing.ad_invariance", "lie", "algebra/invariant-form", 1e-10)
def _lie_killing_ad(cfg: RunConfig, rng) -> float:
    def trial():
        g = sampling.random_group(rng, cfg.n)
        x, y = (sampling.random_algebra(rng, cfg.n) for _ in range(2))
        return abs(
            liecore.killing(lp.adjoint(g, x), lp.adjoint(g, y))
            - liecore.killing(x, y)
        )

    return _worst_over(100, trial)


@_check("lie.exponential.unitarity", "lie", "algebra/exponential", 1e-12)
def _lie_exp_unitary(cfg: RunConfig, rng) -> float:
    # n = 3 (the eigh branch) draws last, so the run-n draws keep their values
    residuals = []
    for n in (cfg.n, 3):
        for scale in (0.5, 2.0, 10.0):
            x = sampling.random_algebra(rng, n)
            x *= scale / max(np.linalg.norm(x, 2), 1e-12)
            g = lp.exp_loop(x)
            residuals.append(np.max(np.abs(g @ g.conj().T - np.eye(n))))
            residuals.append(abs(complex(np.linalg.det(g)) - 1.0))
    return fc._worst(residuals)


@_check("lie.invariant_poly.multilinear", "lie", "algebra/symmetrized-trace", 1e-12)
def _lie_poly_multilinear(cfg: RunConfig, rng) -> float:
    f = liecore.InvariantPolynomial(3)

    def trial():
        x, y, z, w = (sampling.random_algebra(rng, 3) for _ in range(4))
        a, b = rng.standard_normal(2)
        lhs = liecore.eval_invariant_polynomial(f, [a * x + b * w, y, z])
        rhs = a * liecore.eval_invariant_polynomial(f, [x, y, z]) + b * (
            liecore.eval_invariant_polynomial(f, [w, y, z])
        )
        return abs(lhs - rhs)

    return _worst_over(20, trial)


@_check("lie.invariant_poly.ad_invariance", "lie", "algebra/symmetrized-trace", 1e-10)
def _lie_poly_ad(cfg: RunConfig, rng) -> float:
    f = liecore.InvariantPolynomial(3)

    def trial():
        g = sampling.random_group(rng, 3)
        args = [sampling.random_algebra(rng, 3) for _ in range(3)]
        moved = [lp.adjoint(g, x) for x in args]
        return abs(
            liecore.eval_invariant_polynomial(f, moved)
            - liecore.eval_invariant_polynomial(f, args)
        )

    return _worst_over(20, trial)


def check_ad_invariance_identity(
    f: liecore.InvariantPolynomial,
    phis,
    degrees,
    a_value: np.ndarray,
    a_degree: int,
) -> float:
    """Residual of the graded expansion of f([phi_1, A], phi_2, ..., phi_k).

    Each supplied value stands in for the coefficient of a single-term
    form of the stated degree.  The forms are materialized on a chart of
    disjoint index blocks so the (-1)^{p q} reordering signs in

        f([phi_1, A], phi_2, ...) = f(phi_1, [A, phi_2], ...)
                                    + (-1)^{p q_2} f(phi_1, phi_2, [A, phi_3], ...) + ...

    are exercised for real, not assumed.
    """
    k = len(phis)
    if k != f.degree:
        raise liecore.ArityError(f"expected {f.degree} form values, got {k}")
    degrees = list(degrees)
    if len(degrees) != k:
        raise liecore.ArityError("one degree per form value required")

    dim = sum(degrees) + a_degree
    blocks: list[tuple[int, ...]] = []
    cursor = 0
    for q in degrees:
        blocks.append(tuple(range(cursor, cursor + q)))
        cursor += q
    a_block = tuple(range(cursor, cursor + a_degree))

    phi_forms = [
        fc.single_term_form(dim, blocks[i], phis[i]) for i in range(k)
    ]
    a_form = fc.single_term_form(dim, a_block, a_value)

    point = np.zeros(dim)
    full = tuple(range(dim))

    lhs_form = fc.poly_wedge([fc.wedge_bracket(phi_forms[0], a_form)] + phi_forms[1:], f)
    lhs = lhs_form.coeff(point, full)

    rhs = 0.0
    p = a_degree
    for j in range(1, k):
        sign = (-1) ** (p * sum(degrees[1:j]))
        slots = list(phi_forms)
        slots[j] = fc.wedge_bracket(a_form, phi_forms[j])
        rhs = rhs + sign * fc.poly_wedge(slots, f).coeff(point, full)
    return float(np.max(np.abs(lhs - rhs)))


@_check("lie.ad_invariance_lemma", "lie", "algebra/graded-expansion", 1e-10)
def _lie_ad_lemma(cfg: RunConfig, rng) -> float:
    f2 = liecore.InvariantPolynomial(2)
    phis = [sampling.random_algebra(rng, 2) for _ in range(2)]
    a = sampling.random_algebra(rng, 2)
    residuals = [check_ad_invariance_identity(f2, phis, (1, 1), a, 1)]
    f3 = liecore.InvariantPolynomial(3)
    for degrees, p in (((1, 2, 2), 1), ((1, 1, 2), 2), ((2, 1, 1), 1)):
        phis = [sampling.random_algebra(rng, 3) for _ in range(3)]
        a = sampling.random_algebra(rng, 3)
        residuals.append(check_ad_invariance_identity(f3, phis, degrees, a, p))
    return fc._worst(residuals)


# ---------------------------------------------------------------------------
# loops suite
# ---------------------------------------------------------------------------

@_check("loops.derivative.integrates_to_zero", "loops", "circle/by-parts", 1e-12)
def _loops_deriv_zero(cfg: RunConfig, rng) -> float:
    def trial():
        val = lp.circle_integral(lp.loop_derivative(_algebra_loop(cfg, rng)))
        return np.max(np.abs(val))

    return _worst_over(10, trial)


@_check("loops.rotate.action", "loops", "circle/rotation-action", 1e-10)
def _loops_rotate_action(cfg: RunConfig, rng) -> float:
    def trial():
        xi = _algebra_loop(cfg, rng)
        p1, p2 = rng.uniform(0, 2 * pi, 2)
        lhs = lp.rotate(p1, lp.rotate(p2, xi))
        rhs = lp.rotate(p1 + p2, xi)
        return np.max(np.abs(lhs - rhs))

    return _worst_over(5, trial)


@_check("loops.rotate.integral_invariance", "loops", "circle/rotation-invariance", 1e-10)
def _loops_rotate_integral(cfg: RunConfig, rng) -> float:
    def trial():
        xi = _algebra_loop(cfg, rng)
        zeta = _algebra_loop(cfg, rng)
        phi = rng.uniform(0, 2 * pi)
        base = lp.circle_integral(liecore.killing(xi, lp.loop_derivative(zeta)))
        moved = lp.circle_integral(
            liecore.killing(lp.rotate(phi, xi), lp.loop_derivative(lp.rotate(phi, zeta)))
        )
        return abs(base - moved)

    return _worst_over(5, trial)


@_check("loops.zmap.cocycle", "loops", "circle/log-derivative-cocycle", 1e-9)
def _loops_zmap(cfg: RunConfig, rng) -> float:
    def trial():
        g1 = _group_loop(cfg, rng)
        g2 = _group_loop(cfg, rng)
        lhs = lp.z_map(g1 @ g2)
        rhs = lp.z_map(g1) + g1 @ lp.z_map(g2) @ lp.loop_inverse(g1)
        return np.max(np.abs(lhs - rhs))

    return _worst_over(5, trial)


@_check("loops.semidirect.jacobi", "loops", "semidirect/jacobi", 1e-10)
def _loops_sd_jacobi(cfg: RunConfig, rng) -> float:
    def trial():
        a, b, c = (_sd_algebra(cfg, rng) for _ in range(3))
        j = lp.bracket(a, lp.bracket(b, c)).loop_part
        j = j + lp.bracket(b, lp.bracket(c, a)).loop_part
        j = j + lp.bracket(c, lp.bracket(a, b)).loop_part
        return np.max(np.abs(j))

    return _worst_over(10, trial)


@_check("loops.semidirect.adjoint_homomorphism", "loops", "semidirect/adjoint", 1e-9)
def _loops_sd_adjoint(cfg: RunConfig, rng) -> float:
    def trial():
        g = _sd_group(cfg, rng)
        a = _sd_algebra(cfg, rng)
        b = _sd_algebra(cfg, rng)
        lhs = lp.adjoint(g, lp.bracket(a, b))
        rhs = lp.bracket(lp.adjoint(g, a), lp.adjoint(g, b))
        return fc._worst(
            [np.max(np.abs(lhs.loop_part - rhs.loop_part)),
             abs(lhs.circle_part - rhs.circle_part)]
        )

    return _worst_over(5, trial)


# ---------------------------------------------------------------------------
# forms suite
# ---------------------------------------------------------------------------

@_check("forms.d_squared", "forms", "forms/d-squared", 1e-6)
def _forms_d2(cfg: RunConfig, rng) -> float:
    dim = 3
    polys = [sampling.random_poly(rng, dim) for _ in range(dim)]
    omega = fc.FormField(1, dim, lambda p, idx: polys[idx[0]](p))
    dd = fc.exterior_derivative(fc.exterior_derivative(omega, 1e-3), 1e-3)
    pts = sampling.random_chart_points(rng, dim, 4)
    return fc.max_coeff(dd, pts)


@_check("forms.pure_gauge_flat", "forms", "forms/maurer-cartan-flatness", 1e-6)
def _forms_pure_gauge(cfg: RunConfig, rng) -> float:
    dim = 2
    seeds = [sampling.random_algebra(rng, cfg.n, 0.6) for _ in range(2)]
    polys = [sampling.random_poly(rng, dim, 0.5) for _ in range(2)]

    def gmap(p):
        return lp.exp_loop(sum(f(p) * x for f, x in zip(polys, seeds)))

    h = 1e-4
    A = fc.maurer_cartan(fc.chart_function(gmap, dim), h)
    F = fc.form_sum([fc.exterior_derivative(A, h), fc.half_bracket(A)])
    pts = sampling.random_chart_points(rng, dim, 4)
    return fc.max_coeff(F, pts)


@_check("forms.leibniz_pairing", "forms", "forms/leibniz", 1e-6)
def _forms_leibniz(cfg: RunConfig, rng) -> float:
    dim = 4
    A = sampling.random_loop_one_form(rng, dim, cfg.samples, cfg.n)
    B = sampling.random_loop_one_form(rng, dim, cfg.samples, cfg.n)
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
    pts = sampling.random_chart_points(rng, dim, 3)
    return fc.max_coeff(diff, pts)


@_check("forms.evaluate.alternating", "forms", "forms/alternation", 1e-12)
def _forms_alternating(cfg: RunConfig, rng) -> float:
    dim = 4
    polys = {
        idx: sampling.random_poly(rng, dim)
        for idx in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    }
    omega = fc.FormField(2, dim, lambda p, idx: polys[tuple(idx)](p))
    p = rng.standard_normal(dim)
    v = rng.standard_normal(dim)
    w = rng.standard_normal(dim)
    return fc._worst(
        [
            abs(fc.evaluate(omega, p, [v, v])),
            abs(fc.evaluate(omega, p, [v, w]) + fc.evaluate(omega, p, [w, v])),
        ]
    )


@_check("forms.pullback.naturality", "forms", "forms/pullback-naturality", 1e-6)
def _forms_pullback(cfg: RunConfig, rng) -> float:
    target, source = 3, 2
    polys = [sampling.random_poly(rng, target) for _ in range(target)]
    omega = fc.FormField(1, target, lambda p, idx: polys[idx[0]](p))
    mats = rng.standard_normal((target, source))
    quad = rng.standard_normal((target, source)) * 0.3

    def mapping(u):
        return mats @ u + quad @ (u ** 2)

    def jacobian(u):
        return mats + 2.0 * quad * u

    h = 1e-4
    lhs = fc.exterior_derivative(fc.pullback(omega, mapping, source, jacobian), h)
    rhs = fc.pullback(fc.exterior_derivative(omega, h), mapping, source, jacobian)
    diff = fc.form_sum([lhs, rhs], [1.0, -1.0])
    pts = sampling.random_chart_points(rng, source, 4)
    return fc.max_coeff(diff, pts)


# ---------------------------------------------------------------------------
# string suite (connections module)
# ---------------------------------------------------------------------------

# the cubic symmetrized trace vanishes identically on su(2); k3 runs on su(3)
@_check("string.closed.k1", "string", "string-form/closedness", 1e-5, k=1, n=None)
@_check("string.closed.k2", "string", "string-form/closedness", 1e-5, k=2, n=None)
@_check("string.closed.k3", "string", "string-form/closedness", 1e-5, k=3, n=3)
def _closedness_residual(cfg: RunConfig, rng, k: int, n: int | None) -> float:
    dim = 2 * k
    c = sampling.random_lg_connection(rng, dim, cfg.samples, n or cfg.n, fd_step=cfg.fd_step)
    s = connections.higher_string_form(liecore.InvariantPolynomial(k), c)
    ds = fc.exterior_derivative(s, cfg.fd_step)
    pts = sampling.random_chart_points(rng, dim, 2)
    return fc.max_coeff(ds, pts)


@_check("string.higher_matches_degree3", "string", "string-form/degree-3-consistency", 1e-12)
def _string_higher_match(cfg: RunConfig, rng) -> float:
    dim = 3
    c = sampling.random_lg_connection(rng, dim, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    hi = connections.higher_string_form(liecore.pontrjagyn_polynomial(), c)
    # the check's own normalization of p1: -(1/4 pi^2) Int <F, nabla Phi> dtheta
    lo = fc.form_sum([fc.integrate_loop_form(fc.wedge_pair(c.F, c.nabla_phi))],
                     [-1.0 / (4.0 * pi ** 2)])
    diff = fc.form_sum([hi, lo], [1.0, -1.0])
    pts = sampling.random_chart_points(rng, dim, 3)
    return fc.max_coeff(diff, pts)


@_check("string.independence", "string", "string-form/choice-independence", 1e-4)
def _string_independence(cfg: RunConfig, rng) -> float:
    dim = 3
    c0 = sampling.random_lg_connection(rng, dim, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    c1 = sampling.random_lg_connection(rng, dim, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    f = liecore.pontrjagyn_polynomial()
    psi = connections.independence_homotopy_form(f, c0, c1)
    dpsi = fc.exterior_derivative(psi, cfg.fd_step)
    s0 = connections.higher_string_form(f, c0)
    s1 = connections.higher_string_form(f, c1)
    diff = fc.form_sum([dpsi, s1, s0], [1.0, -1.0, 1.0])
    pts = sampling.random_chart_points(rng, dim, 2)
    return fc.max_coeff(diff, pts)


@_check("string.gauge_invariance", "string", "string-form/descent", 1e-5, variant=_LG)
@_check("string.gauge_invariance_twisted", "string", "string-form/descent", 1e-5, variant=_LGXS1)
def _string_gauge(cfg: RunConfig, rng, variant) -> float:
    dim = 3
    c = variant.connection(rng, dim, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    sigma = variant.gauge(rng, dim, cfg.samples, cfg.n)
    ct = connections.gauge_transform(c, sigma)
    s = partial(connections.higher_string_form, liecore.pontrjagyn_polynomial())
    diff = fc.form_sum([s(c), s(ct)], [1.0, -1.0])
    pts = sampling.random_chart_points(rng, dim, 3)
    return fc.max_coeff(diff, pts)


@_check("string.reduction_a_zero", "string", "string-form/rotation-reduction", 1e-12)
def _string_reduction(cfg: RunConfig, rng) -> float:
    dim = 3
    base = sampling.random_lg_connection(rng, dim, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    zero_a = fc.FormField(1, dim, lambda p, idx: 0.0)
    ext = connections.LGxS1ConnectionData(
        A=base.A, a=zero_a, phi=base.phi, dim=dim, N=cfg.samples, n=cfg.n,
        fd_step=cfg.fd_step,
    )
    s = partial(connections.higher_string_form, liecore.pontrjagyn_polynomial())
    diff = fc.form_sum([s(ext), s(base)], [1.0, -1.0])
    pts = sampling.random_chart_points(rng, dim, 3)
    return fc.max_coeff(diff, pts)


@_check("string.covariant_derivative_identity", "string", "string-form/curvature-commutator", 1e-4)
def _string_dnabla(cfg: RunConfig, rng) -> float:
    # D(nabla Phi) = [F, Phi] - dF/dtheta, probed on horizontal lifts in the
    # circle-extended chart with a generic group point
    dim = 2
    c = sampling.random_lg_connection(rng, dim, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    chart = caloron.ExtendedChart(base_dim=dim, N=cfg.samples, n=cfg.n, fd_step=cfg.fd_step)
    cg = caloron.to_g_connection(c, chart)
    u = 0.3 * rng.standard_normal(chart.group_dim)
    x = 0.3 * rng.standard_normal(dim)

    F, nabla = c.F, c.nabla_phi
    g = chart.group_map(u)

    # horizontal probes of the base coordinate directions, in (base, group)
    # coordinates: they have no theta component
    xu = np.concatenate([x, u])
    theta_idx = rng.integers(0, cfg.samples)
    mat = np.stack([cg.A.coeff(xu, (a,))[theta_idx].flatten() for a in range(dim, cg.dim)],
                   axis=1)
    probes = []
    for i in range(dim):
        vec = np.zeros(cg.dim)
        vec[i] = 1.0
        coeffs, *_ = np.linalg.lstsq(mat, cg.A.coeff(xu, (i,))[theta_idx].flatten(), rcond=None)
        vec[dim:] = -np.real(coeffs)
        probes.append(vec)

    # psi = Ad(g^{-1}) nabla Phi at theta_idx as a 1-form on the (base, group)
    # coordinates; without a theta component in the probes, theta drops out
    # of d psi
    zero = np.zeros((cfg.n, cfg.n), dtype=complex)

    def psi_coeff(p, idx):
        (i,) = idx
        if i >= dim:
            return zero
        gp = chart.group_map(p[dim:])
        return lp.adjoint_inverse(gp, nabla.coeff(p[:dim], idx))[theta_idx]

    psi = fc.FormField(1, cg.dim, psi_coeff)
    dpsi = fc.exterior_derivative(psi, cfg.fd_step)
    lhs = fc.evaluate(dpsi, xu, probes)
    Fval = F.coeff(x, (0, 1))
    phi = c.phi(x)
    comm = Fval @ phi - phi @ Fval
    dF = lp.loop_derivative(Fval)
    ginv = lp.loop_inverse(g)
    rhs = 0.5 * (ginv @ (comm - dF)[theta_idx] @ g)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# caloron suite
# ---------------------------------------------------------------------------

@_check("caloron.transport", "caloron", "caloron/curvature-transport", 1e-4, variant=_LG)
@_check("caloron.transport_twisted", "caloron", "caloron/twisted-transport", 1e-4, variant=_LGXS1)
def _caloron_transport(cfg: RunConfig, rng, variant) -> float:
    c = variant.connection(rng, 2, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    pts = sampling.random_chart_points(rng, 2, 2)
    return caloron.g_curvature_transport_check(c, pts)


@_check("caloron.transport.step_refinement", "caloron", "caloron/fd-convergence", 0.5, variant=_LG)
@_check("caloron.transport_twisted.step_refinement", "caloron", "caloron/fd-convergence", 0.5,
        variant=_LGXS1)
def _caloron_transport_refine(cfg: RunConfig, rng, variant) -> float:
    # ratio of residuals at chart steps h and h/2 (the data keep their default
    # step), where truncation dominates round-off; ~0.25 at second order
    c = variant.connection(rng, 2, cfg.samples, cfg.n)
    pts = sampling.random_chart_points(rng, 2, 1)
    chart1 = caloron.ExtendedChart(2, cfg.samples, cfg.n, fd_step=2e-2)
    chart2 = caloron.ExtendedChart(2, cfg.samples, cfg.n, fd_step=1e-2)
    r1 = caloron.g_curvature_transport_check(c, pts, chart=chart1)
    r2 = caloron.g_curvature_transport_check(c, pts, chart=chart2)
    return r2 / r1


@_check("caloron.transport.base_point", "caloron", "caloron/chart-independence", 1e-4)
def _caloron_transport_g0(cfg: RunConfig, rng) -> float:
    c = sampling.random_lg_connection(rng, 2, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    g0 = sampling.random_group(rng, cfg.n, 0.7)
    chart = caloron.ExtendedChart(2, cfg.samples, cfg.n, g0=g0, fd_step=cfg.fd_step)
    u = 0.2 * rng.standard_normal(chart.group_dim)
    pts = sampling.random_chart_points(rng, 2, 2)
    return caloron.g_curvature_transport_check(c, pts, chart=chart, u=u)


@_check("caloron.roundtrip", "caloron", "caloron/connection-roundtrip", 1e-10)
def _caloron_roundtrip(cfg: RunConfig, rng) -> float:
    c = sampling.random_lg_connection(rng, 2, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    g0 = sampling.random_group(rng, cfg.n, 0.7)
    chart = caloron.ExtendedChart(2, cfg.samples, cfg.n, g0=g0, fd_step=cfg.fd_step)
    back = caloron.from_g_connection(caloron.to_g_connection(c, chart), chart)
    pts = sampling.random_chart_points(rng, 2, 3)
    residuals = []
    for p in pts:
        for i in range(2):
            residuals.append(np.max(np.abs(back.A.coeff(p, (i,)) - c.A.coeff(p, (i,)))))
        residuals.append(np.max(np.abs(back.phi(p) - c.phi(p))))
    return fc._worst(residuals)


def _frame_eval_residual(form_a: fc.FormField, form_b: fc.FormField, rng, pts) -> float:
    residuals = []
    for p in pts:
        frame = [rng.standard_normal(form_a.dim) for _ in range(form_a.degree)]
        va = fc.evaluate(form_a, p, frame)
        vb = fc.evaluate(form_b, p, frame)
        residuals.append(np.max(np.abs(np.asarray(va) - np.asarray(vb))))
    return fc._worst(residuals)


@_check("caloron.pontrjagyn_matches_string", "caloron", "caloron/characteristic-integration",
        1e-4, variant=_LG)
@_check("caloron.pontrjagyn_matches_string_twisted", "caloron",
        "caloron/characteristic-integration", 1e-4, variant=_LGXS1)
def _caloron_pont(cfg: RunConfig, rng, variant) -> float:
    f = liecore.pontrjagyn_polynomial()

    def trial():
        c = variant.connection(rng, 3, cfg.samples, cfg.n, fd_step=cfg.fd_step)
        cyl = connections.string_cylinder(c)
        p1 = fc.fiber_integrate_poly_wedge([cyl, cyl], f)
        s = connections.higher_string_form(f, c)
        pts = sampling.random_chart_points(rng, 3, 1)
        return _frame_eval_residual(p1, s, rng, pts)

    return _worst_over(20, trial)


@_check("caloron.loop_bundle_slice", "caloron", "caloron/loop-bundle-specialization", 1e-5)
def _caloron_loop_bundle_slice(cfg: RunConfig, rng) -> float:
    # theta-independent data: the loop-bundle specialization where the
    # transported connection is the pullback of an ordinary G-connection
    dim = 3
    consts = [sampling.random_algebra(rng, cfg.n, 0.6) for _ in range(dim)]
    polys = [sampling.random_poly(rng, dim) for _ in range(dim)]

    def A_coeff(p, idx):
        (i,) = idx
        return np.broadcast_to(
            polys[i](p) * consts[i], (cfg.samples, cfg.n, cfg.n)
        ).copy()

    phi_const = sampling.random_algebra(rng, cfg.n, 0.5)

    def phi(p):
        return np.broadcast_to(phi_const, (cfg.samples, cfg.n, cfg.n)).copy()

    c = connections.LGConnectionData(
        A=fc.FormField(1, dim, A_coeff), phi=phi, dim=dim, N=cfg.samples, n=cfg.n,
        fd_step=cfg.fd_step,
    )
    pts = sampling.random_chart_points(rng, dim, 2)
    transport = caloron.g_curvature_transport_check(c, pts)
    f = liecore.pontrjagyn_polynomial()
    cyl = connections.string_cylinder(c)
    p1 = fc.fiber_integrate_poly_wedge([cyl, cyl], f)
    s = connections.higher_string_form(f, c)
    return fc._worst([transport, _frame_eval_residual(p1, s, rng, pts)])


# ---------------------------------------------------------------------------
# pathfib suite
# ---------------------------------------------------------------------------

@_check("pathfib.coefficient_identity", "pathfib", "transgression/coefficient-identity", 0.0)
def _pathfib_coeff(cfg: RunConfig, rng) -> float:
    for k in range(1, 21):
        lhs, rhs, equal = pathfib.coefficient_identity(k)
        if not equal:
            return 1.0
    return 0.0


def _generator_residual(cfg: RunConfig, rng, p, alpha) -> float:
    frame = sampling.random_frame(rng, cfg.n, 3)
    _, _, resid = pathfib.pf_string_class_vs_generator(p, frame, alpha)
    return resid


@_check("pathfib.generator", "pathfib", "path-fibration/degree-3-generator", 1e-8)
def _pathfib_generator(cfg: RunConfig, rng) -> float:
    alpha = pathfib.default_cutoff(cfg.pathfib_samples)

    def path_trial():
        p = pathfib.higgs_holonomy(_path_xi(cfg, rng))
        return _worst_over(10, lambda: _generator_residual(cfg, rng, p, alpha))

    return _worst_over(5, path_trial)


@_check("pathfib.generator.cutoff_independence", "pathfib", "path-fibration/cutoff-independence", 1e-8)
def _pathfib_cutoff(cfg: RunConfig, rng) -> float:
    alpha = pathfib.alternate_cutoff(cfg.pathfib_samples)
    p = pathfib.higgs_holonomy(_path_xi(cfg, rng))
    return _worst_over(10, lambda: _generator_residual(cfg, rng, p, alpha))


@_check("pathfib.cutoff_bridge_integral", "pathfib", "path-fibration/cutoff-normalization", 1e-10)
def _pathfib_bridge(cfg: RunConfig, rng) -> float:
    residuals = []
    for alpha in (pathfib.default_cutoff(cfg.pathfib_samples),
                  pathfib.alternate_cutoff(cfg.pathfib_samples)):
        val = lp.circle_integral(
            (alpha.values ** 2 - alpha.values) * alpha.derivative
        )
        residuals.append(abs(val + 1.0 / 6.0))
    return fc._worst(residuals)


@_check("pathfib.connection.horizontality", "pathfib", "path-fibration/horizontal-kernel", 1e-8)
def _pathfib_horizontal(cfg: RunConfig, rng) -> float:
    alpha = pathfib.default_cutoff(cfg.pathfib_samples)
    p = pathfib.higgs_holonomy(_path_xi(cfg, rng))

    def trial():
        V = sampling.random_algebra(rng, cfg.n)
        hX = pathfib.horizontal_tangent(p, V, alpha)
        horizontal = np.max(np.abs(pathfib.pf_connection(p, hX, alpha)))
        # fundamental vectors of based loops are reproduced exactly
        based = _path_xi(cfg, rng, scale=0.5)
        based = based - based[0]
        X = pathfib.tangent_from_based_loop(p, based)
        return fc._worst(
            [horizontal, np.max(np.abs(pathfib.pf_connection(p, X, alpha) - based))]
        )

    return _worst_over(5, trial)


@_check("pathfib.holonomy.roundtrip", "pathfib", "path-fibration/holonomy-roundtrip", 1e-8)
def _pathfib_roundtrip(cfg: RunConfig, rng) -> float:
    def trial():
        xi = _path_xi(cfg, rng, scale=0.5)
        p = pathfib.higgs_holonomy(xi)
        return np.max(np.abs(pathfib.pf_higgs(p) - xi))

    return _worst_over(3, trial)


@_check("pathfib.holonomy.unitarity", "pathfib", "path-fibration/holonomy-unitarity", 1e-10)
def _pathfib_unitary(cfg: RunConfig, rng) -> float:
    endpoint = pathfib.higgs_holonomy(_path_xi(cfg, rng, scale=0.5)).endpoint
    return float(np.max(np.abs(endpoint @ endpoint.conj().T - np.eye(cfg.n))))


@_check("pathfib.holonomy.equivariance", "pathfib", "path-fibration/holonomy-equivariance", 1e-7)
def _pathfib_equivariance(cfg: RunConfig, rng) -> float:
    xi = _path_xi(cfg, rng, scale=0.5)
    eta = _path_xi(cfg, rng, scale=0.5)
    eta = eta - eta[0]  # based loop generator
    hloop = lp.exp_loop(eta)
    g1 = pathfib.higgs_holonomy(lp.gauge_shift(hloop, xi)).samples
    g0 = pathfib.higgs_holonomy(xi).samples
    return float(np.max(np.abs(g1 - g0 @ hloop)))


@_check("pathfib.nabla_phi.deformation", "pathfib", "path-fibration/covariant-derivative", 1e-6)
def _pathfib_nabla(cfg: RunConfig, rng) -> float:
    # vertical probe at suite resolution; horizontal probe on a finer grid
    # because the cutoff spectrum decays only subgeometrically
    h = 1e-5
    p = pathfib.higgs_holonomy(_path_xi(cfg, rng))
    based = _path_xi(cfg, rng, scale=0.5)
    based = based - based[0]

    def vdeform(t):
        return pathfib.PathPoint(p.samples @ lp.exp_loop(t * based), p.endpoint)

    dphi = lp.central(pathfib.pf_higgs(vdeform(h)), pathfib.pf_higgs(vdeform(-h)), h)
    phi = pathfib.pf_higgs(p)
    vert = dphi + (based @ phi - phi @ based) - lp.loop_derivative(based)

    M = max(4 * cfg.pathfib_samples, 1024)
    alpha = pathfib.default_cutoff(M)
    xi2 = sampling.bandlimited_algebra_loop(rng, M, cfg.n, kmax=3, scale=0.4)
    p2 = pathfib.higgs_holonomy(xi2)
    V = sampling.random_algebra(rng, cfg.n)
    hX = pathfib.horizontal_tangent(p2, V, alpha)

    def hdeform(t):
        flow = lp.exp_loop(t * hX.right_field)
        endpoint = lp.exp_loop(t * hX.endpoint) @ p2.endpoint
        return pathfib.PathPoint(flow @ p2.samples, endpoint)

    dphi2 = lp.central(pathfib.pf_higgs(hdeform(h)), pathfib.pf_higgs(hdeform(-h)), h)
    want = pathfib.pf_nabla_phi(p2, V, alpha)
    return fc._worst([np.max(np.abs(vert)), np.max(np.abs(dphi2 - want))])


@_check("pathfib.higher_transgression.k2", "pathfib", "transgression/frame-match", 1e-6,
        f=liecore.pontrjagyn_polynomial(), trials=5, n=None)
@_check("pathfib.higher_transgression.k3", "pathfib", "transgression/frame-match", 1e-6,
        f=liecore.InvariantPolynomial(3), trials=3, n=3)
def _transgression_residual(cfg: RunConfig, rng, f: liecore.InvariantPolynomial, trials: int,
                           n: int | None) -> float:
    alpha = pathfib.default_cutoff(cfg.pathfib_samples)
    p = pathfib.higgs_holonomy(_path_xi(cfg, rng, n))

    def trial():
        frame = sampling.random_frame(rng, n or cfg.n, 2 * f.degree - 1)
        _, _, resid = pathfib.pf_higher_string_vs_transgression(f, p, frame, alpha)
        return resid

    return _worst_over(trials, trial)


# ---------------------------------------------------------------------------
# centralext suite
# ---------------------------------------------------------------------------

@_check("centralext.dalpha_matches_deltaR.lg", "centralext",
        "central-extension/connection-compatibility", 1e-5, variant=_LG)
@_check("centralext.dalpha_matches_deltaR.lgxs1", "centralext",
        "central-extension/connection-compatibility", 1e-5, variant=_LGXS1)
def _ce_dalpha(cfg: RunConfig, rng, variant) -> float:
    def trial():
        pts, tx = _point_tangent(cfg, rng, variant, 2)
        _, ty = _point_tangent(cfg, rng, variant, 2)
        return centralext.d_alpha_vs_delta_r(pts, tx, ty, cfg.fd_step)

    return _worst_over(20, trial)


@_check("centralext.delta_alpha_zero.lg", "centralext", "central-extension/cocycle-closure",
        1e-6, variant=_LG)
@_check("centralext.delta_alpha_zero.lgxs1", "centralext", "central-extension/cocycle-closure",
        1e-6, variant=_LGXS1)
def _ce_delta_alpha(cfg: RunConfig, rng, variant) -> float:
    def trial():
        pts, tans = _point_tangent(cfg, rng, variant, 3)
        return centralext.verify_delta_alpha_zero(pts, tans)

    return _worst_over(20, trial)


@_check("centralext.delta_squared_zero", "centralext", "simplicial/delta-squared", 1e-6)
def _ce_delta_sq(cfg: RunConfig, rng) -> float:
    probe = _algebra_loop(cfg, rng)

    def test_form(points, tangents):
        # a deliberately non-closed scalar 1-form on G^2
        val = lp.circle_integral(
            liecore.killing(tangents[0], lp.z_map(points[1]))
            + 0.5 * liecore.killing(tangents[1], points[0] @ probe @ lp.loop_inverse(points[0]))
        )
        return float(val)

    d1 = partial(centralext.simplicial_delta_eval, test_form)

    def trial():
        pts, tans = _point_tangent(cfg, rng, _LG, 4)
        return abs(centralext.simplicial_delta_eval(d1, pts, tans))

    return _worst_over(5, trial)


@_check("centralext.rform.rotation_invariance", "centralext", "central-extension/rotation-invariance", 1e-10)
def _ce_rform_rot(cfg: RunConfig, rng) -> float:
    def trial():
        xi = _algebra_loop(cfg, rng)
        zeta = _algebra_loop(cfg, rng)
        gamma = _group_loop(cfg, rng)
        phi = rng.uniform(0, 2 * pi)
        base = centralext.r_form(gamma, xi, zeta)
        moved = centralext.r_form(gamma, lp.rotate(phi, xi), lp.rotate(phi, zeta))
        return abs(base - moved)

    return _worst_over(10, trial)


@_check("centralext.delta_epsilon.lg", "centralext", "lifting-gerbe/connection-correction",
        1e-5, variant=_LG)
@_check("centralext.delta_epsilon.lgxs1", "centralext", "lifting-gerbe/connection-correction",
        1e-5, variant=_LGXS1)
def _ce_eps(cfg: RunConfig, rng, variant) -> float:
    dim = 2

    def trial():
        c = variant.connection(rng, dim, cfg.samples, cfg.n, fd_step=cfg.fd_step)
        tau12 = variant.gauge(rng, dim, cfg.samples, cfg.n)
        tau23 = variant.gauge(rng, dim, cfg.samples, cfg.n)
        point = 0.3 * rng.standard_normal(dim)
        X = rng.standard_normal(dim)
        return centralext.delta_epsilon_vs_tau_alpha(c, tau12, tau23, point, X)

    return _worst_over(20, trial)


@_check("centralext.splitting_curving_matches_direct", "centralext", "curving/reduced-splitting", 1e-6)
def _ce_splitting_curving(cfg: RunConfig, rng) -> float:
    dim = 3
    c = sampling.random_lgxs1_connection(rng, dim, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    direct = centralext.curving_direct(c)
    via_splitting = centralext.splitting_curving(c)
    diff = fc.form_sum([direct, via_splitting], [1.0, -1.0])
    pts = sampling.random_chart_points(rng, dim, 4)
    return fc.max_coeff(diff, pts)


@_check("centralext.reduced_splitting.transformation", "centralext", "curving/splitting-equivariance", 1e-6)
def _ce_ell(cfg: RunConfig, rng) -> float:
    def trial():
        phi = _algebra_loop(cfg, rng)
        g = _sd_group(cfg, rng)
        a = _sd_algebra(cfg, rng)
        return centralext.reduced_splitting_transformation_residual(phi, g, a)

    return _worst_over(10, trial)


@_check("centralext.descent.lg", "centralext", "curving/three-form-descent", 1e-4, variant=_LG)
@_check("centralext.descent.lgxs1", "centralext", "curving/three-form-descent", 1e-4, variant=_LGXS1)
def _ce_descent(cfg: RunConfig, rng, variant) -> float:
    dim = 3
    c = variant.connection(rng, dim, cfg.samples, cfg.n, fd_step=cfg.fd_step)
    sigma = variant.gauge(rng, dim, cfg.samples, cfg.n)
    pts = sampling.random_chart_points(rng, dim, 2)
    return centralext.three_curvature_descent_check(c, pts, sigma=sigma)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

SUITES = sorted({check.suite for check in _REGISTRY})


def checks_for(suite: str) -> list[Check]:
    if suite == "all":
        return list(_REGISTRY)
    return [check for check in _REGISTRY if check.suite == suite]


def run_suite(config: RunConfig) -> VerificationReport:
    """Run the selected suite and collect a report, sorted by check name.

    Each check owns a generator derived from (seed, check name), so the
    execution order (or running checks concurrently) can never change the
    residuals; the record order is normalized by sorting.  A check that
    raises is recorded with status "error", residual NaN and the
    exception's type name, its traceback is logged, and the run goes on.
    """
    config.validate()
    records = []
    for name, _, anchor, tol, fn in sorted(checks_for(config.suite)):
        tol = float(config.tolerance_overrides.get(name, tol))
        rng = sampling.rng_for(config.seed, name)
        t0 = time.perf_counter()
        try:
            residual, error = float(fn(config, rng)), ""
        except Exception as exc:
            _log.exception("check %s raised", name)
            residual, error = float("nan"), type(exc).__name__
        millis = (time.perf_counter() - t0) * 1000.0
        passed = residual <= tol
        status = "error" if error else "pass" if passed else "FAIL"
        records.append(CheckRecord(name, anchor, residual, tol, passed, millis, status, error))
    cfg_dict = asdict(config)
    return VerificationReport(
        suite=config.suite, seed=config.seed, config=cfg_dict, checks=tuple(records)
    )


# CheckRecord fields in order, as json keys and csv columns
_COLUMNS = ("name", "anchor", "residual", "tolerance", "pass", "millis", "status", "error")


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "config": report.config,
            "seed": report.seed,
            "checks": [dict(zip(_COLUMNS, astuple(c))) for c in report.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_COLUMNS)
        for c in report.checks:
            writer.writerow([c.name, c.anchor, repr(c.residual), repr(c.tolerance), c.passed,
                             f"{c.millis:.3f}", c.status, c.error])
        return buf.getvalue()
    if fmt == "text":
        lines = [
            f"suite: {report.suite}   seed: {report.seed}   "
            f"n: {report.config['n']}   samples: {report.config['samples']}"
        ]
        width = max((len(c.name) for c in report.checks), default=10)
        for c in report.checks:
            line = (
                f"{c.name:<{width}}  {c.status}  residual={c.residual:11.4e}  "
                f"tol={c.tolerance:9.2e}  {c.millis:9.1f} ms"
            )
            lines.append(f"{line}  {c.error}" if c.error else line)
        failed = sum(c.status == "FAIL" for c in report.checks)
        errors = sum(c.status == "error" for c in report.checks)
        lines.append(
            f"{len(report.checks)} checks, {failed} failed, {errors} raised an error"
            if failed or errors
            else f"{len(report.checks)} checks, all passed"
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def coefficient_table(k_max: int) -> str:
    """CSV of the exact transgression coefficient identity up to k_max."""
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "lhs", "rhs", "equal"])
    for k in range(1, k_max + 1):
        lhs, rhs, equal = pathfib.coefficient_identity(k)
        writer.writerow([k, str(lhs), str(rhs), equal])
    return buf.getvalue()
