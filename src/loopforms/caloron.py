"""Connection-level transport between loop-group data over M and ordinary
G-connections over the circle-extended total space.

The extended chart models (base chart) x S1 x G, the group factor in an
exponential chart around a base point g0.  Coefficients of the assembled
G-connection are stored direction by direction, each as a full loop over
the theta grid, so theta derivatives are spectral while base and group
derivatives use central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import formscalc as fc
from . import loopspace as lp
from .connections import LGConnectionData, LGxS1ConnectionData, string_cylinder
from .liecore import algebra_coordinates, logarithm
from .liecore import pontrjagyn_polynomial, sun_basis


@dataclass(frozen=True)
class ExtendedChart:
    """Base chart + periodic theta + exponential group coordinates at g0,
    taken in the basis ``sun_basis(n)``.  ``group_map`` is the chart's
    only way to the group point g(u) = g0 exp(sum u_a e_a): a 0-form, so
    g(u) is computed once per point.  It keeps the 1 + 2m + 2m^2 points
    (m = group_dim) of a central difference of the Maurer-Cartan form,
    itself a central difference of ``group_map``, as
    ``g_curvature_components`` takes it."""

    base_dim: int
    N: int
    n: int
    g0: np.ndarray | None = None
    fd_step: float = 1e-4

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", sun_basis(self.n))
        if self.g0 is None:
            object.__setattr__(self, "g0", np.eye(self.n, dtype=complex))
        m = len(self.basis)
        group_map = fc.chart_function(self._group_point, m, keep=1 + 2 * m * (m + 1))
        object.__setattr__(self, "group_map", group_map)
        object.__setattr__(self, "_mc", fc.maurer_cartan(group_map, self.fd_step))

    @property
    def group_dim(self) -> int:
        return len(self.basis)

    @property
    def total_dim(self) -> int:
        # ordering: base directions, theta, group directions
        return self.base_dim + 1 + self.group_dim

    @property
    def theta_index(self) -> int:
        return self.base_dim

    def _group_point(self, u: np.ndarray) -> np.ndarray:
        x = sum(ui * e for ui, e in zip(u, self.basis))
        return self.g0 @ lp.exp_loop(x)

    def maurer_cartan(self, u: np.ndarray) -> np.ndarray:
        """Theta = g^{-1} dg/du_a, (m, n, n), from the chart's memoized ``fc.maurer_cartan``."""
        return np.stack([self._mc.coeff(u, (a,)) for a in range(self.group_dim)])

    def identity_coordinates(self) -> np.ndarray:
        """Group coordinates u* with g(u*) = identity."""
        return algebra_coordinates(logarithm(lp.loop_inverse(self.g0)), self.basis)


@dataclass(frozen=True)
class GConnectionField:
    """G-connection on an extended chart, one loop-valued coefficient per
    direction (order: base, theta, group)."""

    chart: ExtendedChart
    coeffs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # coeffs(x, u) -> array (total_dim, N, n, n)


def to_g_connection(
    c: LGConnectionData | LGxS1ConnectionData, chart: ExtendedChart | None = None
) -> GConnectionField:
    """Assemble Ad(g^{-1}) A + Theta + Ad(g^{-1}) Phi dtheta on the extended chart.

    For LG x| S1 data the assembly is twisted, Ad(g^{-1}) A + Theta
    + Ad(g^{-1}) Phi (a + dtheta); the theta coordinate then models the
    fiber of the circle bundle.  The default chart takes the data's step.
    """
    chart = chart or ExtendedChart(base_dim=c.dim, N=c.N, n=c.n, fd_step=c.fd_step)
    twisted = isinstance(c, LGxS1ConnectionData)

    def coeffs(x, u):
        g = chart.group_map(u)
        phi = c.phi(x)
        out = np.zeros((chart.total_dim, c.N, c.n, c.n), dtype=complex)
        for i in range(c.dim):
            Ai = c.A.coeff(x, (i,))
            if twisted:
                Ai = Ai + c.a.coeff(x, (i,)) * phi
            out[i] = lp.adjoint_inverse(g, Ai)
        out[chart.theta_index] = lp.adjoint_inverse(g, phi)
        out[chart.base_dim + 1 :] = chart.maurer_cartan(u)[:, None]
        return out

    return GConnectionField(chart, coeffs)


def from_g_connection(field: GConnectionField) -> LGConnectionData:
    """Read (A, Phi) back off the canonical section (theta slot and base slots
    at the group point where g = identity), one ``coeffs`` call per point."""
    chart = field.chart
    u_star = chart.identity_coordinates()
    section = fc.chart_function(lambda x: field.coeffs(x, u_star), chart.base_dim)

    def A_coeff(x, idx):
        (i,) = idx
        return section(x)[i]

    def phi(x):
        return section(x)[chart.theta_index]

    return LGConnectionData(
        A=fc.FormField(1, chart.base_dim, A_coeff),
        phi=phi,
        dim=chart.base_dim,
        N=chart.N,
        n=chart.n,
        fd_step=chart.fd_step,
    )


def g_curvature_components(field: GConnectionField, x: np.ndarray, u: np.ndarray) -> dict:
    """F = dA + (1/2)[A, A] componentwise on the extended chart.

    Coefficient convention: F_IJ = d_I A_J - d_J A_I + [A_I, A_J] for
    I < J.  Base and group derivatives are central differences; the theta
    derivative is spectral on the loop axis.
    """
    chart = field.chart
    h = chart.fd_step
    D = chart.total_dim
    ti = chart.theta_index

    center = field.coeffs(x, u)

    def shifted(direction, sgn):
        if direction < chart.base_dim:
            xs = x.copy()
            xs[direction] += sgn * h
            return field.coeffs(xs, u)
        if direction == ti:
            raise AssertionError("theta handled spectrally")
        us = u.copy()
        us[direction - chart.base_dim - 1] += sgn * h
        return field.coeffs(x, us)

    # d_I A_J for all I != theta: one pair of full evaluations per direction
    partials = {}
    for I in range(D):
        if I == ti:
            partials[I] = np.stack([lp.loop_derivative(center[J]) for J in range(D)])
        else:
            partials[I] = lp.central(shifted(I, +1), shifted(I, -1), h)

    comps = {}
    for I in range(D):
        for J in range(I + 1, D):
            dA = partials[I][J] - partials[J][I]
            comps[(I, J)] = dA + lp.bracket(center[I], center[J])
    return comps


def transport_target(c: LGConnectionData | LGxS1ConnectionData, chart: ExtendedChart,
                     x: np.ndarray, u: np.ndarray) -> dict:
    """Ad(g^{-1}) of the transported curvature ``string_cylinder(c)``
    componentwise: beta on base pairs, gamma on (base, theta); group slots
    vanish."""
    g = chart.group_map(u)
    cyl = string_cylinder(c)
    ti = chart.theta_index
    out = {}
    for i in range(c.dim):
        for j in range(i + 1, c.dim):
            out[(i, j)] = lp.adjoint_inverse(g, cyl.beta.coeff(x, (i, j)))
        out[(i, ti)] = lp.adjoint_inverse(g, cyl.gamma.coeff(x, (i,)))
    return out


def _transport_residual(field: GConnectionField, target: dict, x: np.ndarray, u: np.ndarray) -> float:
    comps = g_curvature_components(field, x, u)
    residuals = []
    for key, val in comps.items():
        want = target.get(key)
        diff = val - want if want is not None else val
        residuals.append(np.max(np.abs(diff)))
    return fc._worst(residuals)


def g_curvature_transport_check(
    c: LGConnectionData | LGxS1ConnectionData,
    points,
    chart: ExtendedChart | None = None,
    u: np.ndarray | None = None,
) -> float:
    """Max residual between the finite-difference curvature of the assembled
    G-connection and the closed transport form, over the given base points.
    Takes LG or LG x| S1 data; the latter is checked against the twisted
    transport form.  The default chart takes the data's step."""
    chart = chart or ExtendedChart(base_dim=c.dim, N=c.N, n=c.n, fd_step=c.fd_step)
    field = to_g_connection(c, chart)
    u = u if u is not None else np.zeros(chart.group_dim)
    residuals = []
    for x in points:
        x = np.asarray(x, dtype=float)
        residuals.append(_transport_residual(field, transport_target(c, chart, x, u), x, u))
    return fc._worst(residuals)


def pontrjagyn_fiber_integral(c: LGConnectionData | LGxS1ConnectionData) -> fc.FormField:
    """Int_{S1} of -(1/8 pi^2) <F~, F~> for the transported curvature, of
    LG or (twisted) LG x| S1 data."""
    if c.dim < 3:
        raise ValueError("need chart dimension >= 3")
    f = pontrjagyn_polynomial()
    cyl = string_cylinder(c)
    return fc.fiber_integrate_poly_wedge([cyl, cyl], f)
