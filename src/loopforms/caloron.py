"""Connection-level transport between loop-group data over M and ordinary
G-connections over the circle-extended total space.

The caloron correspondence reads a G-connection over M x S1 as LG data
(A, Phi) with Phi its dtheta component.  So the assembled G-connection is
``LGConnectionData`` on the extended chart's (base, group) coordinates,
every coefficient a loop over the theta grid, and its curvature is
``string_cylinder`` of that data: F on chart pairs, nabla Phi on
(direction, theta).  Base and group derivatives are the one stencil
``formscalc.exterior_derivative``; theta derivatives are spectral.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import formscalc as fc
from . import loopspace as lp
from .connections import LGConnectionData, LGxS1ConnectionData, string_cylinder
from .liecore import algebra_coordinates, logarithm, sun_basis


@dataclass(frozen=True)
class ExtendedChart:
    """Base chart + periodic theta + exponential group coordinates at g0,
    taken in the basis ``sun_basis(n)``.  Chart points are (x, u), base
    coordinates first; theta rides on the loop axis.  ``group_map`` is the
    chart's only way to the group point g(u) = g0 exp(sum u_a e_a): a
    0-form, so g(u) is computed once per point.  It keeps the 1 + 2m^2
    points (m = group_dim) that the curvature of ``to_g_connection`` asks:
    u and u +- e_a for the base coefficients, and u +- e_a +- e_b (a != b)
    for the Maurer-Cartan form's own difference inside d_a Theta_b; F never
    differentiates Theta_a along a."""

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
        group_map = fc.chart_function(self._group_point, m, keep=1 + 2 * m * m)
        object.__setattr__(self, "group_map", group_map)
        object.__setattr__(self, "_mc", fc.maurer_cartan(group_map, self.fd_step))

    @property
    def group_dim(self) -> int:
        return len(self.basis)

    def _group_point(self, u: np.ndarray) -> np.ndarray:
        x = sum(ui * e for ui, e in zip(u, self.basis))
        return self.g0 @ lp.exp_loop(x)

    def identity_coordinates(self) -> np.ndarray:
        """Group coordinates u* with g(u*) = identity."""
        return algebra_coordinates(logarithm(lp.loop_inverse(self.g0)), self.basis)


def to_g_connection(
    c: LGConnectionData | LGxS1ConnectionData, chart: ExtendedChart | None = None
) -> LGConnectionData:
    """The G-connection Ad(g^{-1}) A + Theta + Ad(g^{-1}) Phi dtheta as LG
    data on the chart's (base, group) coordinates: A_i = Ad(g(u)^{-1}) A_i
    on a base direction, the Maurer-Cartan form Theta_a = g^{-1} dg/du_a,
    constant in theta, on a group direction, and Phi = Ad(g(u)^{-1}) Phi.

    For LG x| S1 data the assembly is twisted, Ad(g^{-1}) A + Theta
    + Ad(g^{-1}) Phi (a + dtheta): A_i = Ad(g^{-1})(A_i + a_i Phi), and the
    theta coordinate models the fiber of the circle bundle.  The default
    chart takes the data's step.
    """
    chart = chart or ExtendedChart(base_dim=c.dim, N=c.N, n=c.n, fd_step=c.fd_step)
    b = chart.base_dim
    twisted = isinstance(c, LGxS1ConnectionData)

    def A_coeff(p, idx):
        (i,) = idx
        if i >= b:
            return np.broadcast_to(chart._mc.coeff(p[b:], (i - b,)), (c.N, c.n, c.n))
        Ai = c.A.coeff(p[:b], idx)
        if twisted:
            Ai = Ai + c.a.coeff(p[:b], idx) * c.phi(p[:b])
        return lp.adjoint_inverse(chart.group_map(p[b:]), Ai)

    def phi(p):
        return lp.adjoint_inverse(chart.group_map(p[b:]), c.phi(p[:b]))

    dim = b + chart.group_dim
    return LGConnectionData(A=fc.FormField(1, dim, A_coeff), phi=phi, dim=dim, N=c.N, n=c.n,
                            fd_step=chart.fd_step)


def from_g_connection(cg: LGConnectionData, chart: ExtendedChart) -> LGConnectionData:
    """Read (A, Phi) back off the canonical section: the base slots of
    ``cg.A`` and ``cg.phi`` at the group point where g = identity."""
    u_star = chart.identity_coordinates()

    def section(x):
        return np.concatenate([x, u_star])

    return LGConnectionData(
        A=fc.FormField(1, chart.base_dim, lambda x, idx: cg.A.coeff(section(x), idx)),
        phi=lambda x: cg.phi(section(x)),
        dim=chart.base_dim,
        N=chart.N,
        n=chart.n,
        fd_step=chart.fd_step,
    )


def g_curvature_components(cg: LGConnectionData, p: np.ndarray) -> dict:
    """Curvature of the assembled G-connection at the chart point p = (x, u),
    componentwise: ``string_cylinder(cg)``, F_IJ = d_I A_J - d_J A_I
    + [A_I, A_J] under (I, J), I < J, and nabla Phi_I, the coefficient of
    dx^I ^ dtheta, under (I,)."""
    cyl = string_cylinder(cg)
    comps = {idx: cyl.beta.coeff(p, idx) for idx in combinations(range(cg.dim), 2)}
    comps.update({(i,): cyl.gamma.coeff(p, (i,)) for i in range(cg.dim)})
    return comps


def transport_target(c: LGConnectionData | LGxS1ConnectionData, chart: ExtendedChart,
                     x: np.ndarray, u: np.ndarray) -> dict:
    """Ad(g^{-1}) of the transported curvature ``string_cylinder(c)``
    componentwise, keyed as ``g_curvature_components``: beta on base pairs,
    gamma on base directions; group slots vanish."""
    g = chart.group_map(u)
    cyl = string_cylinder(c)
    out = {}
    for i in range(c.dim):
        for j in range(i + 1, c.dim):
            out[(i, j)] = lp.adjoint_inverse(g, cyl.beta.coeff(x, (i, j)))
        out[(i,)] = lp.adjoint_inverse(g, cyl.gamma.coeff(x, (i,)))
    return out


def g_curvature_transport_check(
    c: LGConnectionData | LGxS1ConnectionData,
    points,
    chart: ExtendedChart | None = None,
    u: np.ndarray | None = None,
) -> float:
    """Max residual between the finite-difference curvature of the assembled
    G-connection and the closed transport form, over the given base points.
    Takes LG or LG x| S1 data; the latter is checked against the twisted
    transport form.  The default chart takes the data's step.

    The G-connection is assembled anew at each base point: two base points
    share no chart point, so nothing in its memos serves the next one, and
    they go with it; the group points stay on the chart's ``group_map``."""
    chart = chart or ExtendedChart(base_dim=c.dim, N=c.N, n=c.n, fd_step=c.fd_step)
    u = u if u is not None else np.zeros(chart.group_dim)
    residuals = []
    for x in points:
        cg = to_g_connection(c, chart)
        x = np.asarray(x, dtype=float)
        target = transport_target(c, chart, x, u)
        for key, val in g_curvature_components(cg, np.concatenate([x, u])).items():
            residuals.append(np.max(np.abs(val - target[key] if key in target else val)))
    return fc._worst(residuals)

