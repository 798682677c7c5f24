"""Connection-level transport between loop-group data over M and ordinary
G-connections over the circle-extended total space.

The caloron correspondence reads a G-connection over M x S1 as LG data
(A, Phi) with Phi its dtheta component.  So the assembled G-connection is
``LGConnectionData`` on the extended chart's (base, group) coordinates,
every coefficient a loop over the theta grid, and its curvature is that
data's ``cylinder``: F on chart pairs, nabla Phi on (direction, theta).
``g_curvature_components`` reads the cylinder of any connection data, so
the transport check reads both of its sides with it: the G-connection's
curvature at (x, u), and Ad(g(u)^{-1}) of the base data's transported
curvature at x.  Base and group derivatives are the one stencil
``formscalc.exterior_derivative``; theta derivatives are spectral.
``on_section`` reads any form on the extended chart back on the base, as
its pullback along x -> (x, u): the data off the canonical section, or the
fibre integral of p1 of the G-curvature, which is the string class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import formscalc as fc
from . import loopspace as lp
from .connections import LGConnectionData, LGxS1ConnectionData
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


def on_section(form: fc.FormField, chart: ExtendedChart, u: np.ndarray) -> fc.FormField:
    """Pullback of a form on the extended chart along the section x -> (x, u):
    ``formscalc.pullback`` with the constant Jacobian, whose base rows are
    the identity.  A base component comes back bit for bit as the form's
    component at (x, u); group components drop out."""
    b = chart.base_dim
    jacobian = np.eye(b + chart.group_dim, b)
    return fc.pullback(form, lambda x: np.concatenate([x, u]), b, lambda x: jacobian)


def from_g_connection(cg: LGConnectionData, chart: ExtendedChart) -> LGConnectionData:
    """Read (A, Phi) back off the canonical section: ``cg.A`` and ``cg.phi``
    pulled back along x -> (x, u*), where g(u*) = identity."""
    u_star = chart.identity_coordinates()
    return LGConnectionData(
        A=on_section(cg.A, chart, u_star),
        phi=on_section(cg.phi, chart, u_star),
        dim=chart.base_dim,
        N=chart.N,
        n=chart.n,
        fd_step=chart.fd_step,
    )


def g_curvature_components(c: LGConnectionData | LGxS1ConnectionData, p: np.ndarray) -> dict:
    """The curvature ``c.cylinder`` of any connection data at the chart point
    p, componentwise: beta under each pair (I, J), I < J, and gamma, the
    coefficient of dx^I ^ dtheta, under (I,).  On the assembled G-connection
    at p = (x, u) these are F_IJ = d_I A_J - d_J A_I + [A_I, A_J] and
    nabla Phi_I."""
    cyl = c.cylinder
    comps = {idx: cyl.beta.coeff(p, idx) for idx in combinations(range(c.dim), 2)}
    comps.update({(i,): cyl.gamma.coeff(p, (i,)) for i in range(c.dim)})
    return comps


def g_curvature_transport_check(
    c: LGConnectionData | LGxS1ConnectionData,
    points,
    chart: ExtendedChart | None = None,
    u: np.ndarray | None = None,
) -> float:
    """Max residual between the finite-difference curvature of the assembled
    G-connection at (x, u) and the closed transport form, Ad(g(u)^{-1}) of
    the base data's ``cylinder`` at x, over the given base points; both
    sides are read by ``g_curvature_components``, and a group component,
    which has no base key, is compared with 0.  Takes LG or LG x| S1 data;
    the latter is checked against the twisted transport form.  The default
    chart takes the data's step, and the G-connection is assembled once for
    all base points."""
    chart = chart or ExtendedChart(base_dim=c.dim, N=c.N, n=c.n, fd_step=c.fd_step)
    u = u if u is not None else np.zeros(chart.group_dim)
    cg = to_g_connection(c, chart)
    g = chart.group_map(u)
    residuals = []
    for x in points:
        x = np.asarray(x, dtype=float)
        base = g_curvature_components(c, x)
        for key, val in g_curvature_components(cg, np.concatenate([x, u])).items():
            if key in base:
                val = val - lp.adjoint_inverse(g, base[key])
            residuals.append(np.max(np.abs(val)))
    return fc._worst(residuals)

