"""Connection and Higgs data on trivialized charts, and the string forms.

Everything lives in a fixed trivialization over a chart M: the connection
is a loop-algebra-valued 1-form A (plus a real 1-form a in the rotated
case), the Higgs field a loop-algebra-valued 0-form.  Global statements
(descent, independence of choices) are realized as gauge-transformation
compatibility checks rather than transition-function atlases.

``higher_string_form(f, c)`` is the string form of degree 2k - 1, k = deg f,
on both kinds of data; the degree-3 form is k = 2 at f = p1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import formscalc as fc
from . import loopspace as lp
from .liecore import InvariantPolynomial


class _ConnectionChart:
    """Takes Phi as a 0-form; a plain callable p -> Phi(p) is wrapped into one.

    The forms derived from the data are attributes, built on first use and
    kept on the object: ``dA_dtheta``, the curvature ``F``, the curvature
    ``F_tilde`` that the string forms and cylinders read, and the covariant
    derivative ``nabla_phi`` of the Higgs field, and on LG x| S1 data also
    ``f`` = da.  Every string form, cylinder and curving of one connection
    shares them and their memos.  A changed connection (``gauge_transform``,
    ``dataclasses.replace``) is a new object and builds its own.
    """

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", fc.chart_function(self.phi, self.dim))

    @cached_property
    def dA_dtheta(self) -> fc.FormField:
        """dA/dtheta."""
        return partial_theta(self.A)

    @cached_property
    def F(self) -> fc.FormField:
        """F = dA + (1/2)[A, A]; for LG x| S1 data also - a ^ dA/dtheta."""
        dA = fc.exterior_derivative(self.A, self.fd_step)
        AA = fc.half_bracket(self.A)
        if not isinstance(self, LGxS1ConnectionData):
            return fc.form_sum([dA, AA])
        twist = fc.wedge_scalar(self.a, self.dA_dtheta)
        return fc.form_sum([dA, AA, twist], [1.0, 1.0, -1.0])

    @cached_property
    def F_tilde(self) -> fc.FormField:
        """F; for LG x| S1 data the lifted curvature F + f Phi."""
        if not isinstance(self, LGxS1ConnectionData):
            return self.F
        return fc.form_sum([self.F, fc.wedge_scalar(self.f, self.phi)])

    @cached_property
    def nabla_phi(self) -> fc.FormField:
        """nabla Phi = dPhi + [A, Phi] - dA/dtheta; for LG x| S1 data also
        - a dPhi/dtheta."""
        terms = [fc.exterior_derivative(self.phi, self.fd_step),
                 fc.wedge_bracket(self.A, self.phi), self.dA_dtheta]
        if not isinstance(self, LGxS1ConnectionData):
            return fc.form_sum(terms, [1.0, 1.0, -1.0])
        twist = fc.wedge_scalar(self.a, partial_theta(self.phi))
        return fc.form_sum(terms + [twist], [1.0, 1.0, -1.0, -1.0])


@dataclass(frozen=True)
class LGConnectionData(_ConnectionChart):
    """Chart data (A, Phi) of a loop-group bundle connection."""

    A: fc.FormField
    phi: fc.FormField | Callable[[np.ndarray], np.ndarray]
    dim: int
    N: int
    n: int
    fd_step: float = 1e-4


@dataclass(frozen=True)
class LGxS1ConnectionData(_ConnectionChart):
    """Chart data (A, a, Phi) of a rotation-extended loop-group connection."""

    A: fc.FormField
    a: fc.FormField
    phi: fc.FormField | Callable[[np.ndarray], np.ndarray]
    dim: int
    N: int
    n: int
    fd_step: float = 1e-4

    @cached_property
    def f(self) -> fc.FormField:
        """f = da, the curvature of the circle part."""
        return fc.exterior_derivative(self.a, self.fd_step)


def partial_theta(form: fc.FormField) -> fc.FormField:
    """Loop derivative applied to every coefficient."""
    return fc.FormField(
        form.degree, form.dim, lambda p, idx: lp.loop_derivative(form.coeff(p, idx))
    )


def higher_string_form(
    f: InvariantPolynomial, c: LGConnectionData | LGxS1ConnectionData
) -> fc.FormField:
    """String form of degree 2k-1, k = deg f: k Int f(nabla Phi, F~, ..., F~)
    dtheta, with F~ = ``c.F_tilde``.  At f = p1 it is the degree-3 form
    -(1/4 pi^2) Int <F~, nabla Phi> dtheta."""
    k = f.degree
    if c.dim < 2 * k - 1:
        raise ValueError(f"chart dimension {c.dim} < 2k-1 = {2 * k - 1}")
    slots = [c.nabla_phi] + [c.F_tilde] * (k - 1)
    integrand = fc.poly_wedge(slots, f)
    return fc.form_sum([fc.integrate_loop_form(integrand)], [float(k)])


def string_cylinder(c: LGConnectionData | LGxS1ConnectionData) -> fc.CylinderForm:
    """Curvature on chart x S1: F + nabla Phi ^ dtheta; for LG x| S1 data
    the transported curvature F~ + nabla Phi ^ (a + dtheta), F~ = F + f Phi."""
    if not isinstance(c, LGxS1ConnectionData):
        return fc.CylinderForm(beta=c.F, gamma=c.nabla_phi)
    # nabla Phi ^ a = -a ^ nabla Phi
    beta = fc.form_sum([c.F_tilde, fc.wedge_scalar(c.a, c.nabla_phi)], [1.0, -1.0])
    return fc.CylinderForm(beta=beta, gamma=c.nabla_phi)


def independence_homotopy_form(
    f: InvariantPolynomial, c0: LGConnectionData, c1: LGConnectionData
) -> fc.FormField:
    """Primitive psi with d psi = s(c1) - s(c0), for the string forms of
    degree 2k-1, k = deg f.

    Built on the circle-extended chart from the difference 1-form
    alpha + (Phi_1 - Phi_0) dtheta and the interpolated curvatures,
    integrated in t, then fiber-integrated back.  The t-integrand has
    degree 2(k - 1) in t, so k Gauss-Legendre nodes on [0, 1] are exact.
    """
    if (c0.dim, c0.N, c0.n) != (c1.dim, c1.N, c1.n):
        raise ValueError("connection data live on different discretizations")
    k = f.degree

    alpha = fc.form_sum([c1.A, c0.A], [1.0, -1.0])
    varphi = fc.form_sum([c1.phi, c0.phi], [1.0, -1.0])
    diff_cyl = fc.CylinderForm(beta=alpha, gamma=varphi)

    nodes, weights = np.polynomial.legendre.leggauss(k)
    ts, w = 0.5 * (nodes + 1.0), 0.5 * weights

    terms = []
    for t in ts:
        At = fc.form_sum([c0.A, alpha], [1.0, float(t)])
        phit = fc.form_sum([c0.phi, varphi], [1.0, float(t)])
        ct = LGConnectionData(At, phit, c0.dim, c0.N, c0.n, c0.fd_step)
        cyl_t = string_cylinder(ct)
        terms.append(fc.fiber_integrate_poly_wedge([diff_cyl] + [cyl_t] * (k - 1), f))
    return fc.form_sum([fc.form_sum(terms, list(w))], [float(k)])


def gauge_transform(c, sigma):
    """Change of trivialization by a gauge map sigma, taken as a 0-form (a
    plain callable is wrapped) so that its stencil points are kept.

    LG: A' = Ad(sigma^{-1}) A + ``formscalc.maurer_cartan(sigma)``.  LG x| S1,
    sigma = (gamma, phi): A' = rot_{-phi}(Ad(gamma^{-1}) A - a gamma^{-1} d_theta gamma
    + gamma^{-1} (d sigma)_loop), one rotation, and a' = a + (d sigma)_circle.
    The Higgs field takes the shift ``loopspace.gauge_shift``.
    """
    sigma = fc.chart_function(sigma, c.dim)
    phi = fc.FormField(0, c.dim, lambda p, idx: lp.gauge_shift(sigma(p), c.phi(p)))

    if isinstance(c, LGConnectionData):
        mc = fc.maurer_cartan(sigma, c.fd_step)

        def A_coeff(p, idx):
            return lp.adjoint_inverse(sigma(p), c.A.coeff(p, idx)) + mc.coeff(p, idx)

        return replace(c, A=fc.FormField(1, c.dim, A_coeff), phi=phi)

    if isinstance(c, LGxS1ConnectionData):
        dsigma = fc.exterior_derivative(sigma, c.fd_step)

        def A_coeff(p, idx):
            s = sigma(p)
            g = s.loop_part
            inner = (
                lp.adjoint_inverse(g, c.A.coeff(p, idx))
                - c.a.coeff(p, idx) * s.drift
                + lp.left_translate(g, dsigma.coeff(p, idx).loop_part)
            )
            return lp.rotate(-s.angle, inner)

        def a_coeff(p, idx):
            return c.a.coeff(p, idx) + dsigma.coeff(p, idx).circle_part

        A, a = fc.FormField(1, c.dim, A_coeff), fc.FormField(1, c.dim, a_coeff)
        return replace(c, A=A, a=a, phi=phi)

    raise TypeError(f"unsupported connection data {type(c)!r}")
