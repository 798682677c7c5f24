"""Central-extension form data for loop groups and their rotation extension.

All i-prefixed quantities are exposed with the i stripped, so every value
here is real.  The single bridging constant between this normalization
and the string forms is 2 pi: d(curving) = 2 pi * (string form).

Group points are either plain group loops (N, n, n) or
SemiDirectGroupElement pairs; tangents are the matching algebra objects
in the left-translated convention (the tangent at gamma is gamma xi).
Products, adjoint actions and brackets come from the one group interface
of ``loopspace``, which takes either kind; only the formulas that differ
between LG and LG x| S1 (R, alpha, epsilon, the direct curving's twist)
and the exponential curves of ``_flow`` look at the type.  Tangents are pushed through the
nerve face maps exactly, by the adjoint action; d alpha is the one
derivative on the group taken by central differences along exponential
curves, so it is an independent route against the exact delta R.
"""

from __future__ import annotations

from functools import reduce
from math import pi
from typing import Callable

import numpy as np

from . import formscalc as fc
from . import loopspace as lp
from .connections import LGxS1ConnectionData, gauge_transform, higher_string_form
from .liecore import killing, pontrjagyn_polynomial

FD_STEP = 1e-4
BRIDGE_TO_STRING_FORM = 2.0 * pi


def _pair_integral(x, y) -> float:
    """(1/2 pi) Int <x, y> dtheta for algebra loops."""
    return float(lp.circle_integral(killing(x, y))) / (2.0 * pi)


def r_form(point, X, Y) -> float:
    """Left-invariant curvature 2-form of the central extension, i stripped.

    On left-translated probes (xi, zeta) this is
    (1/4 pi) Int <xi, dzeta> - <zeta, dxi> dtheta / 2, which collapses to
    (1/4 pi) Int <xi, dzeta> dtheta by parts; rotation-invariant, so the
    base point never enters.
    """
    xi = X.loop_part if isinstance(X, lp.SemiDirectAlgebraElement) else X
    zeta = Y.loop_part if isinstance(Y, lp.SemiDirectAlgebraElement) else Y
    sym = 0.5 * (killing(xi, lp.loop_derivative(zeta)) - killing(zeta, lp.loop_derivative(xi)))
    return float(lp.circle_integral(sym)) / (4.0 * pi)


def alpha_form(point, tangents) -> float:
    """alpha = (1/2 pi) Int <xi_1, Z(gamma_2)> dtheta (i stripped); on
    LG x| S1 points with the -(1/2) mu Z correction of the rotated extension.
    It reads only gamma_2 and xi_1: at (1, g) on xi, ``alpha_form((None, g), (xi,))``."""
    g2 = point[1]
    t1 = tangents[0]
    if isinstance(g2, lp.SemiDirectGroupElement):
        z2 = g2.z
        probe = t1.loop_part - 0.5 * t1.circle_part * z2
        return _pair_integral(probe, z2)
    return _pair_integral(t1, lp.z_map(g2))


# -- group curves and derivatives -------------------------------------------

def _flow(point, tangent, t: float):
    """Left-translated exponential curve through a group point."""
    if isinstance(point, lp.SemiDirectGroupElement):
        step = lp.SemiDirectGroupElement(
            lp.exp_loop(t * tangent.loop_part), t * tangent.circle_part
        )
    else:
        step = lp.exp_loop(t * tangent)
    return lp.multiply(point, step)


def nerve_faces(length: int):
    """Reach tables of the length+1 face maps G^length -> G^{length-1} of the
    group nerve: drop first, multiply adjacent pairs, drop last.

    Output component c of a face is the ordered product of the input slots
    ``reach[c]``, so the table both defines the face and says which slot
    tangents reach which component.
    """
    slots = [(s,) for s in range(length)]
    merges = [slots[: i - 1] + [(i - 1, i)] + slots[i + 1 :] for i in range(1, length)]
    return [tuple(r) for r in [slots[1:]] + merges + [slots[:-1]]]


def _product(values):
    return reduce(lp.multiply, values)


def face_map(reach, points):
    """Image of a point of G^length under the face with this reach table."""
    return tuple(_product([points[s] for s in slots]) for slots in reach)


def _push_tangents(reach, points, tangents):
    """Differential of a face map on left-translated tangents, exactly.

    Slot s of an output component contributes Ad(later^{-1}) of its
    tangent, ``later`` the product of the slots after s in that component;
    the contributions are summed in slot order.
    """
    pushed = []
    for slots in reach:
        total = None
        for m, s in enumerate(slots):
            later, term = slots[m + 1 :], tangents[s]
            if later:
                term = lp.adjoint_inverse(_product([points[k] for k in later]), term)
            total = term if total is None else total + term
        pushed.append(total)
    return tuple(pushed)


def simplicial_delta_eval(form: Callable, points, *tangent_sets) -> float:
    """(delta form) at a point of G^{m+1} on left-translated tangents.

    ``form`` takes (points, tangents, ...) on G^m, one tuple of slot
    tangents per form argument: one set for a 1-form, two for a 2-form.
    Tangents are pushed through each nerve face map exactly.
    """
    total = 0.0
    for i, reach in enumerate(nerve_faces(len(points))):
        pushed = [_push_tangents(reach, points, tangents) for tangents in tangent_sets]
        total += (-1.0) ** i * form(face_map(reach, points), *pushed)
    return total


def _r_eval(points, tans_x, tans_y) -> float:
    return r_form(points[0], tans_x[0], tans_y[0])


def d_alpha(points, tans_x, tans_y, h: float = FD_STEP) -> float:
    """Exterior derivative of alpha on left-invariant extensions:
    d alpha(X, Y) = (1/2)(X(alpha(Y)) - Y(alpha(X)) - alpha([X, Y])).

    alpha at (g_1, g_2) on (xi_1, xi_2) reads only g_2 and xi_1, so a
    directional derivative flows the second group slot alone."""
    g1, g2 = points

    def directional(tans_flow, tans_eval):
        plus = alpha_form((g1, _flow(g2, tans_flow[1], h)), tans_eval)
        minus = alpha_form((g1, _flow(g2, tans_flow[1], -h)), tans_eval)
        return lp.central(plus, minus, h)

    bracket = tuple(lp.bracket(x, y) for x, y in zip(tans_x, tans_y))
    return 0.5 * (
        directional(tans_x, tans_y)
        - directional(tans_y, tans_x)
        - alpha_form(points, bracket)
    )


def d_alpha_vs_delta_r(points, tans_x, tans_y, h: float = FD_STEP) -> float:
    """|d alpha - delta R| at a pair point on a tangent pair: d alpha by
    central differences at step h, delta R exact."""
    lhs = d_alpha(points, tans_x, tans_y, h)
    rhs = simplicial_delta_eval(_r_eval, points, tans_x, tans_y)
    return abs(lhs - rhs)


def verify_delta_alpha_zero(points, tangents) -> float:
    """|delta alpha| at a triple point; vanishes for both groups."""
    return abs(simplicial_delta_eval(alpha_form, points, tangents))


# -- the lifting-gerbe connection correction epsilon -------------------------

def epsilon_form(c, tau: Callable, point: np.ndarray, X: np.ndarray) -> float:
    """epsilon on the two-section chart model of the fibre product.

    tau maps chart points to group values (the gauge difference of the two
    sections); X is a single chart tangent, which moves both sections.
    epsilon is alpha at (1, tau(p)) on A(X), with a(X) added on LG x| S1.
    """
    X = np.asarray(X, dtype=float)
    AX = fc.evaluate(c.A, point, [X])
    if isinstance(c, LGxS1ConnectionData):
        AX = lp.SemiDirectAlgebraElement(AX, fc.evaluate(c.a, point, [X]))
    return alpha_form((None, tau(point)), (AX,))


def delta_epsilon_vs_tau_alpha(
    c, tau12: Callable, tau23: Callable, point: np.ndarray, X: np.ndarray
) -> float:
    """Residual of delta epsilon = tau^* alpha over a triple of sections.

    Sections s1, s2 = s1 tau12, s3 = s2 tau23; epsilon_{ij} is evaluated
    with the connection in trivialization i, obtained by gauge transform.
    The tau pushforwards use the connection's step ``c.fd_step``.
    """
    point = np.asarray(point, dtype=float)

    def tau13(p):
        return _product([tau12(p), tau23(p)])

    c2 = gauge_transform(c, tau12)
    eps23 = epsilon_form(c2, tau23, point, X)
    eps13 = epsilon_form(c, tau13, point, X)
    eps12 = epsilon_form(c, tau12, point, X)
    lhs = eps23 - eps13 + eps12

    # tau^* alpha on the left-translated pushforwards of X
    h, X = c.fd_step, np.asarray(X, dtype=float)
    t12, t23 = tau12(point), tau23(point)
    xi12, xi23 = (
        lp.left_translate(t, lp.central(tau(point + h * X), tau(point - h * X), h))
        for tau, t in ((tau12, t12), (tau23, t23))
    )
    return abs(lhs - alpha_form((t12, t23), (xi12, xi23)))


# -- curvings ----------------------------------------------------------------

def curving_direct(c) -> fc.FormField:
    """B = (1/2 pi) Int (1/2)<A, dA/dtheta> - <F, Phi> dtheta for plain loop
    data; with the rotation twist, (1/4 pi) Int <A, dA/dtheta>
    - 2 <F + (1/2) f Phi, Phi> dtheta.  Real 2-form, i stripped."""
    lifted = c.F
    if isinstance(c, LGxS1ConnectionData):
        lifted = fc.form_sum([c.F, fc.wedge_scalar(c.f, c.phi)], [1.0, 0.5])
    inner = fc.form_sum(
        [fc.wedge_pair(c.A, c.dA_dtheta), fc.wedge_pair(lifted, c.phi)], [0.5, -1.0]
    )
    return fc.form_sum([fc.integrate_loop_form(inner)], [1.0 / (2.0 * pi)])


def extension_cocycle(a: lp.SemiDirectAlgebraElement, b: lp.SemiDirectAlgebraElement) -> float:
    """omega((xi, x), (zeta, y)) = (1/2 pi) Int <xi, dzeta> dtheta."""
    return _pair_integral(a.loop_part, lp.loop_derivative(b.loop_part))


def reduced_splitting(phi_value: np.ndarray, a: lp.SemiDirectAlgebraElement) -> float:
    """ell(p, (xi, x)) = -(1/2 pi) Int <xi + (1/2) x Phi(p), Phi(p)> dtheta."""
    probe = a.loop_part + 0.5 * a.circle_part * phi_value
    return -_pair_integral(probe, phi_value)


def group_cocycle_sigma(g: lp.SemiDirectGroupElement, a: lp.SemiDirectAlgebraElement) -> float:
    """sigma((gamma, phi)^{-1}, (xi, x)) = alpha_{((1,1),(gamma,phi))}((xi, x), 0)."""
    return alpha_form((None, g), (a,))


def reduced_splitting_transformation_residual(
    phi_value: np.ndarray, g: lp.SemiDirectGroupElement, a: lp.SemiDirectAlgebraElement
) -> float:
    """|ell(p, xi) - ell(pg, ad(g^{-1}) xi) - sigma(g^{-1}, xi)|."""
    lhs = reduced_splitting(phi_value, a)
    phi_moved = lp.gauge_shift(g, phi_value)
    a_moved = lp.adjoint_inverse(g, a)
    rhs = reduced_splitting(phi_moved, a_moved) + group_cocycle_sigma(g, a)
    return abs(lhs - rhs)


def splitting_curving(c: LGxS1ConnectionData) -> fc.FormField:
    """B = (1/2) omega(A, A) + ell(p, F) from the reduced splitting."""
    F, f = c.F, c.f

    def coeff(p, idx):
        i, j = idx
        phi = c.phi(p)
        Ai = c.A.coeff(p, (i,))
        Aj = c.A.coeff(p, (j,))
        ai = float(c.a.coeff(p, (i,)))
        aj = float(c.a.coeff(p, (j,)))
        sd_i = lp.SemiDirectAlgebraElement(Ai, ai)
        sd_j = lp.SemiDirectAlgebraElement(Aj, aj)
        omega_AA = extension_cocycle(sd_i, sd_j) - extension_cocycle(sd_j, sd_i)
        F_ij = lp.SemiDirectAlgebraElement(
            F.coeff(p, idx), float(f.coeff(p, idx))
        )
        return 0.5 * omega_AA + reduced_splitting(phi, F_ij)

    return fc.FormField(2, c.dim, coeff)


def three_curvature_descent_check(c, points, sigma: Callable | None = None) -> float:
    """Residual of d(curving) = 2 pi * (string form at f = p1), plus gauge invariance
    of d(curving) when a gauge function is supplied.  d(curving) is taken
    with the connection's step ``c.fd_step``."""
    B = curving_direct(c)
    dB = fc.exterior_derivative(B, c.fd_step)
    s = higher_string_form(pontrjagyn_polynomial(), c)
    diff = fc.form_sum([dB, s], [1.0, -BRIDGE_TO_STRING_FORM])
    worst = fc.max_coeff(diff, points)
    if sigma is not None:
        ct = gauge_transform(c, sigma)
        dBt = fc.exterior_derivative(curving_direct(ct), c.fd_step)
        gauge_diff = fc.form_sum([dB, dBt], [1.0, -1.0])
        worst = fc._worst([worst, fc.max_coeff(gauge_diff, points)])
    return worst
