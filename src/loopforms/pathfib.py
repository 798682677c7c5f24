"""Geometry of the based path fibration over G.

Points are paths p with p(0) = 1 and periodic logarithmic derivative,
stored as grid samples on [0, 2 pi) plus the explicit endpoint p(2 pi).
Forms on this infinite-dimensional space are only ever contracted with
caller-supplied tangent data (endpoint frame values and loop fields), so
every formula here reduces to grid arithmetic.

The connection uses a cutoff function alpha with alpha(0) = 0,
alpha(2 pi) = 1 and flat endpoints; the degree-three comparison against
the bi-invariant generator hinges on Int (alpha^2 - alpha) alpha' dtheta
being exactly -1/6, which holds for every admissible cutoff.  One
contraction gives the string class of every degree 2k - 1 on a frame; the
degree-three class is its k = 2 case at f = p1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, pi, prod, sqrt

import numpy as np

from . import formscalc as fc
from . import loopspace as lp
from .liecore import InvariantPolynomial, eval_invariant_polynomial, killing, logarithm
from .liecore import pontrjagyn_polynomial


@dataclass(frozen=True)
class PathPoint:
    """Grid samples of a path with p(0) = 1, plus the endpoint p(2 pi)."""

    samples: np.ndarray  # (N, n, n)
    endpoint: np.ndarray  # (n, n)

    @property
    def N(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class PathTangent:
    """Right-translated components r(theta) = (delta p) p^{-1} plus the
    endpoint value r(2 pi)."""

    right_field: np.ndarray  # (N, n, n)
    endpoint: np.ndarray  # (n, n)


def tangent_from_based_loop(p: PathPoint, xi: np.ndarray) -> PathTangent:
    """Fundamental vector field of a based algebra loop (xi(0) = 0)."""
    r = lp.adjoint(p.samples, xi)
    end = np.zeros_like(p.endpoint)
    return PathTangent(r, end)


def horizontal_tangent(p: PathPoint, V: np.ndarray, alpha: "CutoffFunction") -> PathTangent:
    """h = alpha(theta) V as a right field; endpoint value V (alpha(2 pi) = 1)."""
    r = alpha.values[:, None, None] * np.broadcast_to(V, (p.N,) + V.shape)
    return PathTangent(r.astype(complex), V.astype(complex))


@dataclass(frozen=True)
class CutoffFunction:
    """Samples of alpha on the grid together with its exact derivative."""

    values: np.ndarray  # alpha(theta_j)
    derivative: np.ndarray  # alpha'(theta_j)


def _bump_at(t: np.ndarray, sharpness: float, wobble: float) -> np.ndarray:
    """The bump on interior points 0 < t < 2 pi (zero at the ends)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 2.0 * pi)
    ti = t[inside]
    vals = np.exp(-sharpness / (ti * (2.0 * pi - ti)))
    if wobble:
        vals *= 1.0 + wobble * np.sin(ti / 2.0) ** 2
    out[inside] = vals
    return out


def _bump_cutoff(N: int, sharpness: float = 1.0, wobble: float = 0.0) -> CutoffFunction:
    # cumulative integral through the Fourier antiderivative on a 16 times
    # finer grid: the bump is flat to all orders at the seam but only
    # subgeometrically resolved, so the refinement buys back accuracy
    fine = 16
    M = fine * N
    theta = lp.grid(M)
    b = _bump_at(theta, sharpness, wobble)
    ch = np.fft.fft(b) / M
    k = np.fft.fftfreq(M, d=1.0 / M)
    osc_hat = np.where(k != 0, ch / (1j * np.where(k == 0, 1.0, k)), 0.0)
    osc = np.fft.ifft(osc_hat * M).real
    cumulative = ch[0].real * theta + (osc - osc[0])
    total = ch[0].real * 2.0 * pi
    return CutoffFunction(
        values=cumulative[::fine] / total, derivative=b[::fine] / total
    )


def default_cutoff(N: int) -> CutoffFunction:
    """alpha(theta) = Int_0^theta b / Int_0^{2 pi} b for the standard bump."""
    return _bump_cutoff(N)


def alternate_cutoff(N: int) -> CutoffFunction:
    """A second admissible cutoff, for choice-independence probes."""
    return _bump_cutoff(N, sharpness=2.0, wobble=0.7)


def pf_connection(p: PathPoint, X: PathTangent, alpha: CutoffFunction) -> np.ndarray:
    """A(X) = Ad(p^{-1})(r - alpha(theta) r(2 pi))."""
    inner = X.right_field - alpha.values[:, None, None] * X.endpoint
    return lp.adjoint_inverse(p.samples, inner)


def pf_curvature(
    p: PathPoint, V: np.ndarray, W: np.ndarray, alpha: CutoffFunction
) -> np.ndarray:
    """F(X, Y) = (1/2)(alpha^2 - alpha) Ad(p^{-1})[V, W] on endpoint data."""
    comm = V @ W - W @ V
    weight = 0.5 * (alpha.values ** 2 - alpha.values)
    return weight[:, None, None] * lp.adjoint_inverse(p.samples, comm)


def pf_higgs(p: PathPoint) -> np.ndarray:
    """Logarithmic derivative p^{-1} dp on the grid.

    The path is quasi-periodic, p(theta + 2 pi) = p(2 pi) p(theta), so
    v(theta) = exp(-theta L / 2 pi) p(theta) with L = log p(2 pi) is
    periodic and the derivative can be taken spectrally on v:
    p^{-1} dp = Ad(v^{-1}) L / 2 pi + v^{-1} dv, the gauge shift of L / 2 pi by v.
    """
    L = logarithm(p.endpoint)
    theta = lp.grid(p.N)
    ramp = lp.exp_loop(np.einsum("j,kl->jkl", -theta / (2.0 * pi), L))
    v = lp.loop_product(ramp, p.samples)
    return lp.gauge_shift(v, L / (2.0 * pi))


def pf_nabla_phi(p: PathPoint, V: np.ndarray, alpha: CutoffFunction) -> np.ndarray:
    """nabla Phi contracted on endpoint data: alpha'(theta) Ad(p^{-1}) V."""
    return alpha.derivative[:, None, None] * lp.adjoint_inverse(p.samples, V)


def _antisym_eval(contractions, degrees, frame):
    """Antisymmetrization (1/Q!) sum_sigma sgn(sigma) c(frame o sigma) of a
    slot contraction c over a frame.

    ``contractions`` maps a tuple of frame entries (one per slot argument)
    to a value; slots consume ``degrees`` arguments each.  The entries may
    be indices (``range(Q)``) into values the caller computed once per
    frame vector or pair: each block lists its positions in increasing
    order.  Each contraction must be antisymmetric within each slot (the
    2-slots here take ``a@b - b@a``), so the q_i! orderings inside a block
    give equal terms: the sum is ``formscalc._shuffle_sum``, the shuffle
    sum ``poly_wedge`` uses, over the block shuffles only, with weight
    prod q_i! / Q! (30 terms instead of 120 for degrees (1, 2, 2)).
    """
    Q = sum(degrees)
    if len(frame) != Q:
        raise ValueError(f"need {Q} frame vectors, got {len(frame)}")
    total = fc._shuffle_sum(degrees, frame, contractions)
    return total * (prod(factorial(q) for q in degrees) / factorial(Q))


def _frame_values(p: PathPoint, frame, alpha: CutoffFunction):
    """nabla Phi on each frame vector and F on each pair i < j."""
    nab = [pf_nabla_phi(p, V, alpha) for V in frame]
    curv = {
        (i, j): pf_curvature(p, frame[i], frame[j], alpha)
        for i, j in combinations(range(len(frame)), 2)
    }
    return nab, curv


def _string_class(f: InvariantPolynomial, p: PathPoint, frame, alpha: CutoffFunction) -> float:
    """k Int f(nabla Phi, F, ..., F) dtheta, k = deg f, antisymmetrized on a
    (2k-1)-frame of endpoint values."""
    k = f.degree
    if len(frame) != 2 * k - 1:
        raise ValueError("need 2k-1 frame values")
    nab, curv = _frame_values(p, frame, alpha)

    def contraction(blocks):
        args = [nab[blocks[0][0]]] + [curv[pair] for pair in blocks[1:]]
        return lp.circle_integral(eval_invariant_polynomial(f, args))

    return k * _antisym_eval(contraction, (1,) + (2,) * (k - 1), range(len(frame)))


def pf_string_class_vs_generator(
    p: PathPoint, frame, alpha: CutoffFunction
) -> tuple[float, float, float]:
    """The degree-3 string class, k = 2 with f = p1, on an endpoint frame,
    against the degree-three generator (1/48 pi^2) <., [., .]>."""
    lhs = _string_class(pontrjagyn_polynomial(), p, frame, alpha)

    def gen(blocks):
        (a,), (b, c) = blocks
        return killing(a, b @ c - c @ b)

    rhs = _antisym_eval(gen, (1, 2), list(frame)) / (48.0 * pi ** 2)
    return float(lhs), float(rhs), float(abs(lhs - rhs))


def pf_higher_string_vs_transgression(
    f: InvariantPolynomial, p: PathPoint, frame, alpha: CutoffFunction
) -> tuple[float, float, float]:
    """k Int f(nabla Phi, F, ..., F) dtheta, k = deg f, on a (2k-1)-frame of
    endpoint values, against the transgression evaluation of f."""
    lhs = _string_class(f, p, frame, alpha)
    rhs = transgression_tau(f, frame)
    return float(lhs), float(rhs), float(abs(lhs - rhs))


# Magnus steps per grid sample.  A power of two: each block of steps is
# multiplied as a balanced binary tree.
MAGNUS_REFINE = 8


def higgs_holonomy(xi: np.ndarray) -> PathPoint:
    """Solve g' = g xi with g(0) = 1; returns the grid samples and the endpoint.

    Fourth-order Magnus steps on M = MAGNUS_REFINE * N steps of size h:
    with xi at the two Gauss nodes (1/2 -+ sqrt(3)/6) h of each step,
    spectrally interpolated and so exact for band-limited input,
    Omega = h/2 (A1 + A2) + (sqrt(3)/12) h^2 [A1, A2] and
    g(t + h) = g(t) exp(Omega).  The M exponentials are taken in one
    batch and multiplied by a blocked scan (Blelloch 1990): the
    MAGNUS_REFINE steps of each sample's block as a balanced tree,
    ((e0 e1)(e2 e3))((e4 e5)(e6 e7)), batched over the N blocks, then a
    Hillis-Steele inclusive prefix product of the N block totals: 7N +
    sum_r (N - 2^r) loop products instead of sum_r (M - 2^r) for a scan over
    all M steps, whose values at the sample steps are the same products
    in the same order, bit for bit.  The samples and the endpoint are
    polar-projected once, so they are unitary to round-off
    (``loop_inverse`` is the adjoint).  Global error O(h^4) plus the
    round-off of the M-step product.
    """
    N = xi.shape[0]
    M = MAGNUS_REFINE * N
    h = 2.0 * pi / M
    a1 = lp.resample(xi, M, (0.5 - sqrt(3.0) / 6.0) * h)
    a2 = lp.resample(xi, M, (0.5 + sqrt(3.0) / 6.0) * h)
    omega = 0.5 * h * (a1 + a2) + (sqrt(3.0) / 12.0) * h ** 2 * lp.bracket(a1, a2)
    del a1, a2  # M-step arrays: let them go before the exponentials' peak
    block = lp.exp_loop(omega).reshape((N, MAGNUS_REFINE) + xi.shape[1:])
    while block.shape[1] > 1:  # pairwise products inside each block
        block = lp.loop_product(block[:, 0::2], block[:, 1::2])
    prefix = block[:, 0]
    shift = 1
    while shift < N:  # prefix[j] = block_0 ... block_j
        tail = lp.loop_product(prefix[:-shift], prefix[shift:])
        prefix = np.concatenate((prefix[:shift], tail))
        shift *= 2
    eye = np.eye(xi.shape[1], dtype=complex)[None]
    g = lp.project_unitary(np.concatenate((eye, prefix)))
    return PathPoint(g[:N], g[N])


def transgression_tau(f: InvariantPolynomial, frame) -> float:
    """(-1/2)^{k-1} k!(k-1)!/(2k-1)! f(T, [T, T], ..., [T, T]) on a
    (2k-1)-frame, k = deg f."""
    k = f.degree
    if len(frame) != 2 * k - 1:
        raise ValueError("need 2k-1 frame values")

    def contraction(blocks):
        args = [blocks[0][0]]
        for a, b in blocks[1:]:
            args.append(a @ b - b @ a)
        return eval_invariant_polynomial(f, args)

    coeff = (-0.5) ** (k - 1) * factorial(k) * factorial(k - 1) / factorial(2 * k - 1)
    return float(coeff * _antisym_eval(contraction, (1,) + (2,) * (k - 1), list(frame)))


def coefficient_identity(k: int) -> tuple[Fraction, Fraction, bool]:
    """Exact check of k sum_i C(k-1, i) (-1)^i / (k+i) = k!(k-1)!/(2k-1)!."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = Fraction(0)
    for i in range(k):
        lhs += Fraction(comb(k - 1, i) * (-1) ** i, k + i)
    lhs *= k
    rhs = Fraction(factorial(k) * factorial(k - 1), factorial(2 * k - 1))
    return lhs, rhs, lhs == rhs
