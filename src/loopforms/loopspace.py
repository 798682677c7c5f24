"""Discretized loops and their circle calculus.

A loop with values in V is an ndarray whose leading axis holds N uniform
samples at theta_j = 2 pi j / N: shape (N,) for scalars, (N, n, n) for
algebra or group values.  Derivatives and rotations go through the FFT,
so they are exact for band-limited data (all frequencies below N/2).

The group operations ``multiply``, ``left_translate``, ``adjoint``,
``adjoint_inverse``, ``bracket`` and the Higgs gauge shift ``gauge_shift``
take either plain loops (LG) or SemiDirect pairs (LG x| S1); at angle 0
and circle part 0 a pair's formula is the loop one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_GRID_TOL = 1e-12


def grid(N: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(N) / N


def _check_samples(N: int) -> None:
    if N < 4 or N % 2 != 0:
        raise ValueError(f"need an even number of samples >= 4, got {N}")


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    """The package's one shape check: ValueError("shapes differ: A vs B")
    unless a and b have one shape.  ``bracket``, the pair ``adjoint`` and
    ``liecore.killing`` raise through it."""
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")


@lru_cache(maxsize=16)  # a run uses a handful of grid sizes
def _freqs(N: int) -> np.ndarray:
    """Read-only FFT frequencies of an N-sample grid: every caller shares them."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = 0.0  # Nyquist mode has no well-defined derivative
    k.flags.writeable = False
    return k


def loop_derivative(s: np.ndarray) -> np.ndarray:
    """Spectral d/dtheta, entrywise."""
    N = s.shape[0]
    _check_samples(N)
    k = _freqs(N).reshape((N,) + (1,) * (s.ndim - 1))
    ds = np.fft.ifft(1j * k * np.fft.fft(s, axis=0), axis=0)
    return ds.real if np.isrealobj(s) else ds


def circle_integral(s):
    """Periodic rectangle rule (2 pi / N) sum; 2 pi c for a constant."""
    if np.ndim(s) == 0:
        return 2.0 * np.pi * s
    return (2.0 * np.pi / s.shape[0]) * s.sum(axis=0)


def resample(s: np.ndarray, M: int, shift: float) -> np.ndarray:
    """Band-limited interpolant of N samples at the M >= N points 2 pi m / M
    + shift: a phase factor on the zero-padded spectrum, the Nyquist bin
    split over +-N/2 (one bin again at M = N)."""
    N = s.shape[0]
    _check_samples(N)
    half = N // 2
    phase = np.exp(1j * _freqs(N) * shift).reshape((N,) + (1,) * (s.ndim - 1))
    spec = np.fft.fft(s, axis=0) * phase * (M / N)
    out = np.zeros((M,) + s.shape[1:], dtype=complex)
    out[:half] = spec[:half]
    out[M - half + 1 :] = spec[half + 1 :]
    out[half] += 0.5 * np.exp(0.5j * N * shift) * spec[half]
    out[M - half] += 0.5 * np.exp(-0.5j * N * shift) * spec[half]
    res = np.fft.ifft(out, axis=0)
    return res.real if np.isrealobj(s) else res


def rotate(phi: float, s: np.ndarray) -> np.ndarray:
    """Resample theta -> s(theta - phi): an exact cyclic shift for grid
    multiples of 2 pi / N, ``resample`` on the same grid otherwise."""
    N = s.shape[0]
    _check_samples(N)
    step = 2.0 * np.pi / N
    m = phi / step
    if abs(m - round(m)) < _GRID_TOL:
        return np.roll(s, int(round(m)) % N, axis=0)
    return resample(s, N, -phi)


def angle_delta(a2: float, a1: float) -> float:
    """Difference of circle angles mapped to (-pi, pi]."""
    return -((a1 - a2 + np.pi) % (2.0 * np.pi) - np.pi)


# Largest inner dimension that ``loop_product`` multiplies by broadcast
# multiply-adds; from 4 on ``@`` is as fast or faster at 64 samples
# (scripts/loop_product_timeit.py).
LOOP_PRODUCT_MAX_N = 3


def loop_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise matrix product of (..., n, n) stacks, broadcast like ``@``.

    Stacked ``@`` makes one BLAS call per matrix, about 0.3 us each for
    2x2, far above the arithmetic.  For n <= LOOP_PRODUCT_MAX_N the product
    is n broadcast multiply-adds sum_j a[..., :, j] b[..., j, :] over the
    whole stack, accumulated in place into one fresh buffer: every entry
    sums its n terms in increasing j, so a product does not depend on
    where in a stack it sits.  Larger n, and two single matrices, take
    ``@``.  The inputs are only read and the result never aliases them.
    """
    if a.shape[-1] > LOOP_PRODUCT_MAX_N or (a.ndim == 2 and b.ndim == 2):
        return a @ b
    return _broadcast_product(a, b)


def _broadcast_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[..., :, j] b[..., j, :] by broadcast multiply-adds, any n."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    term = np.empty_like(out)
    for j in range(1, a.shape[-1]):
        np.multiply(a[..., :, j, None], b[..., None, j, :], out=term)
        out += term
    return out


def loop_inverse(g: np.ndarray) -> np.ndarray:
    """Pointwise inverse of a unitary loop."""
    return g.conj().swapaxes(-1, -2)


def z_map(g: np.ndarray) -> np.ndarray:
    """gamma -> (d gamma)(theta) gamma(theta)^{-1}."""
    return loop_product(loop_derivative(g), loop_inverse(g))


def exp_loop(xi: np.ndarray) -> np.ndarray:
    """Pointwise exponential of an (n, n) matrix or (..., n, n) stack, the
    package's only one.  One 2x2: exp X = e^mu (cos s I + (sin s / s) Y) with
    mu = tr X / 2, Y = X - mu I, s = sqrt(det Y) in complex arithmetic
    (Cayley-Hamilton, Y^2 = -s^2 I), exact on every complex 2x2 and never
    projected, so a non-anti-Hermitian X gives a non-unitary result.  Stacks
    (for now; ROADMAP item 5) and n >= 3: ``eigh`` of -i xi, which reads one
    triangle of its input."""
    if xi.shape == (2, 2):
        a, b, c, d = xi[..., 0, 0], xi[..., 0, 1], xi[..., 1, 0], xi[..., 1, 1]
        mu, h = 0.5 * (a + d), 0.5 * (a - d)  # Y = [[h, b], [c, -h]]
        s = np.sqrt(-(h * h + b * c) + 0j)
        e = np.exp(mu)
        e_sinc, e_cos = e * np.sinc(s / np.pi), e * np.cos(s)  # sinc: sin s / s, 1 at 0
        out = np.empty(xi.shape, dtype=complex)
        out[..., 0, 0] = e_cos + e_sinc * h
        out[..., 0, 1] = e_sinc * b
        out[..., 1, 0] = e_sinc * c
        out[..., 1, 1] = e_cos - e_sinc * h
        return out
    w, u = np.linalg.eigh(-1j * xi)
    phases = np.exp(1j * w)
    return np.einsum("...ij,...j,...kj->...ik", u, phases, u.conj())


def project_unitary(g: np.ndarray) -> np.ndarray:
    """Polar projection onto the unitary group (via SVD)."""
    u, _, vh = np.linalg.svd(g)
    return loop_product(u, vh)


@dataclass(frozen=True)
class SemiDirectAlgebraElement:
    """Pair (xi, x) in Lg x iR; the factor i of the circle part is implicit."""

    loop_part: np.ndarray
    circle_part: float

    def __add__(self, other: SemiDirectAlgebraElement) -> SemiDirectAlgebraElement:
        return SemiDirectAlgebraElement(
            self.loop_part + other.loop_part, self.circle_part + other.circle_part
        )


@dataclass(frozen=True)
class SemiDirectGroupElement:
    """Pair (gamma, phi) in LG x S1 with angle stored in [0, 2 pi).

    The element keeps d gamma / d theta and the two loops its adjoint
    actions take from it, ``z`` and ``drift``, once asked: a face push or a
    gauge change asks them of one element again and again.
    """

    loop_part: np.ndarray
    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", float(self.angle) % (2.0 * np.pi))

    @cached_property
    def dtheta(self) -> np.ndarray:
        """d gamma / d theta."""
        return loop_derivative(self.loop_part)

    @cached_property
    def z(self) -> np.ndarray:
        """Z(gamma) = d gamma gamma^{-1}, ``z_map`` of the loop part."""
        return loop_product(self.dtheta, loop_inverse(self.loop_part))

    @cached_property
    def drift(self) -> np.ndarray:
        """gamma^{-1} d gamma."""
        return left_translate(self.loop_part, self.dtheta)


def central(plus, minus, h: float):
    """Central-difference quotient (plus - minus) / 2h; for LG x| S1 values the
    angle rate takes the small difference of angles stored mod 2 pi."""
    if isinstance(plus, SemiDirectGroupElement):
        rate = angle_delta(plus.angle, minus.angle) / (2.0 * h)
        return SemiDirectAlgebraElement(central(plus.loop_part, minus.loop_part, h), rate)
    return (plus - minus) / (2.0 * h)


# -- group operations on LG and LG x| S1 ---------------------------------------


def multiply(g1, g2):
    """Pointwise product; (gamma_1, phi_1)(gamma_2, phi_2) =
    (gamma_1 rot_{phi_1}(gamma_2), phi_1 + phi_2)."""
    if isinstance(g1, SemiDirectGroupElement):
        return SemiDirectGroupElement(
            loop_product(g1.loop_part, rotate(g1.angle, g2.loop_part)), g1.angle + g2.angle
        )
    return loop_product(g1, g2)


def adjoint(g, a):
    """Ad(gamma) xi = gamma xi gamma^{-1}, pointwise, for a unitary gamma;
    Ad(gamma, phi)(xi, x) = (Ad(gamma) rot_phi(xi) + x dgamma gamma^{-1}, x)."""
    if isinstance(g, SemiDirectGroupElement):
        _check_shapes(g.loop_part, a.loop_part)
        loop = adjoint(g.loop_part, rotate(g.angle, a.loop_part)) + a.circle_part * g.z
        return SemiDirectAlgebraElement(loop, a.circle_part)
    return loop_product(loop_product(g, a), loop_inverse(g))


def left_translate(g, v):
    """g^{-1} v pointwise for a loop; a tangent (v, x) at (gamma, phi) moves to
    the identity as (rot_{-phi}(gamma^{-1} v), x)."""
    if isinstance(g, SemiDirectGroupElement):
        loop = rotate(-g.angle, left_translate(g.loop_part, v.loop_part))
        return SemiDirectAlgebraElement(loop, v.circle_part)
    return loop_product(loop_inverse(g), v)


def adjoint_inverse(g, a):
    """Ad(gamma^{-1}) xi = gamma^{-1} xi gamma, pointwise, for a unitary gamma;
    Ad(gamma, phi)^{-1}(xi, x) = (rot_{-phi}(Ad(gamma^{-1}) xi - x gamma^{-1} dgamma), x)."""
    if isinstance(g, SemiDirectGroupElement):
        inner = adjoint_inverse(g.loop_part, a.loop_part) - a.circle_part * g.drift
        return SemiDirectAlgebraElement(rotate(-g.angle, inner), a.circle_part)
    return loop_product(left_translate(g, a), g)


def bracket(a, b):
    """[xi, zeta] pointwise; [(xi, x), (zeta, y)] = ([xi, zeta] - x dzeta + y dxi, 0)."""
    if isinstance(a, SemiDirectAlgebraElement):
        xi, zeta = a.loop_part, b.loop_part
        loop = (
            bracket(xi, zeta)
            - a.circle_part * loop_derivative(zeta)
            + b.circle_part * loop_derivative(xi)
        )
        return SemiDirectAlgebraElement(loop, 0.0)
    _check_shapes(a, b)
    return loop_product(a, b) - loop_product(b, a)


def gauge_shift(g, phi):
    """Higgs value after the gauge change g: Ad(g^{-1}) Phi + g^{-1} dg for a
    loop; for a pair, the loop part of Ad(g)^{-1}(Phi, -1), as Phi is the
    dtheta component of a connection."""
    if isinstance(g, SemiDirectGroupElement):
        return adjoint_inverse(g, SemiDirectAlgebraElement(phi, -1.0)).loop_part
    return adjoint_inverse(g, phi) + left_translate(g, loop_derivative(g))
