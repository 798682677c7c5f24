"""Seeded generation of band-limited test data.

Test loops are built from random Fourier coefficients up to a cutoff
frequency well below Nyquist, so the spectral calculus resolves them
exactly and residuals measure implementation error, not discretization.
Chart coefficient functions are low-degree polynomials, on which central
differences are accurate to O(h^2) with tiny constants.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Callable

import numpy as np

from . import formscalc as fc
from . import loopspace as lp
from .connections import LGConnectionData, LGxS1ConnectionData


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Per-check generator: child of (seed, crc32(name)). Draw order is
    fixed by each builder below, so identical (seed, name) replay exactly."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(name.encode())])


def random_algebra(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * _random_algebras(rng, 1, n)[0]


def _random_algebras(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m draws of ``random_algebra`` from one normal draw: the same stream,
    and the same values bit for bit, as m separate calls."""
    g = rng.standard_normal((m, 2, n, n))
    z = g[:, 0] + 1j * g[:, 1]
    x = 0.5 * (z - z.conj().swapaxes(-1, -2))
    x -= (np.trace(x, axis1=-2, axis2=-1) / n)[:, None, None] * np.eye(n)
    return x


def random_group(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return lp.exp_loop(random_algebra(rng, n, scale))


@lru_cache(maxsize=32)  # a run draws on a handful of (N, kmax) grids
def _trig_table(N: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos(k theta) and sin(k theta), k = 0..kmax, on the grid:
    every caller shares them."""
    theta = lp.grid(N)
    table = tuple(np.array([f(k * theta) for k in range(kmax + 1)]) for f in (np.cos, np.sin))
    for t in table:
        t.flags.writeable = False
    return table


def bandlimited_algebra_loop(
    rng: np.random.Generator, N: int, n: int, kmax: int = 3, scale: float = 0.5
) -> np.ndarray:
    return _bandlimited_algebra_loops(rng, 1, N, n, kmax, scale)[0]


def _bandlimited_algebra_loops(
    rng: np.random.Generator, m: int, N: int, n: int, kmax: int, scale: float
) -> np.ndarray:
    """m draws of ``bandlimited_algebra_loop`` as one (m, N, n, n) stack,
    from one normal draw: the same stream, and the same values bit for bit,
    as m separate calls."""
    # draw order per loop: the cos-0 element, then the cos-k, sin-k pair for each k
    x = _random_algebras(rng, m * (2 * kmax + 1), n).reshape(m, 2 * kmax + 1, n, n)
    cos, sin = _trig_table(N, kmax)
    out = np.zeros((m, N, n, n), dtype=complex)
    out += cos[0][:, None, None] * x[:, None, 0]
    for k in range(1, kmax + 1):
        out += cos[k][:, None, None] * x[:, None, 2 * k - 1]
        out += sin[k][:, None, None] * x[:, None, 2 * k]
    return scale * out / (kmax + 1)


def bandlimited_group_loop(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    return lp.exp_loop(bandlimited_algebra_loop(rng, N, n))


def random_poly(rng: np.random.Generator, dim: int, scale: float = 1.0) -> Callable:
    """Random cubic-ish polynomial chart function."""
    c0 = rng.standard_normal()
    c1 = rng.standard_normal(dim)
    c2 = rng.standard_normal((dim, dim)) / dim
    c3 = rng.standard_normal(dim) / (3.0 * dim)

    def f(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return scale * (c0 + c1 @ x + x @ c2 @ x + c3 @ (x ** 3))

    return f


def random_loop_one_form(
    rng: np.random.Generator, dim: int, N: int, n: int, kmax: int = 3
) -> fc.FormField:
    """Loop-algebra-valued 1-form: each component a mixture of two
    poly/loop terms, scaled by 0.6."""
    terms = 2
    polys = [[random_poly(rng, dim) for _ in range(terms)] for _ in range(dim)]
    loops = _bandlimited_algebra_loops(rng, dim * terms, N, n, kmax, 1.0).reshape(
        dim, terms, N, n, n
    )

    def coeff(p, idx):
        (i,) = idx
        out = np.zeros((N, n, n), dtype=complex)
        for f, xi in zip(polys[i], loops[i]):
            out += f(p) * xi
        return 0.6 * out / terms

    return fc.FormField(1, dim, coeff)


def random_real_one_form(rng: np.random.Generator, dim: int) -> fc.FormField:
    polys = [random_poly(rng, dim) for _ in range(dim)]

    def coeff(p, idx):
        (i,) = idx
        return 0.4 * polys[i](p)

    return fc.FormField(1, dim, coeff)


def random_higgs_field(rng: np.random.Generator, dim: int, N: int, n: int) -> fc.FormField:
    """Loop-algebra-valued 0-form p |-> 0.6 sum_j p_j(p) xi_j(theta) / 2,
    two terms with kmax = 3."""
    terms = 2
    polys = [random_poly(rng, dim) for _ in range(terms)]
    loops = _bandlimited_algebra_loops(rng, terms, N, n, 3, 1.0)

    def phi(p, idx):
        out = np.zeros((N, n, n), dtype=complex)
        for f, xi in zip(polys, loops):
            out += f(p) * xi
        return 0.6 * out / terms

    return fc.FormField(0, dim, phi)


def random_lg_connection(
    rng: np.random.Generator, dim: int, N: int, n: int, fd_step: float = 1e-4
):
    A = random_loop_one_form(rng, dim, N, n)
    phi = random_higgs_field(rng, dim, N, n)
    return LGConnectionData(A=A, phi=phi, dim=dim, N=N, n=n, fd_step=fd_step)


def random_lgxs1_connection(
    rng: np.random.Generator, dim: int, N: int, n: int, fd_step: float = 1e-4
):
    A = random_loop_one_form(rng, dim, N, n)
    a = random_real_one_form(rng, dim)
    phi = random_higgs_field(rng, dim, N, n)
    return LGxS1ConnectionData(A=A, a=a, phi=phi, dim=dim, N=N, n=n, fd_step=fd_step)


def random_gauge_loop(rng: np.random.Generator, dim: int, N: int, n: int) -> fc.FormField:
    """Smooth chart -> LG map x |-> exp(sum_j p_j(x) xi_j(theta) / 2), a
    0-form: two terms, polynomials scaled by 0.5, loops with kmax = 2."""
    terms = 2
    polys = [random_poly(rng, dim, scale=0.5) for _ in range(terms)]
    loops = _bandlimited_algebra_loops(rng, terms, N, n, 2, 1.0)

    def sigma(p, idx):
        acc = np.zeros((N, n, n), dtype=complex)
        for f, xi in zip(polys, loops):
            acc += f(p) * xi
        return lp.exp_loop(acc / terms)

    return fc.FormField(0, dim, sigma)


def random_semidirect_gauge(rng: np.random.Generator, dim: int, N: int, n: int) -> fc.FormField:
    """Smooth chart -> LG x| S1 map, a 0-form with SemiDirectGroupElement values."""
    loop_part = random_gauge_loop(rng, dim, N, n)
    angle_poly = random_poly(rng, dim, scale=0.3)

    def sigma(p, idx):
        return lp.SemiDirectGroupElement(loop_part(p), angle_poly(p))

    return fc.FormField(0, dim, sigma)


def random_chart_points(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    return [0.4 * rng.standard_normal(dim) for _ in range(count)]


def random_frame(rng: np.random.Generator, n: int, count: int) -> list[np.ndarray]:
    return list(_random_algebras(rng, count, n))
