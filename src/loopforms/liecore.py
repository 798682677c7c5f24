"""Matrix model of su(n)/SU(n) and its invariant polynomials.

Algebra elements are anti-Hermitian traceless complex matrices, group
elements are special unitary matrices, both stored as plain ndarrays.
Products, brackets, adjoint actions and the exponential are those of
``loopspace``, which take single matrices and loops alike; the logarithm
of a group element is ``logarithm`` here, numpy only.  The invariant
bilinear form is ``<X, Y> = -tr(XY)`` in the defining representation;
this is the unique normalization for which the su(2) coroot
``diag(i, -i)`` has squared length 2.

Invariant polynomials are fully symmetrized traces with a scalar
normalization.  The degree-k symmetrized trace of anti-Hermitian
arguments is real after multiplication by i**k; that factor is folded in
here so every evaluation is a real number.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial, pi

import numpy as np

from .loopspace import _check_shapes, loop_product


class ArityError(ValueError):
    """Wrong number of arguments for an invariant polynomial."""


def killing(X: np.ndarray, Y: np.ndarray) -> float | np.ndarray:
    """Normalized invariant form <X, Y> = -Re tr(XY), pointwise over leading
    axes: a float for two matrices, an array for two loops."""
    _check_shapes(X, Y)
    out = np.real(-np.einsum("...ij,...ji->...", X, Y))
    return float(out) if out.ndim == 0 else out


def logarithm(g: np.ndarray) -> np.ndarray:
    """Principal logarithm of one unitary (n, n) matrix, projected onto its
    exactly anti-Hermitian part.

    g = V diag(w) V^-1 by ``eig``; L = V diag(log w) V^-1 with the principal
    log (eigen-angles in (-pi, pi]), and V^-1 applied by ``solve``, not
    V^H, which would assume orthonormal eigenvectors.  Returns
    (L - L^H) / 2.  Raises ValueError for a stack or a non-square input.
    """
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"logarithm takes one square matrix, got shape {g.shape}")
    w, v = np.linalg.eig(g)
    # + 0j makes real eigenvalues complex and turns an imaginary -0.0 into
    # +0.0, so that an eigenvalue -1 has angle pi, never -pi
    L = np.linalg.solve(v.T, (v * np.log(w + 0j)).T).T
    return 0.5 * (L - L.conj().T)


def sun_basis(n: int) -> list[np.ndarray]:
    """A real basis of su(n): rotations, i-symmetric pairs, i-diagonals."""
    if n < 2:
        raise ValueError("n >= 2 required")
    basis: list[np.ndarray] = []
    for j in range(n):
        for k in range(j + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[j, k], a[k, j] = 1.0, -1.0
            basis.append(a / 2.0)
            b = np.zeros((n, n), dtype=complex)
            b[j, k] = b[k, j] = 1j
            basis.append(b / 2.0)
    for j in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        d[:j, :j] = 1j * np.eye(j)
        d[j, j] = -1j * j
        basis.append(d / np.sqrt(2.0 * j * (j + 1)))
    return basis


def algebra_coordinates(X: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Coordinates of X in a (not necessarily orthonormal) algebra basis."""
    m = len(basis)
    gram = np.empty((m, m))
    rhs = np.empty(m)
    for a in range(m):
        rhs[a] = killing(basis[a], X)
        for b in range(m):
            gram[a, b] = killing(basis[a], basis[b])
    return np.linalg.solve(gram, rhs)


@dataclass(frozen=True)
class InvariantPolynomial:
    """Symmetrized trace of fixed degree times a scalar normalization."""

    degree: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")


def pontrjagyn_polynomial() -> InvariantPolynomial:
    """f(X, Y) = -(1/8 pi^2) <X, Y>, the degree-4 characteristic integrand."""
    return InvariantPolynomial(2, -1.0 / (8.0 * pi ** 2))


def eval_invariant_polynomial(f: InvariantPolynomial, args) -> float | np.ndarray:
    """Evaluate the symmetrized trace on k algebra values.

    Arguments may be single matrices (n, n) or stacks (..., n, n); the
    trace is taken over the trailing pair of axes, so loop-valued inputs
    evaluate pointwise along the loop.  The trace is cyclic, so the k!
    orderings fall into (k-1)! classes of equal traces: the sum runs over
    the orderings that keep ``args[0]`` first, each a product of the first
    k-1 factors paired with the last one by a trace.
    """
    k = f.degree
    if len(args) != k:
        raise ArityError(f"expected {k} arguments, got {len(args)}")
    if k == 1:
        acc = np.einsum("...ii->...", args[0])
    else:
        acc = 0.0
        for perm in permutations(args[1:]):
            prod = args[0]
            for x in perm[:-1]:
                prod = loop_product(prod, x)
            acc = acc + np.einsum("...ij,...ji->...", prod, perm[-1])
    out = np.real((1j ** k) * acc) * (f.scale / factorial(k - 1))
    if np.ndim(out) == 0:
        return float(out)
    return out
