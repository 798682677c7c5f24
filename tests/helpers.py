"""Data builders and predicates shared by the unit tests."""

import numpy as np

from loopforms import formscalc as fc
from loopforms.pathfib import PathPoint


def zero_form(dim: int, degree: int, like) -> fc.FormField:
    """The zero form of a degree, with values shaped like ``like``."""
    zero = np.zeros_like(np.asarray(like))
    return fc.FormField(degree, dim, lambda p, idx: zero)


def su2_basis() -> list[np.ndarray]:
    """X_a = -(i/2) sigma_a with [X_1, X_2] = X_3 and cyclic."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return [-0.5j * s1, -0.5j * s2, -0.5j * s3]


def identity_path(N: int, n: int) -> PathPoint:
    """The constant path at the identity of SU(n)."""
    eye = np.broadcast_to(np.eye(n, dtype=complex), (N, n, n)).copy()
    return PathPoint(eye, np.eye(n, dtype=complex))


def is_algebra_element(X: np.ndarray, tol: float = 1e-10) -> bool:
    """X is anti-Hermitian and traceless, within tol."""
    return (
        float(np.max(np.abs(X + X.conj().T))) < tol
        and abs(complex(np.trace(X))) < tol
    )


def is_group_element(g: np.ndarray, tol: float = 1e-10) -> bool:
    """g is unitary with determinant 1, within tol."""
    n = g.shape[0]
    unitarity = float(np.max(np.abs(g @ g.conj().T - np.eye(n))))
    return unitarity < tol and abs(complex(np.linalg.det(g)) - 1.0) < tol
