import re
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import logm

from loopforms import liecore, sampling
from loopforms.liecore import (
    ArityError,
    InvariantPolynomial,
    eval_invariant_polynomial,
    killing,
    sun_basis,
)
from loopforms.loopspace import adjoint, bracket, exp_loop
from loopforms.report import check_ad_invariance_identity

from helpers import is_algebra_element, is_group_element, su2_basis

RNG = np.random.default_rng(101)
X1, X2, X3 = su2_basis()
H = np.diag([1j, -1j])


def su2_elements():
    return st.lists(
        st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3
    ).map(lambda c: c[0] * X1 + c[1] * X2 + c[2] * X3)


class TestBracket:
    def test_self_bracket_vanishes(self):
        x = sampling.random_algebra(RNG, 2)
        assert np.max(np.abs(bracket(x, x))) == 0.0

    def test_su2_structure_constants(self):
        # direct 2x2 computation: [X1, X2] = X3 and cyclic
        assert np.allclose(bracket(X1, X2), X3, atol=1e-15)
        assert np.allclose(bracket(X2, X3), X1, atol=1e-15)
        assert np.allclose(bracket(X3, X1), X2, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(su2_elements(), su2_elements())
    def test_antisymmetry(self, x, y):
        assert np.max(np.abs(bracket(x, y) + bracket(y, x))) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(su2_elements(), su2_elements(), su2_elements())
    def test_jacobi(self, x, y, z):
        res = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert np.max(np.abs(res)) < 1e-13

    def test_closure(self):
        x = sampling.random_algebra(RNG, 3)
        y = sampling.random_algebra(RNG, 3)
        assert is_algebra_element(bracket(x, y))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"shapes differ: \(2, 2\) vs \(3, 3\)"):
            bracket(sampling.random_algebra(RNG, 2), sampling.random_algebra(RNG, 3))


class TestKilling:
    def test_zero(self):
        x = sampling.random_algebra(RNG, 2)
        assert killing(x, np.zeros((2, 2), dtype=complex)) == 0.0

    def test_dimension_mismatch(self):
        # the one shape check of loopspace, as bracket raises it
        x, y = np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex)
        with pytest.raises(ValueError, match=r"shapes differ: \(2, 2\) vs \(3, 3\)"):
            killing(x, y)

    def test_coroot_normalization(self):
        # -tr(diag(-1, -1)) = 2
        assert killing(H, H) == pytest.approx(2.0, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(su2_elements(), su2_elements())
    def test_symmetry(self, x, y):
        assert killing(x, y) == pytest.approx(killing(y, x), abs=1e-12)

    def test_ad_invariance(self):
        worst = 0.0
        for _ in range(100):
            g = sampling.random_group(RNG, 2)
            x = sampling.random_algebra(RNG, 2)
            y = sampling.random_algebra(RNG, 2)
            worst = max(
                worst,
                abs(killing(adjoint(g, x), adjoint(g, y)) - killing(x, y)),
            )
        assert worst < 1e-10


class TestAdjoint:
    def test_identity(self):
        x = sampling.random_algebra(RNG, 2)
        assert np.allclose(adjoint(np.eye(2, dtype=complex), x), x)

    def test_group_action_inverse(self):
        g = sampling.random_group(RNG, 2)
        x = sampling.random_algebra(RNG, 2)
        back = adjoint(g, adjoint(g.conj().T, x))
        assert np.max(np.abs(back - x)) < 1e-13

    def test_su2_rotation(self):
        # Ad(exp(t X3)) X1 = cos t X1 + sin t X2
        for t in (0.3, 1.2, 2.9):
            got = adjoint(exp_loop(t * X3), X1)
            want = np.cos(t) * X1 + np.sin(t) * X2
            assert np.max(np.abs(got - want)) < 1e-13


class TestExponential:
    def test_zero(self):
        assert np.allclose(exp_loop(np.zeros((2, 2))), np.eye(2))

    def test_inverse(self):
        x = sampling.random_algebra(RNG, 2, 2.0)
        assert np.max(np.abs(exp_loop(x) @ exp_loop(-x) - np.eye(2))) < 1e-13

    def test_pi_coroot_is_minus_identity(self):
        assert np.max(np.abs(exp_loop(np.pi * H) + np.eye(2))) < 1e-13

    def test_unitarity_at_large_norm(self):
        x = sampling.random_algebra(RNG, 2)
        x *= 10.0 / np.linalg.norm(x)
        g = exp_loop(x)
        assert np.max(np.abs(g @ g.conj().T - np.eye(2))) < 1e-12
        assert is_group_element(g, tol=1e-11)


class TestLogarithm:
    @pytest.mark.parametrize("n", [2, 3])
    def test_inverts_exponential_on_random_group(self, n):
        for _ in range(20):
            g = sampling.random_group(RNG, n)
            L = liecore.logarithm(g)
            assert np.array_equal(L.conj().T, -L)
            assert np.max(np.abs(exp_loop(L) - g)) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 2.5])
    def test_matches_scipy_logm(self, n, scale):
        """Against scipy's ``logm``, projected the same way: over 500 draws
        per (n, scale) at three seeds the largest entrywise difference was
        28 eps (n = 3, scale 2.5), 0.5-2.5 eps at scale 0.1."""
        eps = np.finfo(float).eps
        for _ in range(20):
            g = sampling.random_group(RNG, n, scale)
            ref = logm(g)
            ref = 0.5 * (ref - ref.conj().T)
            assert np.max(np.abs(liecore.logarithm(g) - ref)) < 64 * eps

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_identity_maps_to_exact_zero(self, dtype):
        assert np.array_equal(liecore.logarithm(np.eye(3, dtype=dtype)), np.zeros((3, 3)))

    @pytest.mark.parametrize("minus_one", [-1.0, complex(-1.0, -0.0)])
    def test_eigenvalue_minus_one_takes_angle_pi(self, minus_one):
        L = liecore.logarithm(np.diag([minus_one, minus_one]))
        assert np.array_equal(L, np.diag([1j * np.pi, 1j * np.pi]))

    @pytest.mark.parametrize("phi", [0.3, 1.0, -2.0, 3.0])
    def test_diagonal_torus_element(self, phi):
        g = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
        L = liecore.logarithm(g)
        assert np.max(np.abs(L - np.diag([1j * phi, -1j * phi]))) < 4 * np.finfo(float).eps

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3), (4,)])
    def test_rejects_stack_and_non_square(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            liecore.logarithm(np.ones(shape, dtype=complex))


class TestInvariantPolynomial:
    def test_p1_normalization(self):
        f = InvariantPolynomial(2, -1.0 / (8 * np.pi ** 2))
        assert eval_invariant_polynomial(f, [H, H]) == pytest.approx(
            -1.0 / (4 * np.pi ** 2), rel=1e-13
        )

    def test_zero_argument(self):
        f = InvariantPolynomial(3)
        args = [sampling.random_algebra(RNG, 3) for _ in range(2)]
        val = eval_invariant_polynomial(f, args + [np.zeros((3, 3), dtype=complex)])
        assert val == 0.0

    def test_permutation_symmetry_exact(self):
        f = InvariantPolynomial(3)
        x, y, z = (sampling.random_algebra(RNG, 3) for _ in range(3))
        a = eval_invariant_polynomial(f, [x, y, z])
        b = eval_invariant_polynomial(f, [z, x, y])
        assert a == pytest.approx(b, abs=1e-14)

    def test_ad_invariance(self):
        f = InvariantPolynomial(3)
        g = sampling.random_group(RNG, 3)
        args = [sampling.random_algebra(RNG, 3) for _ in range(3)]
        moved = [adjoint(g, x) for x in args]
        assert eval_invariant_polynomial(f, moved) == pytest.approx(
            eval_invariant_polynomial(f, args), abs=1e-12
        )

    def test_matches_killing_for_degree_two(self):
        x = sampling.random_algebra(RNG, 2)
        y = sampling.random_algebra(RNG, 2)
        f = InvariantPolynomial(2)
        assert eval_invariant_polynomial(f, [x, y]) == pytest.approx(
            killing(x, y), abs=1e-14
        )

    def test_wrong_arity(self):
        with pytest.raises(ArityError):
            eval_invariant_polynomial(InvariantPolynomial(2), [H])

    def test_cubic_nonzero_on_su3(self):
        h = np.diag([1j, 1j, -2j])
        f = InvariantPolynomial(3)
        assert abs(eval_invariant_polynomial(f, [h, h, h])) > 1.0


def _symmetrized_trace_reference(f, args):
    """All k! orderings of the trace, without using its cyclicity."""
    k = len(args)
    acc = 0.0
    for perm in permutations(args):
        prod = perm[0]
        for x in perm[1:]:
            prod = prod @ x
        acc = acc + np.einsum("...ii->...", prod)
    return np.real((1j ** k) * acc) * (f.scale / factorial(k))


class TestCyclicTrace:
    # the k! orderings of the reference and the (k-1)! of the cyclic sum
    # round differently; each trace of a k-fold product is off by a few
    # ulps of prod |X_i|_F
    @staticmethod
    def _bound(f, args):
        norms = [np.max(np.linalg.norm(x, axis=(-2, -1))) for x in args]
        return 8 * np.finfo(float).eps * factorial(len(args)) * np.prod(norms) * abs(f.scale)

    @staticmethod
    def _draw(rng, algebra, n, stack):
        # su(n) values, or generic complex matrices: on these the orderings
        # have distinct traces and no degree vanishes identically, as k = 1
        # does on su(n) and k = 3 on su(2)
        count = int(np.prod(stack))
        if algebra == "su":
            x = np.stack([sampling.random_algebra(rng, n) for _ in range(count)])
        else:
            x = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        return x.reshape(stack + (n, n))

    @pytest.mark.parametrize("stack", [(), (5,)], ids=["single", "stack"])
    @pytest.mark.parametrize("algebra", ["su", "gl"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_all_orderings(self, k, n, algebra, stack):
        rng = np.random.default_rng([k, n, len(stack)])
        f = InvariantPolynomial(k, 0.7)
        args = [self._draw(rng, algebra, n, stack) for _ in range(k)]
        got = eval_invariant_polynomial(f, args)
        want = _symmetrized_trace_reference(f, args)
        assert np.shape(got) == stack
        if algebra == "gl":
            assert np.min(np.abs(want)) > 1e-3
        assert np.max(np.abs(got - want)) <= self._bound(f, args)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_argument_order_moves_only_roundoff(self, k):
        rng = np.random.default_rng(k)
        f = InvariantPolynomial(k)
        args = [sampling.random_algebra(rng, 3) for _ in range(k)]
        base = eval_invariant_polynomial(f, args)
        for perm in permutations(range(k)):
            moved = eval_invariant_polynomial(f, [args[i] for i in perm])
            assert abs(moved - base) <= self._bound(f, args)


class TestAdInvarianceLemma:
    def test_k2_degrees_one_one(self):
        f = InvariantPolynomial(2)
        phis = [sampling.random_algebra(RNG, 2) for _ in range(2)]
        a = sampling.random_algebra(RNG, 2)
        assert check_ad_invariance_identity(f, phis, (1, 1), a, 1) < 1e-12

    def test_zero_a(self):
        f = InvariantPolynomial(2)
        phis = [sampling.random_algebra(RNG, 2) for _ in range(2)]
        zero = np.zeros((2, 2), dtype=complex)
        assert check_ad_invariance_identity(f, phis, (1, 2), zero, 1) == 0.0

    @pytest.mark.parametrize(
        "degrees,p", [((1, 2, 2), 1), ((1, 1, 2), 2), ((2, 1, 1), 1), ((1, 1, 1), 1)]
    )
    def test_k3_su3_random(self, degrees, p):
        f = InvariantPolynomial(3)
        phis = [sampling.random_algebra(RNG, 3) for _ in range(3)]
        a = sampling.random_algebra(RNG, 3)
        assert check_ad_invariance_identity(f, phis, degrees, a, p) < 1e-10


def test_sun_basis_spans():
    for n in (2, 3):
        basis = sun_basis(n)
        assert len(basis) == n * n - 1
        for e in basis:
            assert is_algebra_element(e)
        x = sampling.random_algebra(RNG, n)
        coords = liecore.algebra_coordinates(x, basis)
        rebuilt = sum(c * e for c, e in zip(coords, basis))
        assert np.max(np.abs(rebuilt - x)) < 1e-12
