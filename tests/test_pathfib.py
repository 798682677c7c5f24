from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopforms import loopspace as lp
from loopforms import pathfib as pf
from loopforms import sampling
from loopforms.liecore import InvariantPolynomial, killing

from helpers import identity_path, su2_basis

RNG = np.random.default_rng(43)
N = 256
X1, X2, X3 = su2_basis()


@pytest.fixture(scope="module")
def cutoff():
    return pf.default_cutoff(N)


@pytest.fixture(scope="module")
def generic_path():
    xi = sampling.bandlimited_algebra_loop(RNG, N, 2, kmax=3, scale=0.4)
    return pf.higgs_holonomy(xi)


class TestCutoff:
    def test_endpoints(self, cutoff):
        assert cutoff.values[0] == 0.0
        # alpha(2 pi) = 1 is the wrap-around limit: last sample close to 1
        assert cutoff.values[-1] < 1.0
        assert 1.0 - cutoff.values[-1] < 1e-5
        # coarse rectangle sum of the bare bump only converges
        # subgeometrically; the weighted integrals below are the sharp ones
        total = lp.circle_integral(cutoff.derivative)
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_flat_at_seam(self, cutoff):
        assert cutoff.derivative[0] == 0.0

    def test_bridge_integral(self, cutoff):
        # Int (alpha^2 - alpha) alpha' = Int_0^1 (u^2 - u) du = -1/6
        val = lp.circle_integral(
            (cutoff.values ** 2 - cutoff.values) * cutoff.derivative
        )
        assert val == pytest.approx(-1.0 / 6.0, abs=1e-10)

    def test_alternate_cutoff_admissible(self):
        alt = pf.alternate_cutoff(N)
        val = lp.circle_integral((alt.values ** 2 - alt.values) * alt.derivative)
        assert val == pytest.approx(-1.0 / 6.0, abs=1e-10)


class TestConnection:
    def test_vertical_like_tangent(self, generic_path, cutoff):
        # endpoint-zero tangent: A(X) = p^{-1} X
        p = generic_path
        r = sampling.bandlimited_algebra_loop(RNG, N, 2)
        r = r - r[0]
        X = pf.PathTangent(r, np.zeros((2, 2), dtype=complex))
        got = pf.pf_connection(p, X, cutoff)
        pinv = lp.loop_inverse(p.samples)
        want = pinv @ r @ p.samples
        assert np.max(np.abs(got - want)) < 1e-13

    def test_fundamental_vector_reproduced(self, generic_path, cutoff):
        p = generic_path
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2)
        xi = xi - xi[0]
        X = pf.tangent_from_based_loop(p, xi)
        assert np.max(np.abs(pf.pf_connection(p, X, cutoff) - xi)) < 1e-12

    def test_horizontal_kernel(self, generic_path, cutoff):
        p = generic_path
        V = sampling.random_algebra(RNG, 2)
        hX = pf.horizontal_tangent(p, V, cutoff)
        assert np.max(np.abs(pf.pf_connection(p, hX, cutoff))) < 1e-8


class TestCurvature:
    def test_degenerate(self, generic_path, cutoff):
        V = sampling.random_algebra(RNG, 2)
        F = pf.pf_curvature(generic_path, V, V, cutoff)
        assert np.max(np.abs(F)) == 0.0

    def test_identity_path(self, cutoff):
        p = identity_path(N, 2)
        V, W = (sampling.random_algebra(RNG, 2) for _ in range(2))
        F = pf.pf_curvature(p, V, W, cutoff)
        weight = 0.5 * (cutoff.values ** 2 - cutoff.values)
        want = weight[:, None, None] * (V @ W - W @ V)
        assert np.max(np.abs(F - want)) < 1e-14

    def test_half_bracket_of_horizontals(self, generic_path, cutoff):
        # cross-check against (1/2) A([hX, hY]) evaluated through the
        # connection on the pointwise bracket of the horizontal fields
        p = generic_path
        V, W = (sampling.random_algebra(RNG, 2) for _ in range(2))
        hX = pf.horizontal_tangent(p, V, cutoff)
        hY = pf.horizontal_tangent(p, W, cutoff)
        # right-translated bracket of right-invariant-style fields:
        # [rX, rY](theta) = [X(th), Y(th)] pointwise on the right components
        rb = hX.right_field @ hY.right_field - hY.right_field @ hX.right_field
        endpoint = hX.endpoint @ hY.endpoint - hY.endpoint @ hX.endpoint
        bracket_tangent = pf.PathTangent(rb, endpoint)
        got = 0.5 * pf.pf_connection(p, bracket_tangent, cutoff)
        # closed form; note alpha^2 from the two horizontal factors
        pinv = lp.loop_inverse(p.samples)
        weight = 0.5 * (cutoff.values ** 2 - cutoff.values)
        want = weight[:, None, None] * (pinv @ (V @ W - W @ V) @ p.samples)
        assert np.max(np.abs(got - want)) < 1e-12


class TestHiggs:
    def test_identity_path(self):
        p = identity_path(N, 2)
        assert np.max(np.abs(pf.pf_higgs(p))) < 1e-12

    def test_closed_geodesic(self):
        X = np.diag([1j, -1j])
        theta = lp.grid(N)
        samples = lp.exp_loop(np.einsum("j,ab->jab", theta, X))
        p = pf.PathPoint(samples, lp.exp_loop(2 * np.pi * X))
        got = pf.pf_higgs(p)
        assert np.max(np.abs(got - X)) < 1e-10

    def test_equivariance(self, generic_path):
        p = generic_path
        eta = sampling.bandlimited_algebra_loop(RNG, N, 2, scale=0.4)
        eta = eta - eta[0]
        gam = lp.exp_loop(eta)
        moved = pf.PathPoint(p.samples @ gam, p.endpoint @ gam[0])
        got = pf.pf_higgs(moved)
        ginv = lp.loop_inverse(gam)
        want = ginv @ pf.pf_higgs(p) @ gam + ginv @ lp.loop_derivative(gam)
        assert np.max(np.abs(got - want)) < 1e-9


class TestHolonomy:
    def test_zero_loop(self):
        hol = pf.higgs_holonomy(np.zeros((N, 2, 2), dtype=complex))
        g, endpoint = hol.samples, hol.endpoint
        assert np.max(np.abs(g - np.eye(2))) < 1e-14
        assert np.max(np.abs(endpoint - np.eye(2))) < 1e-14

    def test_constant_generator(self):
        X = sampling.random_algebra(RNG, 2, 0.8)
        xi = np.broadcast_to(X, (N, 2, 2)).copy()
        hol = pf.higgs_holonomy(xi)
        g, endpoint = hol.samples, hol.endpoint
        theta = lp.grid(N)
        want = np.stack([lp.exp_loop(t * X) for t in theta])
        assert np.max(np.abs(g - want)) < 1e-10
        assert np.max(np.abs(endpoint - lp.exp_loop(2 * np.pi * X))) < 1e-10

    def test_roundtrip(self):
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2, kmax=3, scale=0.5)
        p = pf.higgs_holonomy(xi)
        assert np.max(np.abs(pf.pf_higgs(p) - xi)) < 1e-8

    def test_endpoint_unitary(self):
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2, kmax=3, scale=0.5)
        endpoint = pf.higgs_holonomy(xi).endpoint
        assert np.max(np.abs(endpoint @ endpoint.conj().T - np.eye(2))) < 1e-10

    def test_holonomy_equivariance(self):
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2, kmax=3, scale=0.5)
        eta = sampling.bandlimited_algebra_loop(RNG, N, 2, kmax=3, scale=0.5)
        eta = eta - eta[0]
        h = lp.exp_loop(eta)
        moved = lp.loop_inverse(h) @ xi @ h + lp.loop_inverse(h) @ lp.loop_derivative(h)
        g1 = pf.higgs_holonomy(moved).samples
        g0 = pf.higgs_holonomy(xi).samples
        assert np.max(np.abs(g1 - g0 @ h)) < 1e-7

    @pytest.mark.parametrize("n_samples", [64, 512])
    def test_noncommuting_closed_form(self, n_samples):
        # xi = e^{-tB} A e^{tB} + B has holonomy g(t) = e^{tA} e^{tB}, and
        # its values at two times do not commute.  Error model: global
        # O(h^4) Magnus truncation (constant below 1 for |xi| = O(1)) plus
        # the round-off of the M-step product, M eps.
        A = sampling.random_algebra(RNG, 2, 0.8)
        B = np.diag([1j, -1j])
        theta = lp.grid(n_samples)
        xi = np.stack([lp.exp_loop(-t * B) @ A @ lp.exp_loop(t * B) + B for t in theta])
        hol = pf.higgs_holonomy(xi)
        g, endpoint = hol.samples, hol.endpoint
        M = pf.MAGNUS_REFINE * n_samples
        tol = (2 * np.pi / M) ** 4 + M * np.finfo(float).eps
        want = np.stack([lp.exp_loop(t * A) @ lp.exp_loop(t * B) for t in theta])
        assert np.max(np.abs(g - want)) < tol
        assert np.max(np.abs(endpoint - lp.exp_loop(2 * np.pi * A))) < tol

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("n_samples", [4, 6, 10, 64, 512])
    def test_blocked_scan_matches_full_scan_bitwise(self, monkeypatch, n, n_samples):
        # A Hillis-Steele scan over all M steps holds, at each sample step
        # 8j+7, the block tree ((e0 e1)(e2 e3))((e4 e5)(e6 e7)) after a
        # scan over the aligned blocks: the same products in the same
        # order, so the blocked scan must agree in every bit, also when N
        # is not a power of two.
        steps = []

        def recording_exp_loop(x, _exp_loop=lp.exp_loop):
            steps.append(_exp_loop(x))
            return steps[-1]

        monkeypatch.setattr(lp, "exp_loop", recording_exp_loop)
        rng = np.random.default_rng(n_samples)
        xi = sampling.bandlimited_algebra_loop(rng, n_samples, n, kmax=min(3, (n_samples - 1) // 2))
        hol = pf.higgs_holonomy(xi)
        g, endpoint = hol.samples, hol.endpoint
        (prefix,) = steps
        shift = 1
        while shift < len(prefix):
            tail = lp.loop_product(prefix[:-shift], prefix[shift:])
            prefix = np.concatenate((prefix[:shift], tail))
            shift *= 2
        r = pf.MAGNUS_REFINE
        eye = np.eye(n, dtype=complex)[None]
        want = lp.project_unitary(np.concatenate((eye, prefix[r - 1 :: r])))
        assert np.array_equal(g, want[:n_samples])
        assert np.array_equal(endpoint, want[n_samples])


def _brute_antisym(contractions, degrees, frame):
    """(1/Q!) sum over all Q! permutations, with the sign of each."""
    Q = sum(degrees)
    total = 0.0
    for perm in permutations(range(Q)):
        inversions = sum(perm[i] > perm[j] for i in range(Q) for j in range(i + 1, Q))
        blocks, pos = [], 0
        for q in degrees:
            blocks.append(tuple(frame[i] for i in perm[pos : pos + q]))
            pos += q
        total += (-1) ** inversions * contractions(blocks)
    return total / factorial(Q)


class TestAntisymEval:
    @pytest.mark.parametrize("degrees", [(2, 1), (1, 2), (1, 2, 2)])
    def test_shuffles_match_all_permutations(self, degrees):
        # contractions antisymmetric in each 2-slot (a@b - b@a), otherwise
        # generic: complex traces against fixed random weights
        n = 3
        weights = [RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
                   for _ in degrees]

        def contraction(blocks):
            out = np.eye(n, dtype=complex)
            for blk, w in zip(blocks, weights):
                slot = blk[0] if len(blk) == 1 else blk[0] @ blk[1] - blk[1] @ blk[0]
                out = out @ slot @ w
            return np.trace(out)

        frame = sampling.random_frame(RNG, n, sum(degrees))
        got = pf._antisym_eval(contraction, degrees, frame)
        want = _brute_antisym(contraction, degrees, frame)
        assert abs(want) > 1e-3
        assert abs(got - want) < 1e-14 * factorial(sum(degrees)) * max(1.0, abs(want))


class TestNablaPhi:
    def test_zero_vector(self, generic_path, cutoff):
        Z = np.zeros((2, 2), dtype=complex)
        assert np.max(np.abs(pf.pf_nabla_phi(generic_path, Z, cutoff))) == 0.0

    def test_identity_path(self, cutoff):
        p = identity_path(N, 2)
        V = sampling.random_algebra(RNG, 2)
        got = pf.pf_nabla_phi(p, V, cutoff)
        want = cutoff.derivative[:, None, None] * np.broadcast_to(V, (N, 2, 2))
        assert np.max(np.abs(got - want)) < 1e-14

    def test_matches_deformation_definition_vertical(self, generic_path, cutoff):
        # on a vertical probe: dPhi(X) + [A(X), Phi] - d(A(X))/dtheta = 0,
        # with all three terms nonzero and band-limited (clean oracle)
        p = generic_path
        xi = sampling.bandlimited_algebra_loop(RNG, N, 2, kmax=3, scale=0.5)
        xi = xi - xi[0]
        h = 1e-5

        def deform(t):
            return pf.PathPoint(p.samples @ lp.exp_loop(t * xi), p.endpoint)

        dphi = (pf.pf_higgs(deform(h)) - pf.pf_higgs(deform(-h))) / (2 * h)
        phi = pf.pf_higgs(p)
        total = dphi + (xi @ phi - phi @ xi) - lp.loop_derivative(xi)
        assert np.max(np.abs(dphi)) > 1e-3  # the cancellation is non-trivial
        assert np.max(np.abs(total)) < 1e-8

    def test_matches_deformation_definition_horizontal(self):
        # dPhi along the horizontal flow equals nabla Phi (A(hX) = 0); the
        # cutoff spectrum decays subgeometrically, so this oracle needs a
        # finer grid than the rest of the suite
        M = 1024
        cutoff = pf.default_cutoff(M)
        xi = sampling.bandlimited_algebra_loop(RNG, M, 2, kmax=3, scale=0.4)
        p = pf.higgs_holonomy(xi)
        V = sampling.random_algebra(RNG, 2)
        hX = pf.horizontal_tangent(p, V, cutoff)
        h = 1e-5

        def deform(t):
            flow = lp.exp_loop(t * hX.right_field)
            endpoint = lp.exp_loop(t * np.asarray(hX.endpoint)) @ p.endpoint
            return pf.PathPoint(flow @ p.samples, endpoint)

        dphi = (pf.pf_higgs(deform(h)) - pf.pf_higgs(deform(-h))) / (2 * h)
        want = pf.pf_nabla_phi(p, V, cutoff)
        assert np.max(np.abs(dphi - want)) < 1e-6


class TestGeneratorComparison:
    def test_degenerate_frame(self, generic_path, cutoff):
        V = sampling.random_algebra(RNG, 2)
        W = sampling.random_algebra(RNG, 2)
        lhs, rhs, resid = pf.pf_string_class_vs_generator(
            generic_path, [V, V, W], cutoff
        )
        assert abs(lhs) < 1e-14 and abs(rhs) < 1e-14

    def test_su2_standard_frame(self, generic_path, cutoff):
        lhs, rhs, resid = pf.pf_string_class_vs_generator(
            generic_path, [X1, X2, X3], cutoff
        )
        # frozen value: (1/48 pi^2) <X1, [X2, X3]> = (1/48 pi^2) <X1, X1>
        want = killing(X1, X1) / (48 * np.pi ** 2)
        assert rhs == pytest.approx(want, rel=1e-12)
        assert resid < 1e-8

    def test_random_frames_sweep(self, generic_path, cutoff):
        worst = 0.0
        for _ in range(50):
            frame = sampling.random_frame(RNG, 2, 3)
            _, _, resid = pf.pf_string_class_vs_generator(generic_path, frame, cutoff)
            worst = max(worst, resid)
        assert worst < 1e-8

    def test_cutoff_independence(self, generic_path):
        alt = pf.alternate_cutoff(N)
        worst = 0.0
        for _ in range(10):
            frame = sampling.random_frame(RNG, 2, 3)
            _, _, resid = pf.pf_string_class_vs_generator(generic_path, frame, alt)
            worst = max(worst, resid)
        assert worst < 1e-8


class TestTransgression:
    def test_repeated_vector_vanishes(self):
        f = InvariantPolynomial(2, -1.0 / (8 * np.pi ** 2))
        V = sampling.random_algebra(RNG, 2)
        W = sampling.random_algebra(RNG, 2)
        assert pf.transgression_tau(f, [V, V, W]) == pytest.approx(0.0, abs=1e-15)

    def test_k2_su2_frame_matches_generator(self, generic_path, cutoff):
        f = InvariantPolynomial(2, -1.0 / (8 * np.pi ** 2))
        tau = pf.transgression_tau(f, [X1, X2, X3])
        _, rhs, _ = pf.pf_string_class_vs_generator(generic_path, [X1, X2, X3], cutoff)
        assert tau == pytest.approx(rhs, rel=1e-12)
        assert tau == pytest.approx(1.0 / (96 * np.pi ** 2), rel=1e-12)

    def test_linearity_in_polynomial(self):
        frame = sampling.random_frame(RNG, 2, 3)
        t1 = pf.transgression_tau(InvariantPolynomial(2, 1.0), frame)
        t3 = pf.transgression_tau(InvariantPolynomial(2, 3.0), frame)
        assert t3 == pytest.approx(3 * t1, rel=1e-12)

    def test_higher_string_matches_tau_k2(self, generic_path, cutoff):
        f = InvariantPolynomial(2, -1.0 / (8 * np.pi ** 2))
        worst = 0.0
        for _ in range(5):
            frame = sampling.random_frame(RNG, 2, 3)
            _, _, resid = pf.pf_higher_string_vs_transgression(f, generic_path, frame, cutoff)
            worst = max(worst, resid)
        assert worst < 1e-6

    def test_higher_string_matches_tau_k3_su3(self):
        xi = sampling.bandlimited_algebra_loop(RNG, N, 3, kmax=3, scale=0.4)
        p = pf.higgs_holonomy(xi)
        alpha = pf.default_cutoff(N)
        f = InvariantPolynomial(3, 1.0)
        worst = 0.0
        for _ in range(3):
            frame = sampling.random_frame(RNG, 3, 5)
            lhs, rhs, resid = pf.pf_higher_string_vs_transgression(f, p, frame, alpha)
            worst = max(worst, resid)
            assert abs(rhs) > 1e-12  # non-trivial on su(3)
        assert worst < 1e-6


class TestCoefficientIdentity:
    @given(st.integers(min_value=1, max_value=60))
    def test_exact_for_any_k(self, k):
        lhs, rhs, equal = pf.coefficient_identity(k)
        assert equal and lhs == rhs

    def test_k1(self):
        lhs, rhs, equal = pf.coefficient_identity(1)
        assert lhs == Fraction(1) and rhs == Fraction(1) and equal

    def test_k2_exact(self):
        lhs, rhs, equal = pf.coefficient_identity(2)
        assert lhs == Fraction(1, 3)
        assert rhs == Fraction(1, 3)
        assert equal

    def test_sweep_to_twenty(self):
        for k in range(1, 21):
            _, _, equal = pf.coefficient_identity(k)
            assert equal

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            pf.coefficient_identity(0)
