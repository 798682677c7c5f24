import numpy as np
import pytest

from loopforms import loopspace as lp
from loopforms import sampling


def _reference_algebra(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = 0.5 * (z - z.conj().T)
    x -= np.trace(x) / n * np.eye(n)
    return x


def _reference_loop(rng, N, n, kmax, scale):
    """The per-term loop: one draw per algebra element, cos/sin per term."""
    theta = lp.grid(N)
    out = np.zeros((N, n, n), dtype=complex)
    for k in range(kmax + 1):
        out += np.cos(k * theta)[:, None, None] * _reference_algebra(rng, n)
        if k > 0:
            out += np.sin(k * theta)[:, None, None] * _reference_algebra(rng, n)
    return scale * out / (kmax + 1)


class TestBatchedDraws:
    @pytest.mark.parametrize("N, n, kmax", [(16, 2, 3), (64, 2, 3), (64, 3, 2), (128, 3, 5), (8, 4, 0)])
    def test_loop_bitwise_equal_to_per_term_draws(self, N, n, kmax):
        seed = [N, n, kmax]
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for scale in (0.5, 1.0):
            got = sampling.bandlimited_algebra_loop(rng_new, N, n, kmax, scale)
            want = _reference_loop(rng_ref, N, n, kmax, scale)
            assert got.tobytes() == want.tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("m, N, n, kmax", [(1, 16, 2, 3), (4, 64, 2, 3), (6, 32, 3, 2), (3, 8, 4, 0)])
    def test_batched_loops_bitwise_equal_to_single_draws(self, m, N, n, kmax):
        seed = [m, N, n, kmax]
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sampling._bandlimited_algebra_loops(rng_new, m, N, n, kmax, 1.0)
        assert got.shape == (m, N, n, n)
        for loop in got:
            assert loop.tobytes() == _reference_loop(rng_ref, N, n, kmax, 1.0).tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_single_draw_bitwise_equal(self, n):
        rng_new, rng_ref = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(3):
            assert sampling.random_algebra(rng_new, n).tobytes() == (
                _reference_algebra(rng_ref, n).tobytes()
            )
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_trig_table_read_only(self):
        cos, sin = sampling._trig_table(32, 3)
        assert cos.shape == sin.shape == (4, 32)
        for table in (cos, sin):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[1] += 1.0
        assert sampling._trig_table(32, 3)[0] is cos
