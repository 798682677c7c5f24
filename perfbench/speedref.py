"""Reference work that measures how fast the machine runs right now.

On a shared host the speed of the benchmark's CPU changes by a third or
more from one second to the next, and the share of slow seconds drifts
over minutes as other tenants come and go, so a whole run can read fast
or slow.  A *sample* here is a fixed piece of work that does not touch
loopforms and has the verifier's mix: interpreted Python (dict stores,
integer arithmetic) and small numpy linear algebra (2x2 SVDs, a batched
3x3 ``eigh``).  Its duration says how fast the machine ran while it ran.

``Sampler`` takes samples while a pass runs: a wall-clock timer
(``SIGALRM``) interrupts the pass every ``PERIOD_S`` and the handler
times one sample.  The samples are spread evenly over the pass, so their
mean weighs fast and slow stretches as the pass itself met them.
``run.py`` takes the handler's time out of the pass and divides the rest
by that mean.  Samples timed next to a pass, instead of inside it, missed
the changes within the pass and left the ratio about as noisy as the
wall time.

Python runs signal handlers between bytecodes, never inside a numpy call,
and a sample changes no state the verifier reads (it draws from its own
generator, fills no cache and calls no FFT, whose plans numpy caches), so
the residuals of a sampled pass equal those of an unsampled one bit for
bit; ``run.py`` checks that on every pass.  The work is fixed here and
independent of ``--seed`` and of the program under test, so a change to
loopforms cannot move it.
"""

from __future__ import annotations

import signal
import time

# A time divided by the mean sample duration measured with it, times
# REF_SAMPLE_S, reads as the time the work would take on a machine where
# one sample takes REF_SAMPLE_S.
REF_SAMPLE_S = 0.008
PERIOD_S = 0.2  # one sample per this much wall time: about 4 % overhead
PY_STEPS = 10_000
SVD_STEPS = 100
EIGH_STEPS = 20

# numpy is imported inside the functions, not at the top, so that run.py
# can read REF_SAMPLE_S without importing it.


def _inputs():
    import numpy as np

    rng = np.random.default_rng(20090626)
    a = rng.standard_normal((64, 3, 3)) + 1j * rng.standard_normal((64, 3, 3))
    h = a + np.conj(np.swapaxes(a, -1, -2))
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return h, m


def _work(h, m) -> float:
    import numpy as np

    table: dict[int, int] = {}
    x = 0
    for i in range(PY_STEPS):
        table[i & 1023] = x
        x = (x * 31 + i) % 1_000_003
    acc = float(x)
    for _ in range(SVD_STEPS):
        u, s, vh = np.linalg.svd(m)
        acc += float(s[0]) + float(np.trace(u @ vh).real)
    for _ in range(EIGH_STEPS):
        w, _vec = np.linalg.eigh(h)
        acc += float(w[0, 0])
    return acc


def samples_s(count: int) -> list[float]:
    """Time ``count`` samples back to back; one duration each."""
    h, m = _inputs()
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        _work(h, m)
        out.append(time.perf_counter() - t0)
    return out


class Sampler:
    """Take a timed sample every ``PERIOD_S`` of wall time while active.

    ``taken`` holds ``(start, duration)`` pairs in ``time.perf_counter``
    seconds.
    """

    def __init__(self):
        self.taken: list[tuple[float, float]] = []
        self._inputs = _inputs()
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work(*self._inputs)
        self.taken.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def within(self, t0: float, t1: float) -> list[float]:
        """Durations of the samples that started in ``[t0, t1)``."""
        return [d for start, d in self.taken if t0 <= start < t1]
