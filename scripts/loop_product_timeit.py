#!/usr/bin/env python3
"""Cost per call of the pointwise loop product against numpy's stacked ``@``.

For every n in 2..8 and N in {64, 512, 4096} it times the product of two
random complex (N, n, n) stacks three ways: the broadcast multiply-add
form behind ``loopspace.loop_product`` (``_broadcast_product``, at every
n), ``np.matmul``, and ``loop_product`` as it dispatches (broadcast up
to ``LOOP_PRODUCT_MAX_N``, ``@`` above).  Times are the best of ``--repeat``
runs, in microseconds per call.  The last line gives the largest n up to
which the broadcast form beats ``@`` at every N: the crossover that
``LOOP_PRODUCT_MAX_N`` records.
"""

import argparse
import pathlib
import sys
import timeit

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from loopforms import loopspace as lp


def best_us(fn, repeat: int) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()  # calls that take at least 0.2 s
    number = max(1, number // 10)
    return min(timer.repeat(repeat, number)) / number * 1e6


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'n':>2} {'N':>5}  {'broadcast_us':>12} {'matmul_us':>10} "
          f"{'loop_product_us':>15}  {'faster':>9}")
    wins = {}
    for n in range(2, 9):
        for N in (64, 512, 4096):
            a, b = (rng.standard_normal((N, n, n)) + 1j * rng.standard_normal((N, n, n))
                    for _ in range(2))
            broadcast = best_us(lambda: lp._broadcast_product(a, b), args.repeat)
            matmul = best_us(lambda: np.matmul(a, b), args.repeat)
            dispatched = best_us(lambda: lp.loop_product(a, b), args.repeat)
            faster = "broadcast" if broadcast < matmul else "matmul"
            wins.setdefault(n, []).append(broadcast < matmul)
            print(f"{n:>2} {N:>5}  {broadcast:12.2f} {matmul:10.2f} {dispatched:15.2f}  {faster:>9}")
    crossover = 1
    while all(wins.get(crossover + 1, [False])):
        crossover += 1
    print(f"broadcast wins at every N for n <= {crossover}; "
          f"LOOP_PRODUCT_MAX_N = {lp.LOOP_PRODUCT_MAX_N}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
