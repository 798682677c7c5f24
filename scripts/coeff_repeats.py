#!/usr/bin/env python3
"""Count repeated coefficient evaluations over one verification pass.

    python scripts/coeff_repeats.py [--suite S] [--seed N]

Wraps ``formscalc._memo`` from outside, so every ``FormField`` built
during the pass is counted, then runs ``run_suite`` once at the CLI
defaults.  For each coefficient closure, named by module and
``__qualname__``, it prints the calls to the memoized coefficient, the
raw evaluations of the closure, the distinct (form, point, idx) keys
among them, and the repeats: raw evaluations of a key that the same form
had already computed and its memo had dropped.  Rows are sorted by
repeats; the last row sums them all.
"""

import argparse
import itertools
import pathlib
import sys
from collections import defaultdict

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from loopforms import formscalc as fc
from loopforms import report as rp


class Counts:
    def __init__(self) -> None:
        self.calls = 0
        self.raw = 0
        self.keys: set = set()


def install(counts: dict) -> None:
    """Rebind ``formscalc._memo`` to count calls and raw evaluations per closure."""
    memo = fc._memo
    form_ids = itertools.count()

    def counting_memo(raw, points):
        form = next(form_ids)
        name = f"{raw.__module__.rpartition('.')[2]}.{raw.__qualname__}"
        c = counts[name]

        def counted_raw(p, idx):
            c.raw += 1
            c.keys.add((form, np.asarray(p, dtype=float).tobytes(), tuple(idx)))
            return raw(p, idx)

        coeff = memo(counted_raw, points)

        def counted(p, idx):
            c.calls += 1
            return coeff(p, idx)

        return counted

    fc._memo = counting_memo


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", default="all", choices=[*sorted(rp.SUITES), "all"])
    ap.add_argument("--seed", type=int, default=rp.DEFAULT_SEED)
    args = ap.parse_args()

    counts: dict[str, Counts] = defaultdict(Counts)
    install(counts)
    rep = rp.run_suite(rp.RunConfig(suite=args.suite, seed=args.seed))

    rows = [(name, c.calls, c.raw, len(c.keys)) for name, c in counts.items()]
    rows.sort(key=lambda r: (-(r[2] - r[3]), r[0]))
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    width = max(len(r[0]) for r in rows)
    print(f"{'closure':<{width}} {'calls':>8} {'raw':>8} {'distinct':>8} {'repeats':>8}")
    for name, calls, raw, distinct in rows:
        print(f"{name:<{width}} {calls:8d} {raw:8d} {distinct:8d} {raw - distinct:8d}")
    print(f"suite {args.suite}, seed {args.seed}: {len(rep.checks)} checks, "
          f"{'all passed' if rep.all_passed else 'NOT all passed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
