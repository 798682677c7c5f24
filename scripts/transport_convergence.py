#!/usr/bin/env python3
"""Step-refinement study of the caloron curvature transport residual.

Prints the max pointwise residual between the finite-difference curvature
of the assembled G-connection and the closed transport form, for a ladder
of finite-difference steps.  The scheme is second order: each halving of
the step should divide the truncation-dominated residual by four until
round-off takes over (visible as a floor near 1e-10).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from loopforms import caloron, sampling


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=2009)
    ap.add_argument("--samples", type=int, default=32)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--twisted", action="store_true")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    if args.twisted:
        c = sampling.random_lgxs1_connection(rng, 2, args.samples, args.n)
    else:
        c = sampling.random_lg_connection(rng, 2, args.samples, args.n)
    pts = [0.3 * rng.standard_normal(2)]

    steps = [4e-2 / 2 ** i for i in range(9)]
    print(f"{'step':>10}  {'residual':>12}  {'ratio':>7}")
    prev = None
    for h in steps:
        chart = caloron.ExtendedChart(2, args.samples, args.n, fd_step=h)
        r = caloron.g_curvature_transport_check(c, pts, chart=chart)
        ratio = f"{prev / r:7.2f}" if prev else "      -"
        print(f"{h:10.2e}  {r:12.4e}  {ratio}")
        prev = r
    return 0


if __name__ == "__main__":
    sys.exit(main())
