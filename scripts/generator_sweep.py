#!/usr/bin/env python3
"""Sweep the degree-three generator comparison on the path fibration.

For a ladder of grid sizes, draws random holonomy paths and su(2) frames
and reports the worst residual between the string-form evaluation
-(1/4 pi^2) Int <F, nabla Phi> dtheta and the bi-invariant generator
(1/48 pi^2) <., [., .]>, for both admissible cutoffs.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from loopforms import pathfib, sampling


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=2009)
    ap.add_argument("--frames", type=int, default=25)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'N':>6}  {'default cutoff':>15}  {'alternate cutoff':>17}")
    for N in (64, 128, 256, 512):
        worst = {"default": 0.0, "alternate": 0.0}
        xi = sampling.bandlimited_algebra_loop(rng, N, 2, kmax=3, scale=0.4)
        p = pathfib.higgs_holonomy(xi)
        cutoffs = {
            "default": pathfib.default_cutoff(N),
            "alternate": pathfib.alternate_cutoff(N),
        }
        for _ in range(args.frames):
            frame = sampling.random_frame(rng, 2, 3)
            for key, alpha in cutoffs.items():
                _, _, resid = pathfib.pf_string_class_vs_generator(p, frame, alpha)
                worst[key] = max(worst[key], resid)
        print(f"{N:6d}  {worst['default']:15.4e}  {worst['alternate']:17.4e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
