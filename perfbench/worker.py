"""One fresh benchmark process: set up, then run verification passes.

    python3 perfbench/worker.py --workload W --seed S --budget B
        [--reserve R] [--min-warm K] [--trace | --setup-only]

Prints ``ready`` once ``import loopforms`` and config validation are done,
so the parent can time set-up.  Then runs a cold pass (the first in the
process), warm passes while ``elapsed + last pass + R * cold pass <= B``
(set-up counted in) or fewer than K warm passes ran, and with
``--trace`` one traced pass.  Untraced passes run under a
``speedref.Sampler``, so their times can be put at reference speed; a
``--setup-only`` process instead times SETUP_SAMPLES ``speedref`` samples
after ``ready``.  The last line of output is a json object with every pass's
time, reference samples and per-check residuals.  Started by ``run.py``,
which sets the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

T_START = time.perf_counter()

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import speedref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 50  # about half a second of samples


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_pass(report, configs, kind: str, sample: bool) -> dict:
    """Run every config of the workload once; time the whole pass.

    With ``sample``, ``speedref`` samples are taken during the pass;
    ``ref_s`` lists their durations, which ``seconds`` includes.
    """
    suite_of = {name: suite for name, suite, *_ in report.checks_for("all")}
    checks: dict[str, list] = {}
    suite_s: dict[str, float] = {}
    errors: list[str] = []
    sampler = speedref.Sampler() if sample else contextlib.nullcontext()
    with sampler:
        t0 = time.perf_counter()
        for cfg in configs:
            try:
                rep = report.run_suite(cfg)
            except Exception as exc:  # a raising check aborts run_suite; record it
                errors.append(f"{cfg.suite}: {type(exc).__name__}: {exc}")
                continue
            for c in rep.checks:
                checks[c.name] = [c.residual.hex(), c.tolerance, c.passed, c.millis]
                suite = suite_of[c.name]
                suite_s[suite] = suite_s.get(suite, 0.0) + c.millis / 1000.0
        t1 = time.perf_counter()
    return {"kind": kind, "seconds": t1 - t0,
            "ref_s": sampler.within(t0, t1) if sample else [],
            "checks": checks, "suite_s": suite_s, "errors": errors}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--reserve", type=float, default=0.0)
    ap.add_argument("--min-warm", type=int, default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import loopforms  # noqa: F401
    from loopforms import report

    seed = report.DEFAULT_SEED if args.seed is None else args.seed
    configs = [report.RunConfig(seed=seed, **kw)
               for kw in WORKLOADS[args.workload]["configs"]]
    for cfg in configs:
        cfg.validate()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"ready_ref_s": speedref.samples_s(SETUP_SAMPLES)}), flush=True)
        return 0
    # What a later cold process pays before its cold pass.
    lead_s = time.perf_counter() - T_START

    # A traced run reports no end-to-end time, so it takes no samples.
    sample = not args.trace
    passes = [run_pass(report, configs, "cold", sample)]
    warm = 0
    while True:
        # Keep `reserve` cold passes' worth of budget for what runs after us.
        elapsed = time.perf_counter() - T_START
        ahead = passes[-1]["seconds"] + args.reserve * (lead_s + passes[0]["seconds"])
        if warm >= args.min_warm and elapsed + ahead > args.budget:
            break
        passes.append(run_pass(report, configs, "warm", sample))
        warm += 1

    result = {"seed": seed, "passes": passes}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(report, configs, "traced", False))
        finally:
            tracer.uninstall()
        result["trace"] = tracer.metrics()

    import resource

    import numpy as np
    import scipy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
