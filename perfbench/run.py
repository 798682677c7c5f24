"""Benchmark of the loopforms verifier, driven through its public API.

    python3 perfbench/run.py --workload suite_default --seed 1 --seconds 60 --trace 0

Run from the repository root.  Every measurement happens in fresh worker
processes (``worker.py``), started one at a time, with BLAS pinned to one
thread before numpy is imported.

``--trace 0`` measures the end-to-end metrics with tracing off.  The
three times are put at reference speed (``at_ref_speed``), so that the
drift of a shared host's CPU speed cancels; the wall times are printed
beside them:

- ``setup_s``: fresh interpreter through ``import loopforms`` and config
  validation, median over every process started in the run;
- ``cold_verify_s``: the first pass in a fresh process, median over the
  cold processes;
- ``verify_s``: median warm pass;
- ``peak_rss_mb``: peak resident set of the worker processes;
- ``headroom_min_dec`` / ``headroom_median_dec``: log10(tol / residual)
  over the checks of the first pass (see ``headroom``).

``--trace 1`` runs warm passes untraced, then one pass under
``tracer.Tracer``, and reports the per-layer metrics.  Either way every
pass must pass all its checks with residuals bitwise equal to the first
pass of the run; anything else counts in ``failed``.  The last line of
output is the json result.
"""

from __future__ import annotations

import os

# Pinned here so every worker inherits it before it imports numpy: with
# default OpenBLAS threading the first check of a fresh process can stall.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speedref import REF_SAMPLE_S  # noqa: E402
from workloads import SUITES, WORKLOADS  # noqa: E402

SETUP_PROBES = 3  # set-up-only processes per untraced run, besides the cold ones
COLD_PROCS = 3  # fresh processes that each pay one cold pass
MIN_WARM = 2  # warm passes per run, whatever the time budget
TRACE_RESERVE = 1.3  # budget kept for the traced pass, in cold passes
# Workers still running this long after start are killed, so a run ends
# within three minutes whatever happens.
DEADLINE = time.perf_counter() + 170.0
# A residual below tol * 10**-HEADROOM_CAP_DEC (a zero residual included)
# reads as HEADROOM_CAP_DEC decades: beyond double precision's reach.
HEADROOM_CAP_DEC = 16.0


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in per_layer:
        if all(name in w["expected_zero"] for w in WORKLOADS.values()):
            raise BenchError(f"per-layer metric {name} is expected zero on every workload")
    return spec


def start_worker(workload: str, seed: int | None, *extra: str) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its parsed result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, *extra]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, DEADLINE - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past the run's deadline: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def judge(results: list[dict], expected: int) -> tuple[int, int, dict]:
    """Count checks attempted and failed over every pass of every worker.

    A check fails when it does not pass, is missing because its suite
    raised, or its residual differs in any bit from the first pass.
    """
    reference = results[0]["passes"][0]["checks"]
    attempted = failed = 0
    for res in results:
        for p in res["passes"]:
            attempted += expected
            failed += expected - len(p["checks"])
            for name, (residual, _tol, passed, _ms) in p["checks"].items():
                if not passed or reference.get(name, [None])[0] != residual:
                    failed += 1
            for err in p["errors"]:
                print(f"error in {p['kind']} pass: {err}", file=sys.stderr)
    return attempted, failed, reference


def headroom(reference: dict) -> list[float]:
    """log10(tol / residual) per check; exact (tol 0) checks are pass/fail only."""
    out = []
    for residual, tol, *_ in reference.values():
        if tol > 0:
            floor = tol * 10.0 ** -HEADROOM_CAP_DEC
            out.append(math.log10(tol / max(float.fromhex(residual), floor)))
    return out


def at_ref_speed(seconds: float, ref_s: list[float]) -> float:
    """``seconds`` as it would read where one ``speedref`` sample takes REF_SAMPLE_S.

    ``ref_s`` are sample durations measured in the same process during
    (or, for set-up, right after) the timed work.  On a shared host the
    CPU's speed changes by a third or more; the samples slow down with it,
    so the ratio holds still where the wall time does not.
    """
    return seconds * REF_SAMPLE_S / statistics.mean(ref_s)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def untraced_run(args) -> tuple[list[dict], dict[str, float], dict]:
    t0 = time.perf_counter()
    setups = []  # (wall seconds, reference samples of the same process)
    for _ in range(SETUP_PROBES):
        setup_s, res = start_worker(args.workload, args.seed, "--setup-only")
        setups.append((setup_s, res["ready_ref_s"]))
    results = []
    for i in range(COLD_PROCS):
        remaining = args.seconds - (time.perf_counter() - t0)
        setup_s, res = start_worker(
            args.workload, args.seed, "--budget", repr(remaining),
            "--reserve", str(COLD_PROCS - 1 - i),
            "--min-warm", str(MIN_WARM if i == 0 else 0))
        setups.append((setup_s, res["passes"][0]["ref_s"]))
        results.append(res)
    # A pass's own time leaves out the samples taken inside it.
    cold = [(p["seconds"] - sum(p["ref_s"]), p["ref_s"])
            for r in results for p in r["passes"] if p["kind"] == "cold"]
    warm = [(p["seconds"] - sum(p["ref_s"]), p["ref_s"])
            for r in results for p in r["passes"] if p["kind"] == "warm"]
    metrics, stats = {}, {}
    for name, samples in (("setup_s", setups), ("cold_verify_s", cold), ("verify_s", warm)):
        wall = [s for s, _ in samples]
        ref = [at_ref_speed(s, ref_s) for s, ref_s in samples]
        q1, med, q3 = quartiles(ref)
        metrics[name] = (med, "s")
        metrics[name.replace("_s", "_wall_s")] = (statistics.median(wall), "s")
        stats[name] = {"at_ref_speed": ref, "wall": wall, "q1": q1, "q3": q3, "n": len(ref),
                       "ref_sample_s": [statistics.mean(r) for _, r in samples]}
    metrics["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in results), "MB")
    return results, metrics, stats


def traced_run(args) -> tuple[list[dict], dict[str, float], dict]:
    _, res = start_worker(args.workload, args.seed, "--trace",
                          "--budget", repr(args.seconds),
                          "--reserve", repr(TRACE_RESERVE),
                          "--min-warm", str(MIN_WARM))
    warm = [p for p in res["passes"] if p["kind"] == "warm"]
    traced = [p for p in res["passes"] if p["kind"] == "traced"][0]
    verify_s = statistics.median(p["seconds"] for p in warm)
    metrics = {name: (value, unit_of(name)) for name, value in res["trace"].items()}
    for suite in SUITES:
        metrics[f"report.suite.{suite}.s"] = (
            statistics.median(p["suite_s"].get(suite, 0.0) for p in warm), "s")
    metrics["trace.overhead_s"] = (traced["seconds"] - verify_s, "s")
    stats = {"verify_s": [p["seconds"] for p in warm], "traced_s": traced["seconds"]}
    return [res], metrics, stats


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("distinct_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="defaults to loopforms.report.DEFAULT_SEED")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "loopforms", "report.py")):
            raise BenchError(f"no loopforms sources under {ROOT}")
        spec = load_spec()
        workload = WORKLOADS[args.workload]
        results, metrics, stats = (traced_run if args.trace else untraced_run)(args)
        attempted, failed, reference = judge(results, workload["checks"])
        correct = failed == 0
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            for name in names:
                value = metrics.setdefault(name, (0, unit_of(name)))[0]
                if (value == 0) != (name in workload["expected_zero"]):
                    correct = False
                    want = "zero" if name in workload["expected_zero"] else "non-zero"
                    print(f"harness self-check: {name} = {value}, expected {want}",
                          file=sys.stderr)
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            hr = headroom(reference)
            metrics["headroom_min_dec"] = (min(hr), "dec")
            metrics["headroom_median_dec"] = (statistics.median(hr), "dec")
        metrics["checks_failed_frac"] = (failed / attempted, "ratio")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    env = dict(results[0]["env"], nproc=os.cpu_count(),
               cpus_usable=len(os.sched_getaffinity(0)), workload=args.workload,
               seed=results[0]["seed"], seconds=args.seconds, trace=args.trace)
    print(json.dumps({"env": env}))
    print(json.dumps({"samples": stats}))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<55} {value:>16.6g} {unit}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wrong = [n for n in names if n not in metrics or metrics[n][1] != units[n]]
    if wrong:
        print(f"benchmark error: not measured as BENCHMARK.json lists them: {wrong}",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
