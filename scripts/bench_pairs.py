#!/usr/bin/env python3
"""Before/after benchmark: alternate ``perfbench/run.py`` between a base revision and this tree.

    python scripts/bench_pairs.py BASE_REV --workload pathfib_fine --pairs 10 \\
        --out-prefix BENCH_x

Run from the repository root.  BASE_REV's committed files are unpacked
into a temporary directory (``git archive``; set TMPDIR to choose where),
and ``perfbench/run.py --trace 0`` runs there and in this working tree in
turn.  Pairs alternate which side runs first, the base in the first pair.
``--workload`` may be given more than once; the workloads run one after
the other.

For each end-to-end metric of BENCHMARK.json it prints the median and
quartiles of both sides, the base's interquartile range, the change of the
medians and in how many pairs the change was better (ties count for
neither side).  It writes the last json line of each side's last run per
workload, the per-pair values and the machine to ``<prefix>_parent.json``
and ``<prefix>_change.json``.  Exits 2 if a run fails to measure.

Each ``run.py`` runs in a session of its own.  On SIGTERM or SIGINT the
script kills that session's process group (``run.py`` and its workers),
removes the unpacked base tree and exits 128 + the signal number.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, dest: str) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_bench(tree: str, workload: str, seed: int | None) -> tuple[dict, dict]:
    """One untraced ``perfbench/run.py`` run; returns its env and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        # stopped by a signal: take run.py's workers down with it
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} in {tree}")
    lines = out.strip().splitlines()
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    return env, json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(env: dict) -> str:
    return (f"{env['nproc']}-core {cpu_model()}, {platform.system()}, Python {env['python']}, "
            f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS {env['blas_threads']} thread(s); "
            "times at reference speed (perfbench/speedref.py)")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(workload: str, spec: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    pairs = len(runs["change"])
    correct = {side: sum(r["correct"] for r in rs) for side, rs in runs.items()}
    lines = [f"{workload}: {pairs} pairs; correct: parent "
             f"{correct['parent']}/{pairs}, change {correct['change']}/{pairs}",
             f"  {'metric':<20}{'parent median [q1, q3]':>32}{'IQR':>9}"
             f"{'change median [q1, q3]':>32}{'change':>20}{'wins':>7}"]
    for m in spec:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        base = [r["metrics"][name]["value"] for r in runs["parent"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, new))
        (b1, mb, b3), (c1, mc, c3) = quartiles(base), quartiles(new)
        rel = f" ({100.0 * (mc - mb) / mb:+.1f} %)" if mb else ""
        lines.append(f"  {name:<20}{f'{mb:.4g} [{b1:.4g}, {b3:.4g}]':>32}{b3 - b1:>9.3g}"
                     f"{f'{mc:.4g} [{c1:.4g}, {c3:.4g}]':>32}{mc - mb:>+11.4g}{rel:<9}"
                     f"{wins:>4}/{pairs}")
    return lines


def _stop(signum, frame):
    """Leave through every ``finally`` and ``with``, so the runs and the
    base tree are cleaned up."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_rev")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed; defaults to perfbench's")
    ap.add_argument("--out-prefix", required=True,
                    help="writes <prefix>_parent.json and <prefix>_change.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]
    base = git("rev-parse", "--short", args.base_rev)
    head = git("rev-parse", "--short", "HEAD")
    dirty = "uncommitted changes on " if git("status", "--porcelain") else ""
    commits = {"parent": f"parent commit {base}", "change": f"{dirty}{head}"}
    runs = {w: {"parent": [], "change": []} for w in args.workload}
    last = {"parent": {}, "change": {}}
    report = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _stop)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        unpack(base, tmp)
        trees = {"parent": tmp, "change": ROOT}
        try:
            for w in args.workload:
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        env, res = run_bench(trees[side], w, args.seed)
                        runs[w][side].append(res)
                        last[side][w] = res
                        verify = res["metrics"]["verify_s"]["value"]
                        print(f"{w} pair {i + 1}/{args.pairs} {side}: verify_s {verify:.4f} "
                              f"correct {res['correct']}", flush=True)
                report += summarize(w, spec, runs[w])
        except RuntimeError as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 2
    print("\n".join(report))
    command = (f"python3 scripts/bench_pairs.py {args.base_rev} "
               + " ".join(f"--workload {w}" for w in args.workload)
               + f" --pairs {args.pairs}"
               + ("" if args.seed is None else f" --seed {args.seed}")
               + f" --out-prefix {args.out_prefix}")
    for side in ("parent", "change"):
        doc = {"label": side, "commit": commits[side], "machine": machine(env),
               "command": command, **last[side],
               "pairs": {w: {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs[w][side]]
                             for m in spec} for w in args.workload}}
        with open(f"{args.out_prefix}_{side}.json", "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
