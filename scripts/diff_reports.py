#!/usr/bin/env python3
"""Compare two ``loopforms verify --format json`` reports check by check.

    python scripts/diff_reports.py BEFORE.json AFTER.json

Lists every config field that differs, checks present in only one
report, anchor, tolerance and error changes (``error`` is the exception
type of a check that raised), and every residual that is not bitwise
equal, with its change in decades (log10 of after / before).  Exits 0
when the reports agree on all of these, 1 otherwise.  Also prints each
report's headroom, log10(tol / residual), as min and median over its
checks by the benchmark's own ``headroom`` (``perfbench/run.py``), so the
``headroom_*_dec`` metrics can be read without a benchmark run; NaN
residuals (checks that raised) are left out.
"""

import argparse
import json
import math
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from run import headroom  # noqa: E402


def load(path: str) -> tuple[dict, dict]:
    """A report's config and its checks by name."""
    with open(path) as fh:
        payload = json.load(fh)
    return payload["config"], {c["name"]: c for c in payload["checks"]}


def decades(before: float, after: float) -> str:
    if before > 0 and after > 0:
        return f"{math.log10(after / before):+.4f} dec"
    return "n/a"


def headroom_line(label: str, checks: dict) -> str:
    """Min and median headroom in decades, as the benchmark reports them."""
    dec = headroom({name: (float(c["residual"]).hex(), c["tolerance"])
                    for name, c in checks.items() if not math.isnan(float(c["residual"]))})
    return f"headroom {label}: min {min(dec):.4f} dec, median {statistics.median(dec):.4f} dec"


def diff(config_before: dict, config_after: dict, before: dict, after: dict) -> list[str]:
    lines = [
        f"config changed: {key}: {config_before.get(key)!r} -> {config_after.get(key)!r}"
        for key in sorted(set(config_before) | set(config_after))
        if config_before.get(key) != config_after.get(key)
    ]
    lines += [f"removed: {name}" for name in sorted(set(before) - set(after))]
    lines += [f"added: {name}" for name in sorted(set(after) - set(before))]
    for name in sorted(set(before) & set(after)):
        b, a = before[name], after[name]
        for key in ("anchor", "tolerance", "error"):
            if b[key] != a[key]:
                lines.append(f"{key} changed: {name}: {b[key]!r} -> {a[key]!r}")
        rb, ra = float(b["residual"]), float(a["residual"])
        if rb.hex() != ra.hex():
            lines.append(
                f"residual changed: {name}: {rb:.6e} -> {ra:.6e} ({decades(rb, ra)})"
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)
    (config_before, before), (config_after, after) = load(args.before), load(args.after)
    lines = diff(config_before, config_after, before, after)
    for line in lines:
        print(line)
    common = len(set(before) & set(after))
    print(f"{common} common checks, {len(lines)} differences")
    print(headroom_line("before", before))
    print(headroom_line("after", after))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
