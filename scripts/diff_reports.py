#!/usr/bin/env python3
"""Compare two ``loopforms verify --format json`` reports check by check.

    python scripts/diff_reports.py BEFORE.json AFTER.json

Lists checks present in only one report, anchor and tolerance changes,
and every residual that is not bitwise equal, with its change in decades
(log10 of after / before).  Exits 0 when the reports agree on all of
these, 1 otherwise.
"""

import argparse
import json
import math
import sys


def load_checks(path: str) -> dict:
    with open(path) as fh:
        return {c["name"]: c for c in json.load(fh)["checks"]}


def decades(before: float, after: float) -> str:
    if before > 0 and after > 0:
        return f"{math.log10(after / before):+.4f} dec"
    return "n/a"


def diff(before: dict, after: dict) -> list[str]:
    lines = [f"removed: {name}" for name in sorted(set(before) - set(after))]
    lines += [f"added: {name}" for name in sorted(set(after) - set(before))]
    for name in sorted(set(before) & set(after)):
        b, a = before[name], after[name]
        for key in ("anchor", "tolerance"):
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
    before, after = load_checks(args.before), load_checks(args.after)
    lines = diff(before, after)
    for line in lines:
        print(line)
    common = len(set(before) & set(after))
    print(f"{common} common checks, {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
