"""Command-line entry point.

    loopforms verify --suite all --seed 7 --format json --out report.json
    loopforms table coefficients --kmax 20

Configuration can also come from a json file (--config); explicit flags
override file values, and LOOPFORMS_SEED overrides the default seed.

``verify`` exits 0 when every check passes, 1 when a check fails, 2 on a
configuration error (nothing runs) and 3 when a check raised; 3 takes
precedence over 1, and the other checks still run and are reported.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .report import (
    ConfigError,
    RunConfig,
    SUITES,
    coefficient_table,
    emit_report,
    run_suite,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loopforms")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", default=None, help=f"one of {SUITES + ['all']} (default all)")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--n", type=int, default=None, help="su(n) rank parameter")
    verify.add_argument("--samples", type=int, default=None, help="loop samples N")
    verify.add_argument("--step", type=float, default=None, help="finite-difference step")
    verify.add_argument("--format", default="text", choices=["json", "csv", "text"])
    verify.add_argument("--out", default=None, help="write the report to a file")
    verify.add_argument("--config", default=None, help="json file with config fields")

    table = sub.add_parser("table", help="print exact coefficient tables")
    table.add_argument("what", choices=["coefficients"])
    table.add_argument("--kmax", type=int, default=20)
    table.add_argument("--out", default=None)
    return parser


def _config_from_args(args) -> RunConfig:
    fields: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"cannot read --config {args.config!r}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"--config must hold a JSON object, got {type(loaded).__name__}")
        fields.update(loaded)
    env_seed = os.environ.get("LOOPFORMS_SEED")
    if env_seed is not None and "seed" not in fields:
        try:
            fields["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"LOOPFORMS_SEED must be an integer, got {env_seed!r}") from None
    overrides = {
        "suite": args.suite,
        "seed": args.seed,
        "n": args.n,
        "samples": args.samples,
        "fd_step": args.step,
    }
    for key, val in overrides.items():
        if val is not None:
            fields[key] = val
    unknown = set(fields) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**fields)


def _output(out: str | None):
    """The ``--out`` file, opened before anything runs so that a path that
    cannot be written is a configuration error, or stdout."""
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out!r}: {exc}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            config = _config_from_args(args)
            config.validate()  # a bad config leaves no --out file behind
            with _output(args.out) as fh:
                report = run_suite(config)
                fh.write(emit_report(report, args.format))
            if any(c.status == "error" for c in report.checks):
                return 3
            return 0 if report.all_passed else 1
        if args.command == "table":
            text = coefficient_table(args.kmax)
            with _output(args.out) as fh:
                fh.write(text)
            return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
