#!/usr/bin/env python3
"""Count loop operations repeated on bitwise-equal inputs within a check.

    python scripts/loop_repeats.py [--suite S] [--check NAME] [--seed N] [--top K]

Wraps ``loopspace.loop_product``, ``loop_derivative``, ``exp_loop`` and
``resample`` from outside, on ``loopspace`` and on every loopforms module
that imported one by name, then runs ``run_suite`` once at the CLI
defaults.  A call is a repeat when its inputs (each array's dtype, shape
and bytes, and every other argument) equal those of an earlier call of
the same function in the same check.  Prints the calls and repeats of
each function per check, a total row, and the ``--top`` call sites with
the most repeats, a site being the nearest caller outside ``loopspace``.
``--check NAME`` runs that one check of the suite alone, so the table and
the sites are its own; each check draws from a generator of its own, so
its figures are those it has in the full run.

``coeff_repeats.py`` counts repeats within one form object's memo, so it
cannot see two forms that compute the same thing; this count can.
"""

import argparse
import hashlib
import pathlib
import sys
from collections import Counter, defaultdict

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import loopforms
from loopforms import loopspace as lp
from loopforms import report as rp

FUNCTIONS = ("loop_product", "loop_derivative", "exp_loop", "resample")
MODULES = ("caloron", "centralext", "connections", "formscalc", "liecore", "loopspace",
           "pathfib", "report", "sampling")


def _key(args) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in args:
        if isinstance(a, np.ndarray):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(repr(a).encode())
        h.update(b"|")
    return h.digest()


def _site() -> str:
    """module.function:line of the nearest caller outside loopspace, functools
    (a ``cached_property`` of a loopspace element) and this script."""
    frame = sys._getframe(2)
    while frame.f_globals.get("__name__") in ("loopforms.loopspace", "functools", __name__):
        frame = frame.f_back
    module = frame.f_globals.get("__name__", "?").rpartition(".")[2]
    code = frame.f_code
    return f"{module}.{getattr(code, 'co_qualname', code.co_name)}:{frame.f_lineno}"


class Repeats:
    def __init__(self) -> None:
        self.check = None
        self.calls: dict[str, Counter] = defaultdict(Counter)  # check -> function -> calls
        self.repeats: dict[str, Counter] = defaultdict(Counter)
        self.sites: Counter = Counter()  # (function, site) -> repeats
        self._seen: dict[str, set] = defaultdict(set)

    def begin(self, check: str) -> None:
        self.check = check
        self.calls.setdefault(check, Counter())  # a row even without loop calls
        self._seen.clear()

    def wrap(self, name: str, fn):
        def counted(*args, **kwargs):
            key = _key(args + tuple(x for item in sorted(kwargs.items()) for x in item))
            self.calls[self.check][name] += 1
            if key in self._seen[name]:
                self.repeats[self.check][name] += 1
                self.sites[name, _site()] += 1
            else:
                self._seen[name].add(key)
            return fn(*args, **kwargs)

        return counted

    def install(self, only: str | None = None) -> None:
        """Rebind the wrappers wherever the functions are bound, and scope
        the counts to each check that ``run_suite`` takes (only the check
        named ``only``, if given)."""
        for name in FUNCTIONS:
            original = getattr(lp, name)
            wrapped = self.wrap(name, original)
            for mod_name in MODULES:
                mod = getattr(loopforms, mod_name)
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        checks_for = rp.checks_for

        def scoped(check):
            def run(*args, **kwargs):
                self.begin(check.name)
                return check.run(*args, **kwargs)

            return check._replace(run=run)

        rp.checks_for = lambda suite: [
            scoped(c) for c in checks_for(suite) if only is None or c.name == only
        ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", default="all", choices=[*sorted(rp.SUITES), "all"])
    ap.add_argument("--check", help="run only this check of the suite")
    ap.add_argument("--seed", type=int, default=rp.DEFAULT_SEED)
    ap.add_argument("--top", type=int, default=15, help="call sites to list")
    args = ap.parse_args()
    if args.check is not None and args.check not in {c.name for c in rp.checks_for(args.suite)}:
        ap.error(f"no check {args.check!r} in suite {args.suite}")

    counts = Repeats()
    counts.install(args.check)
    rep = rp.run_suite(rp.RunConfig(suite=args.suite, seed=args.seed))

    names = sorted(counts.calls)
    width = max(len(n) for n in names + ["check"])
    head = "".join(f" {f + ' calls/rep':>28}" for f in FUNCTIONS)
    print(f"{'check':<{width}}{head}")
    total_calls, total_repeats = Counter(), Counter()
    for name in names:
        calls, repeats = counts.calls[name], counts.repeats[name]
        total_calls.update(calls)
        total_repeats.update(repeats)
        cells = "".join(f" {calls[f]:>18d} / {repeats[f]:>7d}" for f in FUNCTIONS)
        print(f"{name:<{width}}{cells}")
    cells = "".join(f" {total_calls[f]:>18d} / {total_repeats[f]:>7d}" for f in FUNCTIONS)
    print(f"{'total':<{width}}{cells}")

    print(f"\ntop {args.top} call sites by repeats:")
    for (function, site), n in counts.sites.most_common(args.top):
        print(f"{n:8d}  {function:<16} {site}")
    print(f"suite {args.suite}, seed {args.seed}: {len(rep.checks)} checks, "
          f"{'all passed' if rep.all_passed else 'NOT all passed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
