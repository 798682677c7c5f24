#!/usr/bin/env python3
"""Plant known bugs in a copy of ``src/`` and list the checks that catch them.

    python scripts/mutation_sweep.py [--suite S] [--mutant NAME ...]

Each mutant in ``MUTANTS`` is one textual replacement in one module of
``src/loopforms``; its text must occur exactly once there, or the sweep
stops with exit 2 before running anything.  For each mutant the sweep
copies ``src/`` to a temporary directory, applies the replacement and runs
``loopforms verify --suite S --format json`` there at seeds 20090622 and 1
(default suite ``all``), one process at a time.  A check kills a
mutant when it does not pass (FAIL or error) at some seed where it passes
on the unmutated copy.  Prints one row per mutant with its killers, a
check killing at only some seeds marked ``@seed``, then the kill ratio.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (20090622, 1)


class Mutant(NamedTuple):
    name: str
    what: str
    module: str  # file under src/loopforms
    old: str
    new: str


MUTANTS = (
    Mutant("M1", "fibre merge weight copies -> 1", "formscalc.py",
           "sign * (copies if c.beta.degree % 2 == 0",
           "sign * (1 if c.beta.degree % 2 == 0"),
    Mutant("M2", "higher_string_form drops its k", "connections.py",
           "fc.form_sum([fc.integrate_loop_form(integrand)], [float(k)])",
           "fc.form_sum([fc.integrate_loop_form(integrand)], [1.0])"),
    Mutant("M3", "F_tilde drops f Phi", "connections.py",
           "return fc.form_sum([self.F, fc.wedge_scalar(self.f, self.phi)])",
           "return self.F"),
    Mutant("M4", "twisted F: twist sign flipped", "connections.py",
           "fc.form_sum([dA, AA, twist], [1.0, 1.0, -1.0])",
           "fc.form_sum([dA, AA, twist], [1.0, 1.0, 1.0])"),
    Mutant("M5", "twisted nabla Phi: twist sign flipped", "connections.py",
           "fc.form_sum(terms + [twist], [1.0, 1.0, -1.0, -1.0])",
           "fc.form_sum(terms + [twist], [1.0, 1.0, -1.0, 1.0])"),
    Mutant("M6", "to_g_connection assembles A_i - a_i Phi", "caloron.py",
           "Ai = Ai + c.a.coeff(p[:b], idx) * c.phi(p[:b])",
           "Ai = Ai - c.a.coeff(p[:b], idx) * c.phi(p[:b])"),
    Mutant("M7", "twisted cylinder: sign of a ^ nabla Phi", "connections.py",
           "fc.wedge_scalar(self.a, self.nabla_phi)], [1.0, -1.0])",
           "fc.wedge_scalar(self.a, self.nabla_phi)], [1.0, 1.0])"),
    Mutant("M8", "f Phi scaled by 1 + 1e-6", "connections.py",
           "fc.form_sum([self.F, fc.wedge_scalar(self.f, self.phi)])",
           "fc.form_sum([self.F, fc.wedge_scalar(self.f, self.phi)], [1.0, 1.0 + 1e-6])"),
    Mutant("M9", "transport target conjugated by g, not g^-1", "caloron.py",
           "lp.adjoint_inverse(g, base[key])",
           "lp.adjoint(g, base[key])"),
    Mutant("M10", "wedge_bracket: bracket arguments swapped", "formscalc.py",
           "poly_wedge([A, B], lambda v: bracket(v[0], v[1]))",
           "poly_wedge([A, B], lambda v: bracket(v[1], v[0]))"),
    Mutant("M11", "logarithm scaled by 1 + 1e-6", "liecore.py",
           "return 0.5 * (L - L.conj().T)",
           "return (1.0 + 1e-6) * 0.5 * (L - L.conj().T)"),
)


def not_passing(src: str, suite: str, seed: int, out: str) -> set[str]:
    """Names of the checks that FAIL or raise on the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "loopforms.cli", "verify", "--suite", suite, "--seed", str(seed),
         "--format", "json", "--out", out],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode not in (0, 1, 3):
        sys.exit(f"verify exited {proc.returncode}:\n{proc.stderr}")
    with open(out) as fh:
        return {c["name"] for c in json.load(fh)["checks"] if c["status"] != "pass"}


def plant(mutant: Mutant, dest: str) -> None:
    """Copy ``src/`` to ``dest`` with the mutant's replacement applied."""
    shutil.copytree(os.path.join(ROOT, "src"), dest,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = os.path.join(dest, "loopforms", mutant.module)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def stale(mutants) -> list[str]:
    """Mutants whose text does not occur exactly once in their module."""
    out = []
    for m in mutants:
        with open(os.path.join(ROOT, "src", "loopforms", m.module)) as fh:
            if fh.read().count(m.old) != 1:
                out.append(m.name)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="all")
    parser.add_argument("--mutant", action="append", dest="names", help="run only these")
    args = parser.parse_args()
    by_name = {m.name: m for m in MUTANTS}
    unknown = sorted(set(args.names or ()) - set(by_name))
    if unknown:
        parser.error(f"unknown mutant(s) {unknown}; known: {sorted(by_name)}")
    mutants = [by_name[n] for n in args.names] if args.names else list(MUTANTS)
    bad = stale(mutants)
    if bad:
        print(f"mutant text not found exactly once: {', '.join(bad)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        out = os.path.join(tmp, "report.json")
        baseline = {s: not_passing(os.path.join(ROOT, "src"), args.suite, s, out) for s in SEEDS}
        for s in SEEDS:
            if baseline[s]:
                print(f"unmutated, seed {s}: not passing {sorted(baseline[s])} (not counted)")
        print(f"suite {args.suite}, seeds {', '.join(map(str, SEEDS))}")
        killed = 0
        for m in mutants:
            src = os.path.join(tmp, m.name)
            plant(m, src)
            at = {s: not_passing(src, args.suite, s, out) - baseline[s] for s in SEEDS}
            shutil.rmtree(src)
            names = sorted(set().union(*at.values()))
            killers = [n + "".join(f"@{s}" for s in SEEDS if n in at[s])
                       if any(n not in at[s] for s in SEEDS) else n for n in names]
            killed += bool(killers)
            print(f"{m.name:<4} {m.what:<42} {', '.join(killers) if killers else 'SURVIVED'}")
    print(f"killed {killed} of {len(mutants)} ({killed / len(mutants):.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
