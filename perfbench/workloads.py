"""Workload table shared by the orchestrator and the worker.

Pure data, so the orchestrator can read it without importing numpy.  A
workload is a list of ``RunConfig`` field sets; one pass runs
``report.run_suite`` once per entry, in order.  The seed comes from the
command line and is added to every entry.

``expected_zero`` names the per-layer metrics that must read exactly zero
on the workload; every other per-layer metric must read non-zero.  A
renamed or rewired function therefore fails the run instead of quietly
reporting zero.
"""

from __future__ import annotations

SUITES = ("caloron", "centralext", "forms", "lie", "loops", "pathfib", "string")

_HOLONOMY = {
    "pathfib.higgs_holonomy.calls",
    "pathfib.higgs_holonomy.self_s",
    "pathfib.higgs_holonomy.steps",
    "numpy.svd.calls",
    "numpy.svd.self_s",
    "loopspace.project_unitary.calls",
}
_COEFF = {
    "formscalc.coeff.calls",
    "formscalc.coeff.self_s",
    "formscalc.coeff.distinct_ratio",
    "formscalc.evaluate.calls",
}


def _suites_absent(*present: str) -> set[str]:
    return {f"report.suite.{s}.s" for s in SUITES if s not in present}


WORKLOADS = {
    # Suite `all` with the command-line defaults: what `loopforms verify`
    # runs.  Cost is spread over every layer, so it is the workload on
    # which a change to any single layer must not regress.
    "suite_default": {
        "configs": [{"suite": "all"}],
        "checks": 58,
        "expected_zero": set(),
    },
    # Chart-form work at su(3) and 128 samples: coefficient closures,
    # batched exp_loop/eigh, simplicial face pushes.  Never solves a
    # holonomy, so a holonomy change must leave it unchanged.
    "charts_su3": {
        "configs": [
            {"suite": s, "n": 3, "samples": 128}
            for s in ("forms", "string", "caloron", "centralext")
        ],
        "checks": 35,
        "expected_zero": _HOLONOMY
        | {
            "pathfib.self_s",
            "pathfib.pf_higher_string_vs_transgression.self_s",
        }
        | _suites_absent("forms", "string", "caloron", "centralext"),
    },
    # Path fibration on a fine grid: holonomy solves with many tiny
    # per-step loopspace calls and no coefficient closures, so a
    # coefficient memo must leave it unchanged.
    "pathfib_fine": {
        "configs": [{"suite": "pathfib", "pathfib_samples": 512}],
        "checks": 11,
        "expected_zero": _COEFF
        | {
            "formscalc.self_s",
            "connections.self_s",
            "caloron.self_s",
            "centralext.self_s",
            "centralext.simplicial_delta_eval.calls",
            "centralext.simplicial_delta_eval.self_s",
            "caloron.g_curvature_components.calls",
            "caloron.g_curvature_components.self_s",
            "loopspace.rotate.calls",
        }
        | _suites_absent("pathfib"),
    },
}
