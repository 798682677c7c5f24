"""The functions the benchmark's per-layer metrics name still exist, and
each workload selects the number of checks it expects.

``perfbench/tracer.py`` names a span ``<module>.<function>`` after the
public function it wraps, and its work counters read the first argument
of the functions in ``tracer.WORK``.  ``perfbench/workloads.py`` pins each
workload's check count, and the benchmark counts every missing check as a
failure.  A rename, a new signature or an added or removed check would
otherwise show only in a benchmark run.  These files are only read.
"""

import importlib
import importlib.util
import inspect
import json
import pathlib

import pytest

from loopforms import report as rp

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the span the tracer puts on every FormField coefficient, not a module function
COEFF_SPAN = "formscalc.coeff"


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _perfbench("tracer")
WORKLOADS = _perfbench("workloads").WORKLOADS
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
SUFFIXES = {"calls", "self_s"} | {suffix for suffix, _ in TRACER.WORK.values()}


def _public_function(span: str):
    layer, name = span.split(".")
    fn = getattr(importlib.import_module(f"loopforms.{layer}"), name, None)
    assert inspect.isfunction(fn) and not name.startswith("_"), f"{span} is not a public function"
    assert fn.__module__ == f"loopforms.{layer}", f"{span} is defined in {fn.__module__}"
    return fn


def _function_spans():
    spans = set()
    for metric in PER_LAYER:
        parts = metric.split(".")
        if len(parts) == 3 and parts[0] in TRACER.LAYERS and parts[2] in SUFFIXES:
            spans.add(".".join(parts[:2]))
    return sorted(spans - {COEFF_SPAN})


def test_the_metric_list_names_functions():
    # guards _function_spans' filter: an empty selection would pass every test
    assert "loopspace.exp_loop" in _function_spans()
    assert "pathfib.higgs_holonomy" in _function_spans()


@pytest.mark.parametrize("span", _function_spans())
def test_per_layer_metric_names_a_public_function(span):
    _public_function(span)


@pytest.mark.parametrize("span", sorted(TRACER.WORK))
def test_work_counters_read_xi_first(span):
    params = list(inspect.signature(_public_function(span)).parameters)
    assert params[:1] == ["xi"], f"{span} takes {params}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_check_count_is_what_its_configs_select(workload):
    spec = WORKLOADS[workload]
    selected = sum(len(rp.checks_for(rp.RunConfig(**config).suite)) for config in spec["configs"])
    assert selected == spec["checks"]
