"""Outside-in layer tracing of the loopforms package.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` wraps
every public module-level function of each loopforms module, the numpy
kernels ``linalg.eigh``, ``linalg.svd`` and ``fft.fft``/``fft.ifft``,
and the ``coeff`` of every ``FormField`` as it is constructed.  The
wrappers are rebound wherever the original function object is bound: on
its own module and on every loopforms module that imported it by name
(``from .liecore import eval_invariant_polynomial``).

Each wrapped call is a span.  A span's self time is its duration minus
the durations of the spans it directly encloses; a layer's self time is
the sum over its spans.  Coefficient closures count toward the layer of
the module that defines them, and are also summed as ``formscalc.coeff``.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "liecore",
    "loopspace",
    "formscalc",
    "connections",
    "caloron",
    "pathfib",
    "centralext",
    "sampling",
    "report",
)
KERNELS = (("linalg", "eigh", "numpy.eigh"), ("linalg", "svd", "numpy.svd"),
           ("fft", "fft", "numpy.fft"), ("fft", "ifft", "numpy.fft"))


def _holonomy_steps(args, kwargs) -> int:
    # higgs_holonomy(xi, refine=8) steps refine * N times.
    xi = args[0] if args else kwargs["xi"]
    refine = args[1] if len(args) > 1 else kwargs.get("refine", 8)
    return refine * xi.shape[0]


def _loop_matrices(args, kwargs) -> int:
    xi = args[0] if args else kwargs["xi"]
    return math.prod(xi.shape[:-2])


# Work counters beyond the call count: span name -> (metric suffix, counter).
WORK = {
    "pathfib.higgs_holonomy": ("steps", _holonomy_steps),
    "loopspace.exp_loop": ("matrices", _loop_matrices),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.coeff_keys: set = set()
        self._stack: list[float] = []  # per open span: time of its child spans
        self._patches: list[tuple[object, str, object]] = []
        self._forms = 0

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        stack, calls, self_s, layer_self_s = (
            self._stack, self.calls, self.self_s, self.layer_self_s)
        clock = time.perf_counter
        work = WORK.get(name)

        def span(*args, **kwargs):
            calls[name] += 1
            if work is not None:
                self.work[f"{name}.{work[0]}"] += work[1](args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own = dt - stack.pop()
                self_s[name] += own
                layer_self_s[layer] += own
                if stack:
                    stack[-1] += dt

        span.__wrapped__ = fn
        return span

    def _wrap_coeff(self, coeff):
        self._forms += 1
        form_id = self._forms
        keys = self.coeff_keys
        layer = getattr(coeff, "__module__", "formscalc").rpartition(".")[2]
        timed = self._wrap(coeff, "formscalc.coeff", layer)

        def traced_coeff(p, idx):
            point = np.asarray(p)
            keys.add((form_id, point.shape, point.tobytes(), tuple(idx)))
            return timed(p, idx)

        traced_coeff.traced_coeff = True
        return traced_coeff

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function wherever it is bound."""
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"loopforms.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for sub, attr, name in KERNELS:
            owner = getattr(np, sub)
            original = getattr(owner, attr)
            wrappers[id(original)] = self._wrap(original, name, "numpy")
            self._set(owner, attr, wrappers[id(original)])
        for modname, mod in list(sys.modules.items()):
            if modname == "loopforms" or modname.startswith("loopforms."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and wrappers[id(obj)] is not obj:
                        self._set(mod, attr, wrappers[id(obj)])

        FormField = importlib.import_module("loopforms.formscalc").FormField
        post_init = FormField.__post_init__

        def traced_post_init(form) -> None:
            post_init(form)
            if not getattr(form.coeff, "traced_coeff", False):
                object.__setattr__(form, "coeff", self._wrap_coeff(form.coeff))

        self._set(FormField, "__post_init__", traced_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts and self times by span and by layer, after a traced pass."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.work)
        for layer in LAYERS + ("numpy",):
            out[f"{layer}.self_s"] = self.layer_self_s.get(layer, 0.0)
        n = self.calls.get("formscalc.coeff", 0)
        out["formscalc.coeff.distinct_ratio"] = len(self.coeff_keys) / n if n else 0.0
        return out
