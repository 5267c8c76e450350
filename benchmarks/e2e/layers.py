"""Outside-in layer tracing for the end-to-end benchmark.

The program is not edited: :func:`install` rebinds the names the drivers
call -- a method on its class, or a function on its defining module and on
every ``repro`` module that imported it by name (``repro.clamr.simulation
.regrid`` as well as ``repro.clamr.amr.regrid``) -- to a wrapper that
records one span per call.  Spans (id, name, start, end, parent) stay in
memory; :func:`write_spans` writes them out when the process is done.

A layer's self time is its span's duration minus the durations of its
direct wrapped children (:func:`self_times`).  Time inside a layer's
unwrapped callees stays with the layer; time outside every wrapper is the
family's ``other``.

The tracer keeps one span stack per process and assumes wrapped layers
are called from one thread, which holds for every workload here (the
sweep's lease heartbeat thread calls no wrapped function).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

__all__ = [
    "FAMILIES",
    "IDLE",
    "LAYER_NAMES",
    "PER_LAYER_UNITS",
    "Tracer",
    "install",
    "layer_metrics",
    "merge_summaries",
    "self_times",
    "write_spans",
]

#: layer groups, as (module under ``repro``, qualified name)
FAMILIES: dict[str, tuple[tuple[str, str], ...]] = {
    "clamr": (
        ("clamr.mesh", "AmrMesh.build_hash"),
        ("clamr.mesh", "AmrMesh.rebuild_neighbors"),
        ("clamr.amr", "regrid"),
        ("clamr.amr", "enforce_balance"),
        ("clamr.amr", "refinement_flags"),
        ("clamr.kernels", "FaceLists.from_mesh"),
        ("clamr.state", "ShallowWaterState.total_mass"),
        ("clamr.kernels", "finite_diff_vectorized"),
        ("clamr.muscl", "finite_diff_muscl"),
        ("clamr.kernels", "compute_timestep"),
    ),
    "self_": tuple(
        ("self_.equations", f"CompressibleEuler.{m}")
        for m in ("rhs", "_flux", "_surface_x", "_surface_y", "_surface_z", "_llf",
                  "primitives", "stable_dt")
    ) + (
        ("self_.timeint", "LowStorageRK3.step"),
        ("self_.filter", "apply_filter_3d"),
    ),
    "service": (
        ("service.queue", "JobQueue.submit"),
        ("service.queue", "JobQueue.claim"),
        ("service.queue", "JobQueue.reclaim_stale"),
        ("service.queue", "JobQueue.start"),
        ("service.queue", "JobQueue.finish"),
        ("service.cache", "ResultCache.get"),
        ("service.cache", "ResultCache.put"),
        ("ledger.store", "Ledger.append"),
        ("service.jobs", "execute_job"),
    ),
}

LAYER_NAMES: tuple[str, ...] = tuple(
    f"{module}.{qualname}" for layers in FAMILIES.values() for module, qualname in layers
)

#: the sweep worker's poll sleep, traced so waiting shows as its own span
IDLE = "service.worker.idle"


def _count_cells(tracer: "Tracer", args: tuple, _result) -> None:
    # every CLAMR kernel call is one step over mesh.ncells cells
    tracer.count("clamr.cells", args[0].ncells)
    tracer.count("clamr.steps", 1)


_OBSERVERS = {
    "clamr.kernels.finite_diff_vectorized": _count_cells,
    "clamr.muscl.finite_diff_muscl": _count_cells,
    "service.queue.JobQueue.claim":
        lambda t, _a, r: t.count("service.queue.empty_claims", r is None),
    "service.cache.ResultCache.get":
        lambda t, _a, r: t.count("service.cache.hits", r is not None),
}


class Tracer:
    """In-memory span recorder; spans are ``[id, name, start, end, parent]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def count(self, key: str, value) -> None:
        self.counts[key] += value

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with one span per call; ``observe(tracer, args, result)`` after."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer ``[self_s, calls]`` plus the observer counts."""
        return {"layers": self_times(self.spans), "counts": dict(self.counts)}


def self_times(spans) -> dict[str, list]:
    """``{name: [self_s, calls]}`` from spans whose ids index the list."""
    covered = [0.0] * len(spans)
    for _sid, _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = {}
    for sid, name, start, end, _parent in spans:
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += (end - start) - covered[sid]
        entry[1] += 1
    return out


def merge_summaries(summaries) -> dict:
    """Sum tracer summaries from several processes."""
    layers: dict[str, list] = {}
    counts: dict[str, float] = defaultdict(float)
    for s in summaries:
        for name, (self_s, calls) in s["layers"].items():
            entry = layers.setdefault(name, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
        for key, value in s["counts"].items():
            counts[key] += value
    return {"layers": layers, "counts": dict(counts)}


def _patch_method(tracer: Tracer, owner, attr: str, name: str) -> None:
    raw = owner.__dict__[attr]
    observe = _OBSERVERS.get(name)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, observe)))
    else:
        setattr(owner, attr, tracer.wrap(name, raw, observe))


def _patch_function(tracer: Tracer, module, attr: str, name: str) -> None:
    original = getattr(module, attr)
    wrapped = tracer.wrap(name, original, _OBSERVERS.get(name))
    for mod in list(sys.modules.values()):
        mod_name = getattr(mod, "__name__", "")
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


class _TracedSleep:
    """Stands in for the ``time`` module inside the sweep worker loop."""

    def __init__(self, sleep) -> None:
        self.sleep = sleep

    def __getattr__(self, attr):
        return getattr(time, attr)


def install(tracer: Tracer, families) -> None:
    """Wrap every layer of the named families (see :data:`FAMILIES`)."""
    for family in families:
        for module_name, qualname in FAMILIES[family]:
            module = importlib.import_module(f"repro.{module_name}")
            name = f"{module_name}.{qualname}"
            owner, _, attr = qualname.rpartition(".")
            if owner:
                _patch_method(tracer, getattr(module, owner), attr, name)
            else:
                _patch_function(tracer, module, attr, name)
        if family == "service":
            worker = importlib.import_module("repro.service.worker")
            worker.time = _TracedSleep(tracer.wrap(IDLE, time.sleep))


def write_spans(path, spans, pid: int) -> None:
    """Append spans to a JSONL file, one object per span."""
    with open(path, "a", encoding="utf-8") as fh:
        for sid, name, start, end, parent in spans:
            fh.write(json.dumps({"pid": pid, "id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")


# -- per-layer metrics -------------------------------------------------------

#: every per-layer metric with its unit, in report order
PER_LAYER_UNITS: dict[str, str] = {}
for _name in LAYER_NAMES:
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
for _family in FAMILIES:
    PER_LAYER_UNITS[f"{_family}.other.self_s"] = "s"
PER_LAYER_UNITS.update({
    "coverage": "1",
    "trace_overhead": "1",
    "clamr.cells_per_step": "cells",
    "service.cache.hit_ratio": "1",
    "service.queue.empty_claim_ratio": "1",
    "service.worker.idle_s": "s",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, family: str, untraced_solve_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced repetition.

    ``traced`` holds the merged tracer summary (``layers``, ``counts``),
    ``wall_s`` (the traced window: set-up after the imports, plus the
    solve) and ``solve_s``.  Idle time counts as attributed time.
    """
    layers, counts, wall = traced["layers"], traced["counts"], traced["wall_s"]
    attributed = sum(self_s for self_s, _calls in layers.values())
    out: dict[str, float] = {}
    for name in LAYER_NAMES:
        self_s, calls = layers.get(name, (0.0, 0))
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    for fam in FAMILIES:
        out[f"{fam}.other.self_s"] = wall - attributed if fam == family else 0.0
    out["coverage"] = _ratio(attributed, wall)
    out["trace_overhead"] = _ratio(traced["solve_s"], untraced_solve_s) - 1.0
    out["clamr.cells_per_step"] = _ratio(counts.get("clamr.cells", 0.0),
                                         counts.get("clamr.steps", 0.0))
    gets = layers.get("service.cache.ResultCache.get", (0.0, 0))[1]
    out["service.cache.hit_ratio"] = _ratio(counts.get("service.cache.hits", 0.0), gets)
    claims = layers.get("service.queue.JobQueue.claim", (0.0, 0))[1]
    out["service.queue.empty_claim_ratio"] = _ratio(
        counts.get("service.queue.empty_claims", 0.0), claims)
    out["service.worker.idle_s"] = layers.get(IDLE, (0.0, 0))[0]
    return out
