"""Per-layer instrumentation, installed from outside the program.

A traced run wraps the public entry points of each stack layer: module
functions (at every module binding, since ``from x import f`` copies the
binding) and class methods.  Each wrapper records, into the process-wide
``repro.obs`` registry under ``perfbench.*`` names:

* ``span.<metric>``: wall seconds in the outermost call of that metric;
* ``calls.<metric>``: number of calls, nested ones included;
* ``self.<layer>``: the layer's self time, its spans minus the wrapped
  calls nested directly inside them;
* ``arg.<metric>``: a size taken from the call's arguments, for
  cross-checks against the program's own counters.

The registry is the transport: sweep pool workers reset it per chunk and
ship it home, where ``map_chunks`` merges it, so worker-side layer time
arrives with the existing counters.  Stacks are per process; at ``--jobs``
above one, layer seconds sum over the client and its workers.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

PREFIX = "perfbench."

#: (layer, metric, module, attribute path).  Several targets may share a
#: metric; its span counts only the outermost of them.
TARGETS = (
    ("cli", "cli.handler", "repro.cli", "main"),
    ("pipeline", "pipeline.plan_network", "repro.core.pipeline", "plan_network"),
    # every planning run, including plan_optimal's legacy-node path
    ("pipeline", "pipeline.run_pipeline", "repro.core.pipeline", "run_pipeline"),
    *(
        ("pipeline", f"pipeline.pass.{name}", "repro.core.pipeline", f"{name}.run")
        for name in (
            "ResolveShapes",
            "AssignLayouts",
            "InsertTransforms",
            "EliminateRedundantTransforms",
            "FuseKernels",
            "SelectImplementations",
        )
    ),
    ("pipeline", "pipeline.cost_table", "repro.core.pipeline", "TransformCostTable.precompute"),
    ("pipeline", "pipeline.cost_table", "repro.core.pipeline", "TransformCostTable.edge_ms"),
    ("planner", "planner.plan_optimal", "repro.core.planner", "plan_optimal"),
    ("autotune", "autotune.pooling", "repro.core.autotune", "autotune_pooling"),
    ("autotune", "autotune.pooling", "repro.core.autotune", "autotune_pooling_many"),
    ("baselines", "baselines.compare_schemes", "repro.baselines.schemes", "compare_schemes"),
    ("analysis", "analysis.verify", "repro.analysis.dataflow.verify", "verify_network"),
    ("analysis", "analysis.verify", "repro.analysis.dataflow.verify", "verify_graph"),
    ("analysis", "analysis.lint", "repro.analysis.lint", "lint_network"),
    ("analysis", "analysis.sweep", "repro.analysis.sweeps", "sweep_conv"),
    ("analysis", "analysis.sweep", "repro.analysis.sweeps", "sweep_pool"),
    ("analysis", "analysis.sweep", "repro.analysis.sweeps", "sweep_softmax"),
    ("exec", "exec.evaluate_cells", "repro.gpusim.exec", "evaluate_cells"),
    ("exec", "exec.map_chunks", "repro.gpusim.exec", "map_chunks"),
    ("pool", "exec.pool_wait", "concurrent.futures", "Future.result"),
    ("batch", "batch.evaluate_models", "repro.gpusim.batch", "evaluate_models"),
    ("session", "session.run", "repro.gpusim.session", "SimulationContext.run"),
    ("session", "session.structural_key", "repro.gpusim.session", "structural_key"),
    ("session", "session.load_cache", "repro.gpusim.session", "SimulationContext.load_cache"),
    ("session", "session.save_cache", "repro.gpusim.session", "SimulationContext.save_cache"),
    ("model", "model.time_model", "repro.gpusim.timing", "time_model"),
    ("model", "model.time_kernel", "repro.gpusim.timing", "time_kernel"),
    ("l2", "l2.access_stream", "repro.gpusim.cache", "SetAssociativeCache.access_stream"),
    ("coalescing", "coalescing.analyze_warps", "repro.gpusim.coalescing", "analyze_warps"),
    ("trace", "trace.transaction_stream", "repro.gpusim.trace", "transaction_stream"),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: sizes taken from call arguments (positional index of the sized argument)
_ARG_SIZES = {
    "exec.evaluate_cells": 1,
    "batch.evaluate_models": 1,
    "l2.access_stream": 1,  # after ``self``
}

#: counted (not timed) SimStats hooks: metric -> how many queries one call records
_COUNTED = {
    "record_hit": ("session.hits", lambda args: 1),
    "record_miss": ("session.misses", lambda args: 1),
    "record_batch": ("session.misses", lambda args: sum(args[1].values())),
}

#: the program's own repro.obs counters read beside the wrappers
OBS_COUNTERS = (
    "exec.cache.hit",
    "exec.cache.miss",
    "exec.cache.dedup",
    "exec.cache.error_hit",
    "exec.pool.chunks",
    "batch.eval.batches",
    "batch.eval.candidates",
    "cache_model.replays",
    "cache_model.accesses",
)

_stack: list[list[float]] = []  # one [child seconds] cell per open span
_active: dict[str, int] = {}  # metric -> open outermost-call depth


def _reset_after_fork() -> None:
    _stack.clear()
    _active.clear()


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else len(value)


def _timed(fn, layer: str, metric: str, registry):
    arg_index = _ARG_SIZES.get(metric)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth = _active.get(metric, 0)
        _active[metric] = depth + 1
        cell = [0.0]
        _stack.append(cell)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            _stack.pop()
            _active[metric] = depth
            if _stack:
                _stack[-1][0] += elapsed
            reg = registry()
            reg.counter(f"{PREFIX}self.{layer}").inc(elapsed - cell[0])
            reg.counter(f"{PREFIX}calls.{metric}").inc()
            if depth == 0:
                reg.counter(f"{PREFIX}span.{metric}").inc(elapsed)
            if arg_index is not None and len(args) > arg_index:
                reg.counter(f"{PREFIX}arg.{metric}").inc(_size(args[arg_index]))

    return wrapper


def _counted(fn, metric: str, amount, registry):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        registry().counter(f"{PREFIX}count.{metric}").inc(amount(args))
        return result

    return wrapper


def _rebind(original, wrapper) -> None:
    """Point every program-module binding of ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith(("repro.", "bench_", "figutil"))
        ):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


def install() -> None:
    """Wrap every target, once per process, after the program's modules
    are imported."""
    from repro.gpusim.session import SimStats
    from repro.obs.metrics import global_registry

    for layer, metric, module_name, path in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = _timed(original, layer, metric, global_registry)
        setattr(owner, attr, wrapper)
        if not outer:  # a method needs only its class patched
            _rebind(original, wrapper)
    for attr, (metric, amount) in _COUNTED.items():
        setattr(SimStats, attr, _counted(getattr(SimStats, attr), metric, amount, global_registry))
    os.register_at_fork(after_in_child=_reset_after_fork)


def snapshot() -> dict[str, float]:
    """Current values of every ``perfbench.*`` and cross-checked counter."""
    from repro.obs.metrics import global_registry

    reg = global_registry()
    names = reg.names(PREFIX) + list(OBS_COUNTERS)
    return {name: reg.value(name) for name in names}


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def add(total: dict[str, float], part: dict[str, float]) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0.0) + v


def cross_check(totals: dict[str, float]) -> list[str]:
    """Disagreements between wrapper counts and the program's counters."""

    def get(name: str) -> float:
        return totals.get(name, 0.0)

    problems = []
    served = sum(get(f"exec.cache.{k}") for k in ("hit", "miss", "dedup", "error_hit"))
    cells = get(f"{PREFIX}arg.exec.evaluate_cells")
    if served > cells:
        problems.append(f"exec.cache counted {served:.0f} cells, wrappers saw {cells:.0f}")
    pairs = (
        ("exec.pool.chunks", f"{PREFIX}calls.exec.pool_wait"),
        ("cache_model.replays", f"{PREFIX}calls.l2.access_stream"),
        ("cache_model.accesses", f"{PREFIX}arg.l2.access_stream"),
    )
    for obs_name, ours in pairs:
        if get(obs_name) != get(ours):
            problems.append(f"{obs_name}={get(obs_name):.0f} but {ours}={get(ours):.0f}")
    if get("batch.eval.batches") > get(f"{PREFIX}calls.batch.evaluate_models"):
        problems.append("batch.eval.batches exceeds wrapped evaluate_models calls")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, float], ops: int) -> dict[str, float]:
    """Per-op layer metrics from counter totals summed over ``ops`` ops."""

    def get(name: str) -> float:
        return totals.get(PREFIX + name, 0.0)

    def per_op(value: float) -> float:
        return value / ops

    out: dict[str, float] = {}
    for metric in dict.fromkeys(t[1] for t in TARGETS):
        out[f"{metric}_s"] = per_op(get(f"span.{metric}"))
    for metric in ("pipeline.plan_network", "session.run", "model.time_kernel", "l2.access_stream"):
        out[f"{metric}_calls"] = per_op(get(f"calls.{metric}"))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_op(get(f"self.{layer}"))

    hits = totals.get("exec.cache.hit", 0.0)
    misses = totals.get("exec.cache.miss", 0.0)
    cells = get("arg.exec.evaluate_cells")
    out["exec.cells"] = per_op(cells)
    out["exec.memo_hit_ratio"] = _ratio(hits, hits + misses)
    out["exec.dedup_ratio"] = _ratio(totals.get("exec.cache.dedup", 0.0), cells)
    out["exec.pool_chunks"] = per_op(totals.get("exec.pool.chunks", 0.0))
    candidates = totals.get("batch.eval.candidates", 0.0)
    out["batch.candidates"] = per_op(candidates)
    out["batch.candidates_per_s"] = _ratio(candidates, get("span.batch.evaluate_models"))
    s_hits, s_misses = get("count.session.hits"), get("count.session.misses")
    out["session.hit_ratio"] = _ratio(s_hits, s_hits + s_misses)
    out["l2.accesses"] = per_op(totals.get("cache_model.accesses", 0.0))
    return out
