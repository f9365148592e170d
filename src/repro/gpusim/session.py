"""Simulation sessions: one shared simulator handle for a whole workload.

The paper's pitch is *one-time profiling* whose results amortize across a
network (Section IV.D).  In the spirit of cuDNN's single library handle,
every consumer of the simulator (planner, selector, autotuner, fusion pass,
baselines, sweeps, CLI) times kernels through one
:class:`SimulationContext`:

* :func:`structural_key` — a content-addressed key derived from a kernel
  model's structural state plus the full device spec, so two structurally
  equal models built independently share one timing;
* :class:`SimStats` — instrumentation counters (hits, misses, wall-clock
  spent simulating, per-kind breakdown) that any session can print;
* :class:`SimulationContext` — the session object owning the cache, the
  stats, and the OOM/``tensor_bytes_resident`` accounting, with optional
  JSON persistence for cross-process reuse by benchmarks;
* :func:`default_context` — a per-device shared session, so callers that
  pass no context still share one hot cache.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from hashlib import sha256
from itertools import islice
from pathlib import Path
from typing import Any

from ..obs.metrics import MetricsRegistry, register_metrics_provider
from ..obs.tracer import active_tracer
from .device import DeviceSpec
from .kernel import ComposedKernel, KernelModel
from .timing import KernelStats, time_model
from .occupancy import Occupancy


class GpuOutOfMemoryError(RuntimeError):
    """Raised when a kernel's footprint exceeds the device's DRAM."""

    def __init__(self, kernel: str, required: float, available: float) -> None:
        self.kernel = kernel
        self.required_bytes = required
        self.available_bytes = available
        super().__init__(
            f"{kernel}: requires {required / 2**30:.2f} GiB device memory, "
            f"card has {available / 2**30:.2f} GiB"
        )


# ---------------------------------------------------------------------------
# Structural cache keys
# ---------------------------------------------------------------------------


def _describe(obj: Any) -> Any:
    """A JSON-stable structural description of kernel-model state.

    Kernel models are described by their class plus :meth:`structural_state`
    (instance attributes minus derived memo caches); dataclasses (specs,
    layouts, geometry records) by their fields.  The description determines
    the timing result, so equal descriptions may share one cache entry.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)  # full precision, JSON-stable
    if isinstance(obj, KernelModel):
        cls = type(obj)
        state = {k: _describe(v) for k, v in sorted(obj.structural_state().items())}
        return {
            "__kernel__": f"{cls.__module__}.{cls.__qualname__}",
            "name": obj.name,
            "n_launches": obj.n_launches,
            "state": state,
        }
    if is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: _describe(getattr(obj, f.name)) for f in fields(obj)
            },
        }
    if isinstance(obj, Enum):
        return {"__enum__": f"{type(obj).__qualname__}.{obj.name}"}
    if isinstance(obj, (tuple, list)):
        return [_describe(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_describe(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): _describe(v) for k, v in sorted(obj.items())}
    # Layout objects, numpy scalars, ...: fall back to class-tagged repr.
    return {"__repr__": f"{type(obj).__qualname__}:{obj!r}"}


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=16)
def _device_json(device: DeviceSpec) -> str:
    """The serialized description of one device.

    Memoized by value: ``DeviceSpec`` is a frozen, hashable dataclass, so a
    spec rebuilt with a changed field is a new entry, never a stale one.
    """
    return _canonical_json(_describe(device))


def structural_key(model: KernelModel, device: DeviceSpec) -> str:
    """Content-addressed cache key for timing ``model`` on ``device``.

    The key hashes the model's full structural description together with
    every field of the device spec (not just its name: two specs that share
    a name but differ in, say, bandwidth must not share timings).
    """
    # The canonical JSON of {"device": ..., "kernel": ...}: sorted keys put
    # the device first, so its memoized text splices in byte for byte.
    payload = (
        f'{{"device":{_device_json(device)},'
        f'"kernel":{_canonical_json(_describe(model))}}}'
    )
    digest = sha256(payload.encode()).hexdigest()[:32]
    return f"{model.name}@{device.name}#{digest}"


def _kind_of(model: KernelModel) -> str:
    """Coarse kernel family for the per-kind stats breakdown.

    Kernel names follow a ``family-variant-...`` convention
    (``conv-direct-chwn``, ``pool-chwn``, ``softmax-fused``, ...).
    """
    return model.name.split("-", 1)[0] if model.name else "kernel"


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


@dataclass
class KindStats:
    """Hit/miss counters for one kernel family."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses


def _counter_property(metric: str, as_int: bool = True) -> property:
    """A SimStats attribute backed by one registry counter.

    Keeps the historical mutable-field interface (``stats.hits``,
    ``stats.merged_contexts += 1``) while the registry remains the single
    source of truth, so ``--sim-stats`` and ``--metrics`` cannot disagree.
    """

    def getter(self: "SimStats") -> int | float:
        value = self.registry.value(metric)
        return int(value) if as_int else value

    def setter(self: "SimStats", value: float) -> None:
        self.registry.counter(metric).value = float(value)

    return property(getter, setter)


class SimStats:
    """Counters for one simulation session — a thin view over a
    :class:`~repro.obs.metrics.MetricsRegistry`.

    ``misses`` is the number of kernels actually timed by the analytic
    model; ``hits`` are queries served from the structural cache (including
    entries loaded from an on-disk cache file).  Every counter reads and
    writes a ``sim.*`` metric in the backing registry, so the metrics
    exporters and the ``--sim-stats`` report always agree; the registry
    travels with the stats through pickling (worker merge-back).
    """

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    hits = _counter_property("sim.queries.hits")
    misses = _counter_property("sim.queries.misses")
    loaded_from_disk = _counter_property("sim.cache.loaded_from_disk")
    sim_wall_s = _counter_property("sim.wall_s", as_int=False)
    #: worker sessions whose caches were folded into this one, and how many
    #: of their entries were new here (see ``SimulationContext.absorb``)
    merged_contexts = _counter_property("sim.merged.contexts")
    merged_entries = _counter_property("sim.merged.entries")

    @property
    def by_kind(self) -> dict[str, KindStats]:
        """Per-kernel-family hit/miss counts (a snapshot view built from
        the ``sim.kind.*`` metrics)."""
        kinds: dict[str, KindStats] = {}
        for name in self.registry.names("sim.kind."):
            _, _, kind, field_name = name.split(".", 3)
            ks = kinds.setdefault(kind, KindStats())
            setattr(ks, field_name, int(self.registry.value(name)))
        return kinds

    @property
    def kernels_timed(self) -> int:
        return self.misses

    @property
    def queries(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    def record_hit(self, kind: str) -> None:
        self.registry.counter("sim.queries.hits").inc()
        self.registry.counter(f"sim.kind.{kind}.hits").inc()

    def record_miss(self, kind: str, wall_s: float) -> None:
        reg = self.registry
        reg.counter("sim.queries.misses").inc()
        reg.counter("sim.wall_s").inc(wall_s)
        reg.counter(f"sim.kind.{kind}.misses").inc()
        reg.histogram("sim.kernel_sim_ms").observe(wall_s * 1e3)

    def record_batch(self, kind_counts: dict[str, int], wall_s: float) -> None:
        """Record one grid evaluation: every candidate counts as a miss
        (all were timed, none served from the structural cache), but the
        wall time lands as one aggregate increment and the per-kernel
        ``sim.kernel_sim_ms`` histogram is not observed."""
        reg = self.registry
        reg.counter("sim.queries.misses").inc(sum(kind_counts.values()))
        reg.counter("sim.wall_s").inc(wall_s)
        for kind, count in kind_counts.items():
            reg.counter(f"sim.kind.{kind}.misses").inc(count)

    def merge(self, other: "SimStats") -> None:
        """Fold another session's counters into this one (for aggregation)."""
        self.registry.merge(other.registry)

    def reset(self) -> None:
        self.registry.reset("sim.")

    def summary(self) -> str:
        """Printable counter report (the CLI's ``--sim-stats`` output)."""
        lines = [
            "simulation stats:",
            f"  kernel queries : {self.queries}",
            f"  cache hits     : {self.hits} ({self.hit_rate:.1%})",
            f"  kernels timed  : {self.kernels_timed}",
            f"  sim wall time  : {self.sim_wall_s * 1e3:.1f} ms",
        ]
        if self.merged_contexts:
            lines.append(
                f"  merged workers : {self.merged_contexts} contexts, "
                f"{self.merged_entries} new entries"
            )
        if self.loaded_from_disk:
            lines.append(f"  disk entries   : {self.loaded_from_disk} loaded")
        for kind in sorted(self.by_kind):
            ks = self.by_kind[kind]
            lines.append(
                f"    {kind:10s} {ks.total:6d} queries, "
                f"{ks.hits:6d} hits, {ks.misses:6d} timed"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The session object
# ---------------------------------------------------------------------------

#: Bumped whenever ``KernelStats`` changes shape; files of any other
#: version are ignored on load.
_CACHE_FORMAT_VERSION = 2


class SimulationContext:
    """One shared simulation session: device + kernel cache + counters.

    Every consumer that threads the same context through its calls shares
    one structural timing cache, so a kernel shape is timed at most once per
    process (or once ever, with ``cache_path`` persistence).

    Parameters
    ----------
    device:
        The simulated GPU.
    check_memory:
        Default OOM-checking behaviour for :meth:`run`; individual calls
        may override it.
    tensor_bytes_resident:
        Bytes already resident on the device, counted against capacity by
        the OOM check.
    cache_path:
        Optional JSON file for cross-process cache reuse.  Loaded eagerly
        when it exists; written by :meth:`save_cache`.
    """

    def __init__(
        self,
        device: DeviceSpec,
        check_memory: bool = True,
        tensor_bytes_resident: float = 0.0,
        cache_path: str | Path | None = None,
    ) -> None:
        self.device = device
        self.check_memory = check_memory
        self.tensor_bytes_resident = tensor_bytes_resident
        #: the session's metrics; ``stats`` is the SimStats view over it
        self.metrics = MetricsRegistry()
        self.stats = SimStats(self.metrics)
        self.cache_path = Path(cache_path) if cache_path is not None else None
        self._cache: dict[str, KernelStats] = {}
        #: failed evaluations (OOM, launch validation) memoized by the
        #: sweep execution engine under the same structural keys; kept
        #: process-local — exception instances with required constructor
        #: args don't survive pickling, and re-deriving a failure is cheap
        self.exec_errors: dict[str, Exception] = {}
        if self.cache_path is not None and self.cache_path.exists():
            self.load_cache(self.cache_path)

    # -- simulation --------------------------------------------------------
    def run(
        self,
        model: KernelModel,
        check_memory: bool | None = None,
        tensor_bytes_resident: float | None = None,
    ) -> KernelStats:
        """Time one kernel model, serving structurally-equal repeats from
        the cache; raises :class:`GpuOutOfMemoryError` when enabled checks
        find the workspace plus resident tensors exceed device memory.

        Every dispatch records a ``sim.kernel`` span on the active tracer
        (when one is installed) carrying the kernel name, family, whether
        the query was served from cache, and the modelled GPU time."""
        if isinstance(model, ComposedKernel):
            tracer = active_tracer()
            if tracer is None:
                seq = self.run_sequence(
                    model.kernels,
                    name=model.name,
                    check_memory=check_memory,
                    tensor_bytes_resident=tensor_bytes_resident,
                )
                return _collapse_sequence(seq, self.device)
            with tracer.span(
                f"sim:{model.name}",
                "sim.kernel",
                kernel=model.name,
                kind=_kind_of(model),
                composed=True,
            ) as sp:
                seq = self.run_sequence(
                    model.kernels,
                    name=model.name,
                    check_memory=check_memory,
                    tensor_bytes_resident=tensor_bytes_resident,
                )
                stats = _collapse_sequence(seq, self.device)
                sp.attrs["time_ms"] = stats.time_ms
            return stats
        self._check_fit(model, check_memory, tensor_bytes_resident)
        tracer = active_tracer()
        if tracer is None:
            return self._timed(model)
        key = structural_key(model, self.device)
        with tracer.span(
            f"sim:{model.name}",
            "sim.kernel",
            kernel=model.name,
            kind=_kind_of(model),
        ) as sp:
            sp.attrs["cached"] = key in self._cache
            stats = self._timed(model, key)
            sp.attrs["time_ms"] = stats.time_ms
        return stats

    def _timed(self, model: KernelModel, key: str | None = None) -> KernelStats:
        """The cache-or-time core of :meth:`run` (tracing-agnostic)."""
        if key is None:
            key = structural_key(model, self.device)
        hit = self._cache.get(key)
        if hit is not None:
            self.stats.record_hit(_kind_of(model))
            return hit
        start = time.perf_counter()
        stats = time_model(self.device, model)
        self.stats.record_miss(_kind_of(model), time.perf_counter() - start)
        self._cache[key] = stats
        self.metrics.gauge("sim.cache.entries").set(len(self._cache))
        return stats

    def run_sequence(
        self,
        models: list[KernelModel],
        name: str = "sequence",
        check_memory: bool | None = None,
        tensor_bytes_resident: float | None = None,
    ) -> "SequenceStats":
        """Time a dependent sequence of kernels (no overlap between them:
        the paper's inter-kernel data passes through off-chip memory, so the
        next kernel cannot start early)."""
        return SequenceStats(
            name=name,
            kernels=tuple(
                self.run(m, check_memory, tensor_bytes_resident) for m in models
            ),
        )

    def _check_fit(
        self,
        model: KernelModel,
        check_memory: bool | None,
        tensor_bytes_resident: float | None,
    ) -> None:
        enabled = self.check_memory if check_memory is None else check_memory
        if not enabled:
            return
        resident = (
            self.tensor_bytes_resident
            if tensor_bytes_resident is None
            else tensor_bytes_resident
        )
        required = model.workspace_bytes() + resident
        if required > self.device.dram_bytes:
            raise GpuOutOfMemoryError(model.name, required, self.device.dram_bytes)

    # -- cache management --------------------------------------------------
    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()
        self.exec_errors.clear()

    def cache_lookup(self, key: str) -> "KernelStats | None":
        """The cached stats under a :func:`structural_key`, if any (the
        sweep execution engine consults this before evaluating a cell)."""
        return self._cache.get(key)

    def cache_store(self, key: str, stats: KernelStats) -> None:
        """Insert a timing the execution engine computed under its
        structural key.

        First write wins, mirroring :meth:`absorb`: the engine times each
        cell with the same scalar model as :meth:`run`, so an existing
        entry already holds the same value.
        """
        if key not in self._cache:
            self._cache[key] = stats
            self.metrics.gauge("sim.cache.entries").set(len(self._cache))

    def export_delta(self, since: int = 0) -> dict[str, KernelStats]:
        """Timing-cache entries added after the first ``since`` insertions.

        The warm worker pool keeps one context alive across submissions and
        must not re-ship the whole cache every time; dict insertion order is
        stable and workers never :meth:`absorb` (only the parent does), so a
        plain insertion-count watermark identifies exactly the entries the
        parent has not seen yet.
        """
        if since <= 0:
            return dict(self._cache)
        return dict(islice(self._cache.items(), since, None))

    def absorb(
        self, cache: dict[str, KernelStats], stats: SimStats | None = None
    ) -> int:
        """Fold a worker session's cache (and counters) into this one.

        Entries already present locally win — both sides computed them from
        the same structural key, so the values are identical and keeping the
        local one is merely cheaper.  Returns the number of new entries.
        """
        new = 0
        for key, value in cache.items():
            if key not in self._cache:
                self._cache[key] = value
                new += 1
        if stats is not None:
            self.stats.merge(stats)
        self.stats.merged_contexts += 1
        self.stats.merged_entries += new
        return new

    def save_cache(self, path: str | Path | None = None) -> Path:
        """Persist the timing cache as JSON for cross-process reuse."""
        target = Path(path) if path is not None else self.cache_path
        if target is None:
            raise ValueError("no cache path given and none configured")
        payload = {
            "version": _CACHE_FORMAT_VERSION,
            "entries": {k: _stats_to_dict(v) for k, v in self._cache.items()},
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, indent=1, sort_keys=True))
        return target

    def load_cache(self, path: str | Path) -> int:
        """Merge entries from a cache file; returns the number loaded.

        A cache file is an accelerator, never an input: unknown format
        versions, damaged JSON, and malformed entries are all ignored (the
        session simply re-times what it cannot load).
        """
        source = Path(path)
        try:
            # ValueError covers both undecodable bytes and damaged JSON
            payload = json.loads(source.read_text())
        except (OSError, ValueError):
            return 0
        if not isinstance(payload, dict):
            return 0
        if payload.get("version") != _CACHE_FORMAT_VERSION:
            return 0
        entries = payload.get("entries", {})
        if not isinstance(entries, dict):
            return 0
        loaded = 0
        for key, entry in entries.items():
            if key in self._cache:
                continue
            try:
                self._cache[key] = _stats_from_dict(entry)
            except (KeyError, TypeError, ValueError):
                continue
            loaded += 1
        self.stats.loaded_from_disk += loaded
        return loaded


def _stats_to_dict(stats: KernelStats) -> dict[str, Any]:
    record = {f.name: getattr(stats, f.name) for f in fields(stats)}
    record["occupancy"] = {
        f.name: getattr(stats.occupancy, f.name) for f in fields(Occupancy)
    }
    return record


def _stats_from_dict(record: dict[str, Any]) -> KernelStats:
    data = dict(record)
    data["occupancy"] = Occupancy(**data["occupancy"])
    return KernelStats(**data)


# ---------------------------------------------------------------------------
# Sequence aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceStats:
    """Aggregated stats for a sequence of kernel launches."""

    name: str
    kernels: tuple[KernelStats, ...]

    @property
    def time_ms(self) -> float:
        return sum(k.time_ms for k in self.kernels)

    @property
    def flops(self) -> float:
        return sum(k.flops for k in self.kernels)

    @property
    def dram_bytes(self) -> float:
        return sum(k.dram_bytes for k in self.kernels)

    @property
    def useful_bytes(self) -> float:
        return sum(k.useful_bytes for k in self.kernels)

    @property
    def achieved_gflops(self) -> float:
        return self.flops / (self.time_ms * 1e6) if self.time_ms else 0.0

    @property
    def achieved_bandwidth_gbs(self) -> float:
        return self.dram_bytes / (self.time_ms * 1e6) if self.time_ms else 0.0

    @property
    def effective_bandwidth_gbs(self) -> float:
        return self.useful_bytes / (self.time_ms * 1e6) if self.time_ms else 0.0


def _collapse_sequence(seq: SequenceStats, device: DeviceSpec) -> KernelStats:
    """Fold a sequence into a single KernelStats for uniform reporting."""
    first = seq.kernels[0]
    return KernelStats(
        name=seq.name,
        device=device.name,
        time_ms=seq.time_ms,
        compute_ms=sum(k.compute_ms for k in seq.kernels),
        memory_ms=sum(k.memory_ms for k in seq.kernels),
        launch_ms=sum(k.launch_ms for k in seq.kernels),
        flops=seq.flops,
        dram_bytes=seq.dram_bytes,
        useful_bytes=seq.useful_bytes,
        transactions=sum(k.transactions for k in seq.kernels),
        occupancy=first.occupancy,
        bound=max(seq.kernels, key=lambda k: k.time_ms).bound,
        alu_utilization=seq.flops
        / (seq.time_ms * 1e6 * device.peak_gflops)
        if seq.time_ms
        else 0.0,
        n_launches=sum(k.n_launches for k in seq.kernels),
    )


# ---------------------------------------------------------------------------
# Default (per-device) sessions
# ---------------------------------------------------------------------------

_DEFAULT_CONTEXTS: dict[DeviceSpec, SimulationContext] = {}


def default_context(device: DeviceSpec) -> SimulationContext:
    """The process-wide shared session for ``device``: callers that pass
    no context time kernels here, so they share one hot cache per device.
    """
    ctx = _DEFAULT_CONTEXTS.get(device)
    if ctx is None:
        ctx = SimulationContext(device, check_memory=True)
        _DEFAULT_CONTEXTS[device] = ctx
    return ctx


def reset_default_contexts() -> None:
    """Drop all shared sessions (test isolation, cache invalidation)."""
    _DEFAULT_CONTEXTS.clear()


def global_sim_stats() -> SimStats:
    """Merged counters across every default session in this process."""
    total = SimStats()
    for ctx in _DEFAULT_CONTEXTS.values():
        total.merge(ctx.stats)
    return total


# Fold every default session's registry into the process-wide metrics
# aggregate, so ``--metrics`` reports the same counters ``--sim-stats``
# prints (both read the very same Counter objects).
register_metrics_provider(
    "gpusim.default_contexts",
    lambda: [ctx.metrics for ctx in _DEFAULT_CONTEXTS.values()],
)
