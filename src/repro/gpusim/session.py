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
* :class:`SimulationContext` — the session object owning the cache and
  the stats, with optional JSON persistence for cross-process reuse by
  benchmarks; its :meth:`~SimulationContext.run` is the one memoized
  evaluation, and every grid (sweeps, calibration, autotuning, transform
  pricing) is a loop of it;
* :func:`check_fit` — the paper's per-kernel OOM rule, asked separately
  by the callers that model the card's memory limit (``run`` only times);
* :func:`default_context` — a per-device shared session, so callers that
  pass no context still share one hot cache.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import lru_cache, partial
from hashlib import sha256
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

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


def check_fit(device: DeviceSpec, model: KernelModel) -> None:
    """Raise the OOM of the first stage, in sequence order, whose
    workspace exceeds the device's DRAM (the paper's execution failures)."""
    for stage in _stages(model):
        required = stage.workspace_bytes()
        if required > device.dram_bytes:
            raise GpuOutOfMemoryError(stage.name, required, device.dram_bytes)


# ---------------------------------------------------------------------------
# Structural cache keys
# ---------------------------------------------------------------------------


def _key_text(obj: Any) -> str:
    """The canonical JSON text of ``obj``'s structural description.

    Kernel models are described by their class, name and launch count plus
    :meth:`structural_state` (instance attributes minus derived ones);
    dataclasses (specs, layouts, devices) by their fields; floats by their full
    precision ``repr``; anything else by a class-tagged ``repr``.  The
    description determines the timing result, so equal descriptions may
    share one cache entry.  The text is what ``json.dumps(...,
    sort_keys=True, separators=(",", ":"))`` makes of that description,
    written directly; which description a value gets depends only on its
    class, so each class's writer is chosen once.
    """
    cls = type(obj)
    write = _KEY_WRITERS.get(cls)
    if write is None:
        write = _KEY_WRITERS[cls] = _key_writer(cls)
    return write(obj)


_KEY_WRITERS: dict[type, Callable[[Any], str]] = {}
_json_str = json.encoder.encode_basestring_ascii
_json_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _raw_text(value: Any) -> str:
    """JSON for a value written as-is, not described (a kernel's name and
    launch count); plain ints and strings skip the encoder's per-call
    set-up."""
    if type(value) is int:
        return int.__repr__(value)
    return _json_str(value) if type(value) is str else _json_encode(value)


def _key_writer(cls: type) -> Callable[[Any], str]:
    """The text writer for instances of ``cls``.

    The branches are tried in a fixed order: ``IntEnum`` members are ints,
    NumPy float scalars are floats, and a ``ComposedKernel`` is a kernel
    before it is a dataclass.
    """
    if cls is type(None):
        return lambda obj: "null"
    if issubclass(cls, bool):
        return lambda obj: "true" if obj else "false"
    if issubclass(cls, int):
        return int.__repr__
    if issubclass(cls, str):
        return _json_str
    if issubclass(cls, float):
        return lambda obj: _json_str(repr(obj))
    if issubclass(cls, KernelModel):
        head = '{"__kernel__":%s,"n_launches":' % _json_str(
            f"{cls.__module__}.{cls.__qualname__}"
        )
        return lambda obj: (
            f"{head}{_raw_text(obj.n_launches)},"
            f'"name":{_raw_text(obj.name)},'
            f'"state":{_mapping_text(obj.structural_state())}}}'
        )
    if is_dataclass(cls) and not issubclass(cls, type):
        head = '{"__dataclass__":%s,"fields":{' % _json_str(
            f"{cls.__module__}.{cls.__qualname__}"
        )
        labels = [(f"{_json_str(n)}:", n) for n in sorted(f.name for f in fields(cls))]

        def write(obj: Any) -> str:
            return (
                head
                + ",".join([label + _key_text(getattr(obj, n)) for label, n in labels])
                + "}}"
            )

        if cls.__dataclass_params__.frozen and cls.__hash__ is not None:
            return partial(_memoized_text, write)
        return write
    if issubclass(cls, Enum):
        return lambda obj: '{"__enum__":%s}' % _json_str(
            f"{cls.__qualname__}.{obj.name}"
        )
    if issubclass(cls, (tuple, list)):
        return lambda obj: "[" + ",".join([_key_text(v) for v in obj]) + "]"
    if issubclass(cls, (set, frozenset)):
        # Members sort by their description, the JSON value of their text.
        return lambda obj: (
            "[" + ",".join(sorted([_key_text(v) for v in obj], key=json.loads)) + "]"
        )
    if issubclass(cls, dict):
        return _mapping_text
    # Layout objects, numpy arrays, ...: a class-tagged repr.
    return lambda obj: '{"__repr__":%s}' % _json_str(f"{cls.__qualname__}:{obj!r}")


def _mapping_text(mapping: dict[Any, Any]) -> str:
    """A mapping keyed by ``str(key)``, in key-text order; of two keys with
    one text, the later in key order wins."""
    items = sorted(mapping.items())
    for key, _ in items:
        if type(key) is not str:
            items = sorted({str(k): v for k, v in items}.items())
            break
    return "{" + ",".join([f"{_json_str(k)}:{_key_text(v)}" for k, v in items]) + "}"


#: the text of frozen dataclass values (devices, specs, layouts) seen
#: lately, by value; cleared whole when it reaches ``_TEXT_MEMO_SIZE``
_TEXT_MEMO: dict[Any, str] = {}
_TEXT_MEMO_SIZE = 512


def _memoized_text(write: Callable[[Any], str], obj: Any) -> str:
    """``write(obj)``, shared by every equal value of ``obj``'s class.

    A frozen dataclass never changes, so a value rebuilt with a changed
    field is a new entry, never a stale one.  Sharing is exact because
    equal values write equal text: the specs refuse an integer field that
    is not an ``int`` (``2 == 2.0 == True`` but their texts differ).
    The text never depends on the memo's hash order.
    """
    try:
        text = _TEXT_MEMO.get(obj)
    except TypeError:  # a field holds an unhashable value
        return write(obj)
    if text is None:
        if len(_TEXT_MEMO) >= _TEXT_MEMO_SIZE:
            _TEXT_MEMO.clear()
        text = _TEXT_MEMO[obj] = write(obj)
    return text


#: the device keyed last (a frozen value, so compared by identity) and the
#: sha256 state after the payload's text up to the kernel's description
_payload_head: tuple[DeviceSpec | None, Any] = (None, None)


def structural_key(model: KernelModel, device: DeviceSpec) -> str:
    """Content-addressed cache key for timing ``model`` on ``device``.

    The key hashes the model's full structural description together with
    every field of the device spec (not just its name: two specs that share
    a name but differ in, say, bandwidth must not share timings).
    """
    # The canonical JSON of {"device": ..., "kernel": ...}: sorted keys put
    # the device first, so the hash of the payload up to the kernel's text
    # is taken once per device and copied.
    global _payload_head
    last, head = _payload_head
    if last is not device:
        head = sha256(f'{{"device":{_key_text(device)},"kernel":'.encode())
        _payload_head = (device, head)
    digest = head.copy()
    digest.update(f"{_key_text(model)}}}".encode())
    return f"{model.name}@{device.name}#{digest.hexdigest()[:32]}"


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
    ``stats.stale_rejected += 1``) while the registry remains the single
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
    exporters and the ``--sim-stats`` report always agree.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    hits = _counter_property("sim.queries.hits")
    misses = _counter_property("sim.queries.misses")
    loaded_from_disk = _counter_property("sim.cache.loaded_from_disk")
    #: cache files refused because another model (or none) stamped them
    stale_rejected = _counter_property("sim.cache.stale_rejected")
    sim_wall_s = _counter_property("sim.wall_s", as_int=False)

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

    # perfbench's traced runs wrap this name; nothing in the program calls it.
    def record_batch(self, kind_counts: dict[str, int], wall_s: float) -> None:
        """No-op: every query records itself through :meth:`record_hit`
        or :meth:`record_miss`."""

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

#: Bumped whenever the file layout changes; files of any other version are
#: ignored on load.  Version 3 stores each entry as one positional row in
#: ``KernelStats`` field order, with the ``Occupancy`` as a nested row.
_CACHE_FORMAT_VERSION = 3

#: the packages whose sources determine a timing: the model, the kernels
#: and the tensors they describe
_MODEL_PACKAGES = ("gpusim", "layers", "tensors", "extensions")


@lru_cache(maxsize=1)
def _model_fingerprint() -> str | None:
    """A sha256 over the model's sources, or None when one is unreadable.

    Cache files are stamped with it, so an edit to the timing model or a
    kernel makes every older file load nothing instead of serving stale
    timings.  Computed at the first save or load, once per process.
    """
    root = Path(__file__).resolve().parent.parent
    digest = sha256()
    try:
        for package in _MODEL_PACKAGES:
            for source in sorted((root / package).rglob("*.py")):
                data = source.read_bytes()
                name = source.relative_to(root).as_posix()
                digest.update(f"{name}\n{len(data)}\n".encode())
                digest.update(data)
    except OSError:
        return None
    return digest.hexdigest()


#: the JSON value each field's type is stored as: a number, a string, or
#: (for the occupancy) a nested row; a ``bool`` is none of these
_JSON_SHAPES = {"int": "number", "float": "number", "str": "str", "Occupancy": "row"}
_JSON_SHAPE_OF = {int: "number", float: "number", str: "str", list: "row"}
_STATS_SHAPE = tuple(_JSON_SHAPES[str(f.type)] for f in fields(KernelStats))
_OCCUPANCY_SHAPE = tuple(_JSON_SHAPES[str(f.type)] for f in fields(Occupancy))
_OCCUPANCY_AT = _STATS_SHAPE.index("row")
_stats_row = attrgetter(*(f.name for f in fields(KernelStats)))
_occupancy_row = attrgetter(*(f.name for f in fields(Occupancy)))


def _detached(error: ValueError) -> ValueError:
    """A copy of ``error`` with its type, args and attributes but no
    traceback, cause or context: holding it keeps no frame alive."""
    copy = type(error).__new__(type(error), *error.args)
    copy.__dict__.update(error.__dict__)
    return copy


def _shape(row: Any) -> tuple[str | None, ...] | None:
    """The JSON shape of a loaded row (None when it is not a list)."""
    if type(row) is not list:
        return None
    return tuple(map(_JSON_SHAPE_OF.get, map(type, row)))


class SimulationContext:
    """One shared simulation session: device + kernel cache + counters.

    Every consumer that threads the same context through its calls shares
    one structural timing cache, so a kernel shape is timed at most once per
    process (or once ever, with ``cache_path`` persistence).

    Parameters
    ----------
    device:
        The simulated GPU.
    cache_path:
        Optional JSON file for cross-process cache reuse.  Loaded eagerly
        when it exists; written by :meth:`save_cache`.
    """

    def __init__(
        self, device: DeviceSpec, cache_path: str | Path | None = None
    ) -> None:
        self.device = device
        #: the session's metrics; ``stats`` is the SimStats view over it
        self.metrics = MetricsRegistry()
        self.stats = SimStats(self.metrics)
        self.cache_path = Path(cache_path) if cache_path is not None else None
        self._cache: dict[str, KernelStats] = {}
        #: launch and spec errors memoized under their structural keys;
        #: never saved with the timing cache
        self._errors: dict[str, ValueError] = {}
        if self.cache_path is not None and self.cache_path.exists():
            self.load_cache(self.cache_path)

    # -- simulation --------------------------------------------------------
    def run(self, model: KernelModel) -> KernelStats:
        """Time one kernel model, serving structurally-equal repeats from
        the cache.  Whether the kernel fits the card is not asked here:
        callers that model the memory limit call :func:`check_fit` first.

        The memo unit is the model passed in: a composed kernel is one
        entry under its own key, each of its stages timed uncached and the
        results folded.  A launch or spec ``ValueError`` is memoized under
        the key as well, for this context only: it is never saved with the
        timing cache.

        Every query records a ``sim.kernel`` span on the active tracer
        (when one is installed) carrying the kernel name, family, whether
        the query was served from cache, and the modelled GPU time."""
        key = structural_key(model, self.device)
        tracer = active_tracer()
        if tracer is None:
            return self._timed(model, key)
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

    def _timed(self, model: KernelModel, key: str) -> KernelStats:
        """The memo core of :meth:`run` (tracing-agnostic)."""
        hit = self._cache.get(key)
        if hit is not None:
            self.stats.record_hit(_kind_of(model))
            return hit
        error = self._errors.get(key)
        if error is not None:
            # a fresh copy per raise, so the stored error never gains a
            # traceback (whose frames would hold this context)
            raise _detached(error)
        start = time.perf_counter()
        try:
            stats = _time_stages(self.device, model)
        except ValueError as exc:
            self._errors[key] = _detached(exc)
            raise
        self.stats.record_miss(_kind_of(model), time.perf_counter() - start)
        self._cache[key] = stats
        self.metrics.gauge("sim.cache.entries").set(len(self._cache))
        return stats

    # -- cache management --------------------------------------------------
    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()
        self._errors.clear()

    def save_cache(self, path: str | Path | None = None) -> Path:
        """Persist the timing cache as JSON for cross-process reuse."""
        target = Path(path) if path is not None else self.cache_path
        if target is None:
            raise ValueError("no cache path given and none configured")
        entries = {}
        for key, stats in self._cache.items():
            row = list(_stats_row(stats))
            row[_OCCUPANCY_AT] = _occupancy_row(stats.occupancy)
            entries[key] = row
        payload = {
            "version": _CACHE_FORMAT_VERSION,
            "model": _model_fingerprint(),
            "entries": entries,
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return target

    def load_cache(self, path: str | Path) -> int:
        """Merge entries from a cache file; returns the number loaded.

        A cache file is an accelerator, never an input: unknown format
        versions, damaged JSON, and malformed rows are all ignored (the
        session simply re-times what it cannot load).  A file stamped by
        another model, or by none, loads nothing and counts in
        ``sim.cache.stale_rejected``.
        """
        source = Path(path)
        try:
            # ValueError covers both undecodable bytes and damaged JSON
            payload = json.loads(source.read_text())
        except (OSError, ValueError):
            return 0
        if not isinstance(payload, dict):
            return 0
        fingerprint = _model_fingerprint()
        if fingerprint is None or payload.get("model") != fingerprint:
            self.stats.stale_rejected += 1
            return 0
        if payload.get("version") != _CACHE_FORMAT_VERSION:
            return 0
        entries = payload.get("entries", {})
        if not isinstance(entries, dict):
            return 0
        loaded = 0
        at = _OCCUPANCY_AT
        for key, row in entries.items():
            if key in self._cache or _shape(row) != _STATS_SHAPE:
                continue
            occupancy = row[at]
            if _shape(occupancy) != _OCCUPANCY_SHAPE:
                continue
            self._cache[key] = KernelStats(
                *row[:at], Occupancy(*occupancy), *row[at + 1 :]
            )
            loaded += 1
        self.stats.loaded_from_disk += loaded
        return loaded


# ---------------------------------------------------------------------------
# Composed kernels: one timing per stage
# ---------------------------------------------------------------------------


def _stages(model: KernelModel) -> list[KernelModel]:
    """The leaf launches of ``model``: a composed kernel's stages, else itself."""
    return model.kernels if isinstance(model, ComposedKernel) else [model]


def _time_stages(device: DeviceSpec, model: KernelModel) -> KernelStats:
    """``time_model`` of a leaf; a composed kernel's stages timed in order
    and folded into one result."""
    if isinstance(model, ComposedKernel):
        stages = tuple(time_model(device, stage) for stage in model.kernels)
        return _collapse_sequence(model.name, stages, device)
    return time_model(device, model)


def _collapse_sequence(
    name: str, stages: tuple[KernelStats, ...], device: DeviceSpec
) -> KernelStats:
    """Fold back-to-back launches into one KernelStats (no overlap between
    them: each stage's output passes through off-chip memory).  Occupancy
    and bound are the dominant stage's: the one with the largest time."""
    time_ms = sum(k.time_ms for k in stages)
    flops = sum(k.flops for k in stages)
    dominant = max(stages, key=lambda k: k.time_ms)
    return KernelStats(
        name=name,
        device=device.name,
        time_ms=time_ms,
        compute_ms=sum(k.compute_ms for k in stages),
        memory_ms=sum(k.memory_ms for k in stages),
        launch_ms=sum(k.launch_ms for k in stages),
        flops=flops,
        dram_bytes=sum(k.dram_bytes for k in stages),
        useful_bytes=sum(k.useful_bytes for k in stages),
        transactions=sum(k.transactions for k in stages),
        occupancy=dominant.occupancy,
        bound=dominant.bound,
        alu_utilization=flops / (time_ms * 1e6 * device.peak_gflops)
        if time_ms
        else 0.0,
        n_launches=sum(k.n_launches for k in stages),
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
        ctx = SimulationContext(device)
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
