"""Batched analytic kernel evaluation: struct-of-arrays over candidates.

The sweeps, the (Ct, Nt) calibration, the pooling auto-tuner, and the layout
planner's per-edge cost queries all evaluate *grids* of independent kernel
candidates, yet the scalar path walks the analytic stack (`occupancy` →
`dram.memory_service_time` → `timing`) one kernel at a time, paying Python
call overhead, structural-key hashing, and per-call bookkeeping per
candidate.  The model itself is closed form, so a whole candidate axis can
evaluate in a handful of NumPy operations instead.

This module is that batched evaluator:

* :class:`EvalSpec` — the primitive inputs of one
  :func:`~repro.gpusim.timing.time_kernel` call;
* :class:`CandidateBatch` — the struct-of-arrays candidate table
  (:meth:`CandidateBatch.from_specs`);
* :func:`evaluate_batch` — vectorized occupancy, latency hiding, DRAM
  service times, and the roofline/timing combination over the whole table;
* :func:`evaluate_models` — the consumer entry point: expands composed
  kernels and captures per-candidate OOM/validation failures as in-slot
  error values.  Nested composed kernels take :func:`_scalar_eval`, the
  one-model ``context.run`` evaluation that is also the tests' oracle.

**Bit-identity contract** (see ``docs/PERFORMANCE.md``): every arithmetic
expression below mirrors the scalar path's expression tree operation for
operation, in float64/int64, so the produced
:class:`~repro.gpusim.timing.KernelStats` are bit-identical to
:func:`~repro.gpusim.timing.time_model`'s — enforced by the golden tests in
``tests/gpusim/test_batch.py`` and the ``bench_planner_perf.py --check``
gate.  The dictionary tie-breaks of the scalar limiter selections (first
key wins on equal values) map onto ``argmin``/``argmax`` first-occurrence
semantics with rows stacked in dictionary insertion order.

Two deliberate non-goals: the batch path does not consult or populate the
session's structural timing cache (hashing each candidate would reinstate
the per-candidate overhead it removes; the computed values are identical to
cached ones anyway), and the ``dram.limiter.*`` / ``dram.bytes_total``
metrics are incremented in aggregate per batch rather than once per scalar
call, so metric *counts* can differ from a scalar run even though every
table and stats field is byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from ..obs.metrics import global_registry
from ..obs.tracer import span as obs_span
from .device import DeviceSpec
from .kernel import ComposedKernel, KernelModel, LaunchConfig, MemoryProfile
from .occupancy import Occupancy, compute_occupancy
from .timing import KernelStats

if TYPE_CHECKING:
    from .session import SimulationContext

__all__ = [
    "CandidateBatch",
    "EvalSpec",
    "evaluate_batch",
    "evaluate_models",
    "evaluate_specs",
    "launch_invalid_mask",
]

#: occupancy limiter names, in the scalar ``limits`` dict insertion order
#: (plus the warps cap applied after the argmin)
_OCC_LIMITERS = ("threads", "blocks", "registers", "shared_memory", "warps")
#: memory limiter names, in the scalar ``times`` dict insertion order
_MEM_LIMITERS = ("dram_bandwidth", "transaction_issue", "memory_latency")
#: bound labels indexed by code: memory limiters, then compute, then launch
_BOUNDS = _MEM_LIMITERS + ("compute", "launch_overhead")

#: larger than any real per-SM block limit: rows for resources a candidate
#: does not use never win the argmin, matching the scalar path's omission
#: of those dict entries
_NO_LIMIT = np.iinfo(np.int64).max


class EvalSpec(NamedTuple):
    """The primitive inputs of one scalar ``time_kernel`` call.

    A ``NamedTuple`` rather than a dataclass: one is built per candidate on
    the hot path, and tuple construction is measurably cheaper than frozen
    dataclass field assignment.
    """

    launch: LaunchConfig
    flops: float
    alu_efficiency: float
    profile: MemoryProfile
    n_launches: int = 1
    name: str = "kernel"

    @property
    def kind(self) -> str:
        """Kernel family, as :func:`repro.gpusim.session._kind_of`."""
        return self.name.split("-", 1)[0] if self.name else "kernel"


@dataclass(frozen=True)
class CandidateBatch:
    """Struct-of-arrays table of kernel candidates.

    Integer resource columns are int64, workload columns float64 — the
    types the scalar expressions see (Python ints divide to exact float64
    for every value range the model produces).
    """

    device: DeviceSpec
    specs: tuple[EvalSpec, ...]
    threads_per_block: np.ndarray
    total_blocks: np.ndarray
    regs_per_thread: np.ndarray
    smem_per_block: np.ndarray
    lane_fraction: np.ndarray
    flops: np.ndarray
    alu_efficiency: np.ndarray
    n_launches: np.ndarray
    load_transactions: np.ndarray
    store_transactions: np.ndarray
    l2_hit_rate: np.ndarray
    dependent_iterations: np.ndarray
    smem_conflict_degree: np.ndarray
    access_bytes: np.ndarray

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def from_specs(
        cls, device: DeviceSpec, specs: Sequence[EvalSpec]
    ) -> "CandidateBatch":
        """Gather the candidate axis into columnar arrays (one pass over
        the specs; each spec contributes one row tuple)."""
        specs = tuple(specs)
        if not specs:
            empty_i = np.empty(0, dtype=np.int64)
            empty_f = np.empty(0, dtype=np.float64)
            return cls(
                device, specs, empty_i, empty_i, empty_i, empty_i, empty_f,
                empty_f, empty_f, empty_i, empty_f, empty_f, empty_f,
                empty_f, empty_f, empty_i,
            )
        rows = [
            (
                lc.threads_per_block,
                lc.total_blocks,
                lc.regs_per_thread,
                lc.smem_per_block,
                lc.active_lane_fraction,
                s.flops,
                s.alu_efficiency,
                s.n_launches,
                p.load_transactions,
                p.store_transactions,
                p.l2_hit_rate,
                p.dependent_iterations,
                p.smem_conflict_degree,
                p.access_bytes,
            )
            for s in specs
            for lc, p in ((s.launch, s.profile),)
        ]
        (
            tpb, blocks, regs, smem, lane, flops, alu, launches,
            loads, stores, l2, dep, conflict, access,
        ) = zip(*rows)
        return cls(
            device=device,
            specs=specs,
            threads_per_block=np.array(tpb, dtype=np.int64),
            total_blocks=np.array(blocks, dtype=np.int64),
            regs_per_thread=np.array(regs, dtype=np.int64),
            smem_per_block=np.array(smem, dtype=np.int64),
            lane_fraction=np.array(lane, dtype=np.float64),
            flops=np.array(flops, dtype=np.float64),
            alu_efficiency=np.array(alu, dtype=np.float64),
            n_launches=np.array(launches, dtype=np.int64),
            load_transactions=np.array(loads, dtype=np.float64),
            store_transactions=np.array(stores, dtype=np.float64),
            l2_hit_rate=np.array(l2, dtype=np.float64),
            dependent_iterations=np.array(dep, dtype=np.float64),
            smem_conflict_degree=np.array(conflict, dtype=np.float64),
            access_bytes=np.array(access, dtype=np.int64),
        )


def launch_invalid_mask(device: DeviceSpec, batch: CandidateBatch) -> np.ndarray:
    """True for candidates :func:`~repro.gpusim.occupancy.check_launch`
    would reject (the scalar path raises ``LaunchValidationError``)."""
    tpb = batch.threads_per_block
    regs_per_block = batch.regs_per_thread * tpb
    return (
        (tpb > device.max_threads_per_block)
        | (tpb > device.max_threads_per_sm)
        | (batch.regs_per_thread > device.max_regs_per_thread)
        | (regs_per_block > device.regs_per_sm)
        | (batch.smem_per_block > min(device.smem_per_block_max, device.smem_per_sm))
    )


def evaluate_batch(
    device: DeviceSpec, batch: CandidateBatch
) -> list[KernelStats]:
    """Vectorized ``time_kernel`` over every candidate in ``batch``.

    Every candidate must be launchable (filter with
    :func:`launch_invalid_mask` first); the scalar path raises where this
    path would silently compute a zero-block occupancy.
    """
    n = len(batch)
    if n == 0:
        return []
    d = device

    # -- occupancy (compute_occupancy) ----------------------------------
    tpb = batch.threads_per_block
    wpb = np.ceil(tpb / d.warp_size).astype(np.int64)
    regs_per_block = batch.regs_per_thread * tpb
    limit_rows = np.stack(
        [
            d.max_threads_per_sm // tpb,
            np.full(n, d.max_blocks_per_sm, dtype=np.int64),
            np.where(
                regs_per_block > 0,
                d.regs_per_sm // np.maximum(regs_per_block, 1),
                _NO_LIMIT,
            ),
            np.where(
                batch.smem_per_block > 0,
                d.smem_per_sm // np.maximum(batch.smem_per_block, 1),
                _NO_LIMIT,
            ),
        ]
    )
    limiter_idx = limit_rows.argmin(axis=0)
    blocks_per_sm = limit_rows[limiter_idx, np.arange(n)]
    capped = blocks_per_sm * wpb > d.max_warps_per_sm
    blocks_per_sm = np.where(capped, d.max_warps_per_sm // wpb, blocks_per_sm)
    limiter_idx = np.where(capped, 4, limiter_idx)
    active_warps = blocks_per_sm * wpb
    total_threads = batch.total_blocks * tpb
    concurrent_blocks = np.maximum(1, blocks_per_sm) * d.sm_count
    waves = batch.total_blocks / concurrent_blocks

    # -- latency hiding (latency_hiding_factor) -------------------------
    sat = d.arch.bw_warp_saturation
    launched_warps_per_sm = total_threads / (d.warp_size * d.sm_count)
    resident = np.minimum(active_warps, np.maximum(1.0, launched_warps_per_sm))
    resident = resident * batch.lane_fraction
    hiding = np.minimum(1.0, resident / sat)
    hiding = np.where(blocks_per_sm == 0, 0.0, hiding)

    # -- memory service times (memory_service_time) ---------------------
    dram_bytes = (
        batch.load_transactions * (1.0 - batch.l2_hit_rate)
        + batch.store_transactions
    ) * d.transaction_bytes
    width_eff = np.where(
        batch.access_bytes >= 16,
        d.bw_eff_16b,
        np.where(batch.access_bytes >= 8, d.bw_eff_8b, d.bw_eff_4b),
    )
    bw_e9 = d.mem_bandwidth_gbs * 1e9
    sustainable_bw = bw_e9 * width_eff * np.maximum(hiding, 1e-9)
    bandwidth_s = np.where(dram_bytes != 0.0, dram_bytes / sustainable_bw, 0.0)

    issue_rate = d.sm_count * d.clock_ghz * 1e9
    total_tx = batch.load_transactions + batch.store_transactions
    lsu_s = np.where(
        total_tx != 0.0, total_tx * batch.smem_conflict_degree / issue_rate, 0.0
    )

    resident_threads = (
        np.minimum(total_threads, active_warps * d.warp_size * d.sm_count)
        * batch.lane_fraction
    )
    outstanding = np.maximum(1.0, resident_threads * d.arch.mlp_per_thread)
    latency_sec = d.mem_latency_cycles / (d.clock_ghz * 1e9)
    serial_rounds = np.maximum(
        1.0, batch.dependent_iterations / d.arch.mlp_per_thread
    )
    latency_s = np.maximum(
        total_tx * latency_sec / outstanding,
        np.where(total_tx != 0.0, serial_rounds * latency_sec, 0.0),
    )

    mem_total_s = np.maximum(np.maximum(bandwidth_s, lsu_s), latency_s)
    mem_limiter_idx = np.stack([bandwidth_s, lsu_s, latency_s]).argmax(axis=0)

    # -- compute pipeline (compute_pipeline_time) ------------------------
    eff = np.maximum(1e-6, np.minimum(1.0, batch.alu_efficiency))
    warp_factor = np.where(
        blocks_per_sm != 0, np.minimum(1.0, active_warps / 8.0), 0.0
    )
    grid_factor = np.minimum(1.0, total_threads / (d.sm_count * d.warp_size))
    derate = np.maximum(
        1e-6, eff * np.maximum(warp_factor, 1e-6) * np.maximum(grid_factor, 1e-6)
    )
    peak_e9 = d.peak_gflops * 1e9
    compute_s = np.where(
        batch.flops <= 0, 0.0, batch.flops / (peak_e9 * derate)
    )

    # -- roofline combination (time_kernel) ------------------------------
    launch_s = batch.n_launches * d.launch_overhead_us * 1e-6
    body_s = np.maximum(compute_s, mem_total_s)
    total_s = body_s + launch_s
    bound_idx = np.where(compute_s >= mem_total_s, 3, mem_limiter_idx)
    bound_idx = np.where(launch_s > body_s, 4, bound_idx)
    with np.errstate(divide="ignore", invalid="ignore"):
        alu_util = np.where(
            total_s > 0, batch.flops / (total_s * peak_e9), 0.0
        )

    # -- side effects the scalar dram path performs per call -------------
    registry = global_registry()
    limiter_counts = np.bincount(mem_limiter_idx, minlength=3)
    for idx, limiter_name in enumerate(_MEM_LIMITERS):
        if limiter_counts[idx]:
            registry.counter(f"dram.limiter.{limiter_name}").inc(
                int(limiter_counts[idx])
            )
    registry.counter("dram.bytes_total").inc(float(dram_bytes.sum()))

    # -- materialize (Python scalars: KernelStats must stay JSON-safe) ---
    # ``lane_fraction`` and ``total_tx`` round-trip through the batch
    # columns bit-exactly: the column holds the same float64 the scalar
    # path reads from the launch config / sums from the profile.
    rows = zip(
        batch.specs,
        blocks_per_sm.tolist(),
        wpb.tolist(),
        active_warps.tolist(),
        limiter_idx.tolist(),
        total_threads.tolist(),
        waves.tolist(),
        batch.lane_fraction.tolist(),
        (total_s * 1e3).tolist(),
        (compute_s * 1e3).tolist(),
        (mem_total_s * 1e3).tolist(),
        (launch_s * 1e3).tolist(),
        dram_bytes.tolist(),
        total_tx.tolist(),
        bound_idx.tolist(),
        alu_util.tolist(),
    )
    out: list[KernelStats] = []
    append = out.append
    max_warps = d.max_warps_per_sm
    device_name = d.name
    for (
        spec, blocks_i, wpb_i, warps_i, limiter_i, threads_i, waves_i,
        lane_i, time_i, compute_i, memory_i, launch_i, dram_i, tx_i,
        bound_i, util_i,
    ) in rows:
        profile = spec.profile
        append(
            KernelStats(
                spec.name,
                device_name,
                time_i,
                compute_i,
                memory_i,
                launch_i,
                spec.flops,
                dram_i,
                profile.useful_bytes,
                tx_i,
                Occupancy(
                    blocks_i,
                    wpb_i,
                    warps_i,
                    max_warps,
                    _OCC_LIMITERS[limiter_i],
                    threads_i,
                    waves_i,
                    lane_i,
                ),
                _BOUNDS[bound_i],
                util_i,
                spec.n_launches,
            )
        )
    return out


def evaluate_specs(
    device: DeviceSpec, specs: Sequence[EvalSpec]
) -> list[KernelStats]:
    """Batch-evaluate raw specs; raises ``LaunchValidationError`` (via the
    scalar checker, for its exact message) on the first invalid launch."""
    batch = CandidateBatch.from_specs(device, specs)
    invalid = launch_invalid_mask(device, batch)
    if invalid.any():
        first = int(np.flatnonzero(invalid)[0])
        compute_occupancy(device, batch.specs[first].launch)  # raises
    return evaluate_batch(device, batch)


def _scalar_eval(
    context: "SimulationContext",
    model: KernelModel,
    check_memory: bool | None,
) -> "KernelStats | Exception":
    """One scalar reference evaluation with in-slot error capture.

    Captures the per-candidate failure modes grid consumers tolerate (OOM,
    launch validation, other model ``ValueError``); anything else is a bug
    and propagates.
    """
    from .session import GpuOutOfMemoryError

    try:
        return context.run(model, check_memory=check_memory)
    except (GpuOutOfMemoryError, ValueError) as exc:
        return exc


def evaluate_models(
    context: "SimulationContext",
    models: Sequence[KernelModel],
    check_memory: bool | None = None,
) -> "list[KernelStats | Exception]":
    """Evaluate many kernel models against ``context``'s device at once.

    The consumer entry point: returns one slot per model, either its
    :class:`KernelStats` or the exception the scalar ``context.run`` would
    have raised for it (``GpuOutOfMemoryError`` or a ``ValueError`` such as
    ``LaunchValidationError``), so grid consumers keep their per-candidate
    error handling.  Composed kernels expand one level into the flat
    candidate table and collapse through the same ``SequenceStats`` fold as
    the scalar path, so every slot is bit-identical to what
    :func:`_scalar_eval` returns for that model.
    """
    from .session import SequenceStats, _collapse_sequence

    models = list(models)
    if not models:
        return []

    device = context.device
    results: "list[KernelStats | Exception | None]" = [None] * len(models)
    fallbacks: dict[str, int] = {}

    with obs_span("batch:eval", "batch.eval", models=len(models)) as sp:
        started = time.perf_counter()
        fit_enabled = context.check_memory if check_memory is None else check_memory

        # Expand each model into flat per-launch specs, capturing per-model
        # failures (fit check first, matching the scalar order: a composed
        # kernel's first failing sub-kernel is the error the caller sees).
        flat: list[EvalSpec] = []
        groups: list[tuple[int, int, int]] = []  # (model idx, start, count)
        spec_append = flat.append
        for i, model in enumerate(models):
            if isinstance(model, ComposedKernel):
                subs = model.kernels
                if any(isinstance(k, ComposedKernel) for k in subs):
                    results[i] = _scalar_eval(context, model, check_memory)
                    fallbacks["nested_composed"] = (
                        fallbacks.get("nested_composed", 0) + 1
                    )
                    continue
            else:
                subs = (model,)
            start = len(flat)
            try:
                for sub in subs:
                    if fit_enabled:
                        context._check_fit(sub, check_memory, None)
                    spec_append(
                        EvalSpec(
                            sub.launch_config(device),
                            sub.flop_count(),
                            sub.alu_efficiency(device),
                            sub.memory_profile(device),
                            sub.n_launches,
                            sub.name,
                        )
                    )
            except Exception as exc:  # noqa: BLE001 — re-raised unless tolerated
                from .session import GpuOutOfMemoryError

                if not isinstance(exc, (GpuOutOfMemoryError, ValueError)):
                    raise
                del flat[start:]
                results[i] = exc
                key = (
                    "oom" if isinstance(exc, GpuOutOfMemoryError) else "spec_error"
                )
                fallbacks[key] = fallbacks.get(key, 0) + 1
                continue
            groups.append((i, start, len(flat) - start))

        # Weed out unlaunchable candidates: their owning model gets the
        # exact scalar LaunchValidationError, the rest re-batch without
        # them.  The common all-valid case reuses the batch as built.
        batch = CandidateBatch.from_specs(device, flat)
        if flat:
            invalid = launch_invalid_mask(device, batch)
            if invalid.any():
                valid_groups: list[tuple[int, int, int]] = []
                valid_flat: list[EvalSpec] = []
                for i, start, count in groups:
                    bad = [
                        j for j in range(start, start + count) if invalid[j]
                    ]
                    if bad:
                        try:
                            compute_occupancy(device, flat[bad[0]].launch)
                        except ValueError as exc:
                            results[i] = exc
                        fallbacks["invalid_launch"] = (
                            fallbacks.get("invalid_launch", 0) + 1
                        )
                        continue
                    valid_groups.append((i, len(valid_flat), count))
                    valid_flat.extend(flat[start : start + count])
                groups, flat = valid_groups, valid_flat
                batch = CandidateBatch.from_specs(device, flat)

        stats_list = evaluate_batch(device, batch)
        for i, start, count in groups:
            model = models[i]
            if isinstance(model, ComposedKernel):
                seq = SequenceStats(
                    name=model.name,
                    kernels=tuple(stats_list[start : start + count]),
                )
                results[i] = _collapse_sequence(seq, device)
            else:
                results[i] = stats_list[start]

        # Session counters: every flat spec was timed (no cache), recorded
        # in aggregate (per-kernel sim-time histograms don't observe
        # batched evaluations — the per-candidate wall time is the very
        # overhead this path removes).
        kind_counts: dict[str, int] = {}
        for spec in flat:
            name = spec.name
            kind = name.split("-", 1)[0] if name else "kernel"
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
        context.stats.record_batch(kind_counts, wall_s=time.perf_counter() - started)

        registry = global_registry()
        registry.counter("batch.eval.batches").inc()
        registry.counter("batch.eval.candidates").inc(len(flat))
        registry.histogram("batch.eval.size").observe(len(flat))
        for key, count in fallbacks.items():
            registry.counter(f"batch.eval.fallback.{key}").inc(count)
        if sp is not None:
            sp.attrs["candidates"] = len(flat)
            sp.attrs["fallbacks"] = sum(fallbacks.values())

    return results  # type: ignore[return-value]
