"""Warp-level GPU memory-hierarchy simulator.

This package is the hardware substrate of the reproduction: device specs for
the paper's GPUs, a coalescing unit, a set-associative L2, a shared-memory
bank-conflict model, an occupancy calculator, and an analytic
``max(compute, memory)`` timing model with latency-bound and launch-overhead
terms.  Everything above it (layers, transforms, planners) expresses kernels
as :class:`KernelModel` objects and asks a :class:`SimulationContext` for
time.
"""

from .batch import (
    CandidateBatch,
    EvalSpec,
    evaluate_batch,
    evaluate_models,
    evaluate_specs,
    launch_invalid_mask,
)
from .cache import CacheStats, SetAssociativeCache
from .coalescing import (
    CoalescingReport,
    analyze_warps,
    strided_pattern,
    warp_transactions,
)
from .device import (
    TITAN_BLACK,
    TITAN_X,
    ArchProfile,
    DeviceSpec,
    get_device,
    list_devices,
    register_device,
)
from .dram import MemoryServiceTimes, memory_service_time
from .exec import (
    adaptive_chunk_size,
    evaluate_cells,
    map_chunks,
    pool_workers,
    resolve_jobs,
    shutdown_pool,
)
from .session import (
    GpuOutOfMemoryError,
    SequenceStats,
    SimStats,
    SimulationContext,
    default_context,
    global_sim_stats,
    reset_default_contexts,
    structural_key,
)
from .kernel import ComposedKernel, KernelModel, LaunchConfig, MemoryProfile
from .occupancy import (
    LaunchValidationError,
    LaunchViolation,
    Occupancy,
    check_launch,
    compute_occupancy,
    latency_hiding_factor,
)
from .reporting import (
    RooflinePoint,
    comparison_table,
    kernel_report,
    roofline_point,
)
from .sharedmem import (
    BankConflictReport,
    analyze_shared_access,
    conflict_degree,
    tile_column_access,
)
from .timing import KernelStats, time_kernel, time_model
from .trace import (
    sample_indices,
    transaction_stream,
    warps_from_threads,
)

__all__ = [
    "ArchProfile",
    "BankConflictReport",
    "CacheStats",
    "CandidateBatch",
    "EvalSpec",
    "CoalescingReport",
    "ComposedKernel",
    "DeviceSpec",
    "GpuOutOfMemoryError",
    "KernelModel",
    "KernelStats",
    "LaunchConfig",
    "LaunchValidationError",
    "LaunchViolation",
    "MemoryProfile",
    "MemoryServiceTimes",
    "Occupancy",
    "RooflinePoint",
    "SequenceStats",
    "SetAssociativeCache",
    "SimStats",
    "SimulationContext",
    "TITAN_BLACK",
    "TITAN_X",
    "analyze_shared_access",
    "adaptive_chunk_size",
    "analyze_warps",
    "check_launch",
    "comparison_table",
    "compute_occupancy",
    "conflict_degree",
    "default_context",
    "evaluate_batch",
    "evaluate_cells",
    "evaluate_models",
    "evaluate_specs",
    "get_device",
    "global_sim_stats",
    "kernel_report",
    "latency_hiding_factor",
    "launch_invalid_mask",
    "list_devices",
    "map_chunks",
    "memory_service_time",
    "pool_workers",
    "register_device",
    "resolve_jobs",
    "reset_default_contexts",
    "roofline_point",
    "sample_indices",
    "shutdown_pool",
    "structural_key",
    "strided_pattern",
    "tile_column_access",
    "time_kernel",
    "time_model",
    "transaction_stream",
    "warp_transactions",
    "warps_from_threads",
]
