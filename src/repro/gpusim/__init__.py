"""Warp-level GPU memory-hierarchy simulator.

This package is the hardware substrate of the reproduction: device specs for
the paper's GPUs, a coalescing unit, a set-associative L2, a shared-memory
bank-conflict model, an occupancy calculator, and an analytic
``max(compute, memory)`` timing model with latency-bound and launch-overhead
terms.  Everything above it (layers, transforms, planners) expresses kernels
as :class:`KernelModel` objects and asks a :class:`SimulationContext` for
time.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "cache": ("CacheStats", "SetAssociativeCache"),
    "coalescing": (
        "CoalescingReport",
        "analyze_warps",
        "strided_pattern",
        "warp_transactions",
    ),
    "device": (
        "TITAN_BLACK",
        "TITAN_X",
        "ArchProfile",
        "DeviceSpec",
        "get_device",
        "list_devices",
        "register_device",
    ),
    "dram": ("MemoryServiceTimes", "memory_service_time"),
    "exec": ("evaluate_cells", "map_chunks", "shutdown_pool"),
    "session": (
        "GpuOutOfMemoryError",
        "SimStats",
        "SimulationContext",
        "check_fit",
        "default_context",
        "global_sim_stats",
        "reset_default_contexts",
        "structural_key",
    ),
    "kernel": ("ComposedKernel", "KernelModel", "LaunchConfig", "MemoryProfile"),
    "occupancy": (
        "LaunchValidationError",
        "LaunchViolation",
        "Occupancy",
        "check_launch",
        "compute_occupancy",
        "latency_hiding_factor",
    ),
    "reporting": (
        "RooflinePoint",
        "comparison_table",
        "kernel_report",
        "roofline_point",
    ),
    "sharedmem": (
        "conflict_degree",
        "tile_column_access",
    ),
    "timing": ("KernelStats", "time_kernel", "time_model"),
    "trace": ("sample_indices", "transaction_stream", "warps_from_threads"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
