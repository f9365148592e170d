"""Kernel abstractions for the GPU performance model.

A :class:`KernelModel` describes one GPU kernel launch the way the paper
reasons about kernels: a launch configuration (grid/block/registers/shared
memory), an arithmetic workload (FLOPs and an ALU-efficiency estimate), and a
memory workload (:class:`MemoryProfile`: useful bytes, transactions after
coalescing, L2 hit rate, and the sequential-dependence structure that drives
latency-bound behaviour).

Concrete kernels (direct convolution, im2col+GEMM, pooling in each layout,
the softmax variants, the layout-transform kernels) live next to their layer
in ``repro.layers`` / ``repro.tensors``; this module only defines the shared
vocabulary consumed by :mod:`repro.gpusim.session`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from math import prod
from typing import NoReturn

from .device import DeviceSpec

GridDim = tuple[int, int, int]


def _as_dim3(value: int | tuple[int, ...]) -> GridDim:
    if isinstance(value, int):
        value = (value,)
    dims = tuple(int(v) for v in value) + (1, 1, 1)
    if any(v <= 0 for v in dims[:3]):
        raise ValueError(f"grid/block dims must be positive, got {value!r}")
    return dims[:3]


@dataclass(frozen=True)
class LaunchConfig:
    """CUDA-style launch configuration."""

    grid: GridDim
    block: GridDim
    regs_per_thread: int = 32
    smem_per_block: int = 0
    #: fraction of warp lanes doing useful work (tiny blocks and padded
    #: rows leave lanes predicated off, wasting issued bandwidth)
    active_lane_fraction: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _as_dim3(self.grid))
        object.__setattr__(self, "block", _as_dim3(self.block))
        if self.regs_per_thread < 0 or self.smem_per_block < 0:
            raise ValueError("resource usage cannot be negative")
        if not 0.0 < self.active_lane_fraction <= 1.0:
            raise ValueError("active_lane_fraction must be in (0, 1]")

    @property
    def threads_per_block(self) -> int:
        return prod(self.block)

    @property
    def total_blocks(self) -> int:
        return prod(self.grid)

    @property
    def total_threads(self) -> int:
        return self.total_blocks * self.threads_per_block


@dataclass(frozen=True)
class MemoryProfile:
    """Post-coalescing memory workload of one kernel launch.

    Attributes
    ----------
    load_bytes / store_bytes:
        Useful bytes requested by threads (the algorithmic footprint).
    load_transactions / store_transactions:
        32-byte memory transactions after warp coalescing.
    l2_hit_rate:
        Fraction of load transactions served from L2 (stores are modelled
        as write-through to DRAM, matching Kepler global stores).
    dependent_iterations:
        Length of the longest *sequential* chain of memory rounds a single
        thread must perform (loop-carried dependences, e.g. the softmax
        reductions).  Feeds the latency-bound term together with occupancy.
    smem_conflict_degree:
        Average shared-memory replay factor (1.0 = conflict-free); produced
        by :mod:`repro.gpusim.sharedmem` for tiled kernels.
    access_bytes:
        Dominant per-thread access width (4 = float, 8 = float2); selects
        the device's empirical bandwidth derate for that width.
    """

    load_bytes: float
    store_bytes: float
    load_transactions: float
    store_transactions: float
    l2_hit_rate: float = 0.0
    dependent_iterations: float = 1.0
    smem_conflict_degree: float = 1.0
    access_bytes: int = 4

    def __post_init__(self) -> None:
        if min(self.load_bytes, self.store_bytes) < 0:
            raise ValueError("byte counts cannot be negative")
        if min(self.load_transactions, self.store_transactions) < 0:
            raise ValueError("transaction counts cannot be negative")
        if not 0.0 <= self.l2_hit_rate <= 1.0:
            raise ValueError(f"l2_hit_rate must be in [0, 1], got {self.l2_hit_rate}")
        if self.smem_conflict_degree < 1.0:
            raise ValueError("conflict degree cannot be below 1.0")

    @property
    def useful_bytes(self) -> float:
        return self.load_bytes + self.store_bytes

    @property
    def total_transactions(self) -> float:
        return self.load_transactions + self.store_transactions

    def dram_bytes(self, transaction_bytes: int = 32) -> float:
        """Bytes that actually cross the DRAM bus."""
        dram_loads = self.load_transactions * (1.0 - self.l2_hit_rate)
        return (dram_loads + self.store_transactions) * transaction_bytes

    def scaled(self, factor: float) -> "MemoryProfile":
        """Scale all traffic counters (used when extrapolating sampled warps)."""
        return MemoryProfile(
            load_bytes=self.load_bytes * factor,
            store_bytes=self.store_bytes * factor,
            load_transactions=self.load_transactions * factor,
            store_transactions=self.store_transactions * factor,
            l2_hit_rate=self.l2_hit_rate,
            dependent_iterations=self.dependent_iterations,
            smem_conflict_degree=self.smem_conflict_degree,
            access_bytes=self.access_bytes,
        )

    @staticmethod
    def coalesced(load_bytes: float, store_bytes: float, **kwargs: float) -> "MemoryProfile":
        """Profile for a perfectly coalesced kernel (4 bytes/lane, 32B segments)."""
        return MemoryProfile(
            load_bytes=load_bytes,
            store_bytes=store_bytes,
            load_transactions=load_bytes / 32.0,
            store_transactions=store_bytes / 32.0,
            **kwargs,
        )


class KernelModel(ABC):
    """One modelled GPU kernel.

    Subclasses describe *what the kernel does to the memory system*; the
    engine turns that into time.  ``n_launches`` > 1 models a leaf that
    folds several passes into one description (FFT's transform/product/
    inverse passes, Winograd's transforms), each paying a launch overhead;
    a :class:`ComposedKernel` counts the launches of its stages.
    """

    #: human-readable kernel name used in reports
    name: str = "kernel"
    #: number of back-to-back kernel launches this model represents
    n_launches: int = 1
    #: instance attributes that are not structure, excluded from
    #: :meth:`structural_state`: anything computed from the rest of the
    #: state (a memo cache, so a used kernel hashes the same as a freshly
    #: built one; a geometry or a list of stages its constructor derives),
    #: and the ``name`` and ``n_launches`` the key's header already writes.
    #: Subclasses extend it with ``KernelModel.structural_exclude | {...}``.
    structural_exclude: frozenset[str] = frozenset({"name", "n_launches"})

    @abstractmethod
    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        """Launch geometry on the given device."""

    @abstractmethod
    def flop_count(self) -> float:
        """Total floating-point operations performed."""

    @abstractmethod
    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        """Post-coalescing memory workload on the given device."""

    def alu_efficiency(self, device: DeviceSpec) -> float:
        """Fraction of peak FLOPS the arithmetic pipeline can sustain."""
        return 0.7

    def workspace_bytes(self) -> float:
        """Extra device memory required beyond inputs/outputs (OOM checks)."""
        return 0.0

    def structural_state(self) -> dict[str, object]:
        """The instance state that determines this kernel's timing.

        Together with the class identity and the device spec this is the
        basis of the structural cache key in :mod:`repro.gpusim.session`:
        two models of the same class with equal structural state produce
        identical stats and may share one cache entry.  Subclasses with
        derived attributes list them in ``structural_exclude``.
        """
        exclude = self.structural_exclude
        return {k: v for k, v in vars(self).items() if k not in exclude}


@dataclass
class ComposedKernel(KernelModel):
    """A fixed, flat sequence of leaf kernel launches run as one layer call.

    Used for implementations the paper treats as one layer call made of
    several passes (im2col + GEMM, the NHWC repacks around it, the naive
    multi-kernel softmax).  It is not itself a launch: the session times
    it, and the linter checks it, stage by stage, so it has no launch
    geometry, FLOP count or memory profile of its own.  Nested composed
    stages are flattened at construction.
    """

    kernels: list[KernelModel] = field(default_factory=list)
    name: str = "composed"

    def __post_init__(self) -> None:
        self.kernels = [
            leaf
            for stage in self.kernels
            for leaf in (
                stage.kernels if isinstance(stage, ComposedKernel) else [stage]
            )
        ]
        if not self.kernels:
            raise ValueError("ComposedKernel needs at least one kernel")
        self.n_launches = sum(k.n_launches for k in self.kernels)

    def _per_stage(self, *args: object) -> NoReturn:
        raise TypeError(
            f"{self.name}: a composed kernel is timed and linted stage by "
            "stage; it has no single-launch description"
        )

    launch_config = flop_count = memory_profile = alu_efficiency = _per_stage

    def workspace_bytes(self) -> float:
        return max(k.workspace_bytes() for k in self.kernels)
