"""Sensitivity-analysis toolkit: sweep any layer dimension, any metric.

The paper's Fig. 4 is one instance of a general method — fix a layer shape,
vary one dimension, watch the implementations trade places.  This module
makes that method a first-class tool: :func:`sweep_conv` /
:func:`sweep_pool` / :func:`sweep_softmax` produce tidy result grids for
any dimension, and :func:`crossovers` locates where the winner changes
(the raw material for thresholds like Ct and Nt).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..gpusim.device import DeviceSpec
from ..gpusim.session import GpuOutOfMemoryError, SimulationContext, default_context
from ..obs.tracer import span as obs_span
from ..layers.base import ConvSpec, PoolSpec, SoftmaxSpec
from ..layers.conv_kernels import ConvUnsupportedError, make_conv_kernel
from ..layers.pooling_kernels import make_pool_kernel
from ..layers.softmax_kernels import make_softmax_kernel

_MAKERS = {
    "conv": make_conv_kernel,
    "pool": make_pool_kernel,
    "softmax": make_softmax_kernel,
}


@dataclass(frozen=True)
class SweepPoint:
    """One (dimension value, implementation) measurement."""

    value: int
    implementation: str
    time_ms: float | None  # None when the implementation cannot run
    gflops: float | None


@dataclass(frozen=True)
class SweepResult:
    """A full sweep grid."""

    dimension: str
    values: tuple[int, ...]
    implementations: tuple[str, ...]
    points: tuple[SweepPoint, ...]

    def time(self, value: int, implementation: str) -> float | None:
        for p in self.points:
            if p.value == value and p.implementation == implementation:
                return p.time_ms
        raise KeyError((value, implementation))

    def winner(self, value: int) -> str:
        """Fastest runnable implementation at one sweep value."""
        candidates = [
            p for p in self.points if p.value == value and p.time_ms is not None
        ]
        if not candidates:
            raise ValueError(f"no implementation could run at {value}")
        return min(candidates, key=lambda p: p.time_ms).implementation

    def winners(self) -> list[tuple[int, str]]:
        return [(v, self.winner(v)) for v in self.values]


def crossovers(result: SweepResult) -> list[tuple[int, str, str]]:
    """(value, old winner, new winner) at every change of the fastest
    implementation along the sweep."""
    out: list[tuple[int, str, str]] = []
    winners = result.winners()
    for (_, prev), (value, cur) in zip(winners, winners[1:]):
        if cur != prev:
            out.append((value, prev, cur))
    return out


def _point(
    context: SimulationContext,
    kind: str,
    base: Any,
    dimension: str,
    value: int,
    implementation: str,
    check_memory: bool,
) -> SweepPoint:
    """One grid point, priced through the context's memo.  An unsupported
    shape, an OOM or a launch failure makes a failed point (``time_ms``
    None)."""
    # Caught here, not in the grid loop: the context memoizes a launch
    # error, and its traceback then holds this frame, not the grid's.
    try:
        spec = replace(base, **{dimension: value})
        if dimension == "h" and kind != "softmax":
            spec = replace(spec, w=value)
        stats = context.run(_MAKERS[kind](spec, implementation), check_memory)
    except (ConvUnsupportedError, GpuOutOfMemoryError, ValueError):
        return SweepPoint(value, implementation, None, None)
    return SweepPoint(value, implementation, stats.time_ms, stats.achieved_gflops)


def _run_grid(
    context: SimulationContext,
    kind: str,
    base: Any,
    check_memory: bool,
    dimension: str,
    values: tuple[int, ...],
    implementations: tuple[str, ...],
) -> SweepResult:
    with obs_span(
        f"sweep:{kind}:{dimension}",
        "sweep",
        kind=kind,
        dimension=dimension,
        cells=len(values) * len(implementations),
        implementations=list(implementations),
    ):
        points = tuple(
            _point(context, kind, base, dimension, value, impl, check_memory)
            for value in values
            for impl in implementations
        )
    return SweepResult(
        dimension=dimension,
        values=tuple(values),
        implementations=tuple(implementations),
        points=points,
    )


def sweep_conv(
    device: DeviceSpec,
    base: ConvSpec,
    dimension: str,
    values: tuple[int, ...],
    implementations: tuple[str, ...] = ("direct", "im2col"),
    context: SimulationContext | None = None,
    jobs: int | str | None = None,  # unused; perfbench's client passes it
) -> SweepResult:
    """Vary one :class:`ConvSpec` field (``n``, ``ci``, ``co``, ``h``...)."""
    if not hasattr(base, dimension):
        raise ValueError(f"ConvSpec has no dimension {dimension!r}")
    ctx = context or default_context(device)
    return _run_grid(
        ctx, "conv", base, True, dimension, tuple(values), tuple(implementations)
    )


def sweep_pool(
    device: DeviceSpec,
    base: PoolSpec,
    dimension: str,
    values: tuple[int, ...],
    implementations: tuple[str, ...] = ("chwn", "nchw-linear"),
    context: SimulationContext | None = None,
) -> SweepResult:
    """Vary one :class:`PoolSpec` field."""
    if not hasattr(base, dimension):
        raise ValueError(f"PoolSpec has no dimension {dimension!r}")
    ctx = context or default_context(device)
    return _run_grid(
        ctx, "pool", base, False, dimension, tuple(values), tuple(implementations)
    )


def sweep_softmax(
    device: DeviceSpec,
    base: SoftmaxSpec,
    dimension: str,
    values: tuple[int, ...],
    implementations: tuple[str, ...] = ("cudnn", "opt"),
    context: SimulationContext | None = None,
) -> SweepResult:
    """Vary ``n`` or ``categories`` of a softmax layer."""
    if not hasattr(base, dimension):
        raise ValueError(f"SoftmaxSpec has no dimension {dimension!r}")
    ctx = context or default_context(device)
    return _run_grid(
        ctx, "softmax", base, False, dimension, tuple(values), tuple(implementations)
    )
