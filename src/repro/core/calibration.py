"""One-time per-device threshold calibration (paper Section IV.A/IV.D).

The paper derives (Ct, Nt) from a single profiling run that sweeps N and C
on a reference convolution shape (their Fig. 4); "for each GPU architecture,
we only need one-time profiling to determine the thresholds".  Here the
profiling runs against the simulator instead of hardware: we time the best
CHWN implementation (direct convolution) and the best NCHW implementation
(im2col + GEMM) at each sweep point and locate the crossovers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext, default_context
from ..obs.tracer import span as obs_span
from ..layers.base import ConvSpec
from ..layers.conv_kernels import make_conv_kernel
from .heuristic import LayoutThresholds

#: Default sweep grids, matching the paper's Fig. 4 axes.
N_SWEEP: tuple[int, ...] = (16, 32, 64, 128, 256, 384, 512)
C_SWEEP: tuple[int, ...] = (1, 3, 16, 32, 64, 128, 256)

#: CONV7-like reference shape used by the paper for its sensitivity study
#: ("CONV7 in Table 1 is used while others show similar trends").
REFERENCE_SHAPE = ConvSpec(n=64, ci=256, h=13, w=13, co=384, fh=3, fw=3, stride=1, pad=1)


@dataclass(frozen=True)
class SweepPoint:
    """One profiling measurement: times for both layouts at a sweep value."""

    value: int
    chwn_ms: float
    nchw_ms: float

    @property
    def chwn_wins(self) -> bool:
        return self.chwn_ms <= self.nchw_ms


@dataclass(frozen=True)
class CalibrationResult:
    """Thresholds plus the raw sweep data that produced them."""

    thresholds: LayoutThresholds
    n_sweep: tuple[SweepPoint, ...]
    c_sweep: tuple[SweepPoint, ...]
    profiling_ms: float

    def summary(self) -> str:
        lines = [
            f"calibrated thresholds: Ct={self.thresholds.ct} Nt={self.thresholds.nt}",
            f"simulated profiling cost: {self.profiling_ms:.1f} ms of GPU time",
        ]
        return "\n".join(lines)


def _time_both(
    context: SimulationContext, specs: list[ConvSpec]
) -> list[tuple[float, float]]:
    """CHWN (direct) and NCHW (im2col) times of every sweep point, each
    priced through the context's memo (calibration points never fail, so
    any error propagates)."""
    return [
        (
            context.run(make_conv_kernel(spec, "direct"), check_memory=False).time_ms,
            context.run(make_conv_kernel(spec, "im2col"), check_memory=False).time_ms,
        )
        for spec in specs
    ]


def calibrate(
    device: DeviceSpec,
    reference: ConvSpec = REFERENCE_SHAPE,
    n_values: tuple[int, ...] = N_SWEEP,
    c_values: tuple[int, ...] = C_SWEEP,
    context: SimulationContext | None = None,
) -> CalibrationResult:
    """Recover (Ct, Nt) for a device from the Fig. 4 style sweeps.

    * **Nt** — smallest swept N (at the reference's large C) where the CHWN
      path wins; above it, batch-register reuse carries CHWN regardless of C.
    * **Ct** — smallest swept C where the NCHW path wins, measured at a
      batch *below* Nt so the N-rule does not mask the C crossover.

    The two sweeps are sequential: the C sweep's batch size depends on the
    N sweep's crossover.
    """
    ctx = context or default_context(device)
    profiling_ms = 0.0

    n_sorted = sorted(n_values)
    with obs_span(
        "calibrate:n-sweep", "calibrate", device=device.name, points=len(n_sorted)
    ):
        n_specs = [replace(reference, n=n) for n in n_sorted]
        n_times = _time_both(ctx, n_specs)
    n_points = [
        SweepPoint(n, chwn, nchw) for n, (chwn, nchw) in zip(n_sorted, n_times)
    ]
    profiling_ms += sum(chwn + nchw for chwn, nchw in n_times)
    nt = next((p.value for p in n_points if p.chwn_wins), max(n_values))

    c_batch = max((n for n in n_values if n < nt), default=min(n_values))
    c_sorted = sorted(c_values)
    with obs_span(
        "calibrate:c-sweep", "calibrate", device=device.name, points=len(c_sorted)
    ):
        c_specs = [replace(reference, ci=c, n=c_batch) for c in c_sorted]
        c_times = _time_both(ctx, c_specs)
    c_points = [
        SweepPoint(c, chwn, nchw) for c, (chwn, nchw) in zip(c_sorted, c_times)
    ]
    profiling_ms += sum(chwn + nchw for chwn, nchw in c_times)
    ct = next(
        (p.value for p in c_points if not p.chwn_wins), max(c_values) * 2
    )

    return CalibrationResult(
        thresholds=LayoutThresholds(ct=int(ct), nt=int(nt)),
        n_sweep=tuple(n_points),
        c_sweep=tuple(c_points),
        profiling_ms=profiling_ms,
    )
