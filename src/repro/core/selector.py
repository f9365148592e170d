"""Per-layer implementation selection.

Two selection problems appear in the paper:

* **within a layout** — "for every data layout there is a preferred
  optimized implementation" (Section IV.D): direct convolution for CHWN;
  MM or FFT for NCHW.  :func:`best_conv_for_layout` picks among the valid
  implementations by simulated time, falling back exactly like the paper's
  cuDNN modes ("falls back to the cuDNN-MM mode if failed").
* **across cuDNN modes** — the ``cuDNN-Best`` scheme cherry-picks the
  fastest NCHW mode per layer (Section VI.C).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.kernel import KernelModel
from ..gpusim.session import SimulationContext
from ..layers.base import ConvSpec
from ..layers.conv_kernels import ConvUnsupportedError, make_conv_kernel
from ..tensors.layout import CHWN, NCHW, NHWC, DataLayout

#: Implementations valid per layout (Section IV.D).  NHWC exists only via
#: cuDNN's repack-to-NCHW path (paper footnote 1), so it never wins — it is
#: kept for the footnote-reproduction test and exploratory planning.
LAYOUT_IMPLEMENTATIONS: dict[str, tuple[str, ...]] = {
    str(CHWN): ("direct",),
    str(NCHW): ("im2col", "fft", "fft-tiled"),
    str(NHWC): ("im2col-nhwc",),
}

#: Pooling implementations valid per layout, the pooling twin of
#: :data:`LAYOUT_IMPLEMENTATIONS` (Section IV.B: a register-coarsened CHWN
#: kernel vs the two channel-major fallbacks).  The static analyzer uses
#: both maps to reject plans whose implementation family contradicts the
#: assigned layout.
POOL_LAYOUT_IMPLEMENTATIONS: dict[str, tuple[str, ...]] = {
    str(CHWN): ("chwn", "chwn-coarsened"),
    str(NCHW): ("nchw-linear", "nchw-rowblock"),
}


@dataclass(frozen=True)
class ConvChoice:
    """The selected implementation for a conv layer under a layout."""

    layout: DataLayout
    implementation: str
    time_ms: float
    kernel: KernelModel

    def __str__(self) -> str:
        return f"{self.layout}/{self.implementation} ({self.time_ms:.3f} ms)"


def try_conv_time(
    context: SimulationContext,
    spec: ConvSpec,
    implementation: str,
) -> tuple[float, KernelModel] | None:
    """Simulated time for one implementation, or None if its configuration
    is unsupported."""
    try:
        kernel = make_conv_kernel(spec, implementation)
        stats = context.run(kernel)
    except ConvUnsupportedError:
        return None
    return stats.time_ms, kernel


def best_conv_for_layout(
    context: SimulationContext,
    spec: ConvSpec,
    layout: DataLayout,
    allow_fft: bool = True,
) -> ConvChoice:
    """Fastest valid implementation of ``spec`` under ``layout``."""
    key = str(layout)
    if key not in LAYOUT_IMPLEMENTATIONS:
        raise ValueError(
            f"no convolution implementation is tuned for layout {layout}; "
            f"supported: {sorted(LAYOUT_IMPLEMENTATIONS)}"
        )
    candidates = LAYOUT_IMPLEMENTATIONS[key]
    if not allow_fft:
        candidates = tuple(c for c in candidates if not c.startswith("fft"))
    best: ConvChoice | None = None
    for impl in candidates:
        result = try_conv_time(context, spec, impl)
        if result is None:
            continue
        time_ms, kernel = result
        if best is None or time_ms < best.time_ms:
            best = ConvChoice(layout, impl, time_ms, kernel)
    if best is None:
        raise ConvUnsupportedError(
            f"no implementation for layout {layout} can run {spec}"
        )
    return best


def cudnn_mode_conv(
    context: SimulationContext,
    spec: ConvSpec,
    mode: str,
) -> ConvChoice:
    """Model one cuDNN execution mode with MM fallback.

    ``mode`` is ``mm``, ``fft``, ``fft-tiled`` or ``best``.
    """
    if mode == "best":
        return best_conv_for_layout(context, spec, NCHW, allow_fft=True)
    impl = {"mm": "im2col", "fft": "fft", "fft-tiled": "fft-tiled"}.get(mode)
    if impl is None:
        raise ValueError(f"unknown cuDNN mode {mode!r}")
    result = try_conv_time(context, spec, impl)
    if result is None:  # fall back to MM, as the paper's schemes do
        result = try_conv_time(context, spec, "im2col")
        impl = "im2col"
    if result is None:
        raise ConvUnsupportedError(f"cuDNN fallback failed for {spec}")
    time_ms, kernel = result
    return ConvChoice(NCHW, impl, time_ms, kernel)
