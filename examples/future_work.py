"""Section VII, executed: Winograd convolution and FP16 on Pascal.

The paper closes by predicting that (a) more arithmetic-complexity tricks
like Lavin & Gray's Winograd convolution will appear and win "a group of
layers, for which they suit", and (b) FP16-capable hardware (Tesla P100)
will raise compute throughput — while in both cases "the underlying impact
from data layout remains".  This example runs both predictions through the
model.

Run with ``python examples/future_work.py``.
"""

import numpy as np

from repro.extensions import TESLA_P100, compare_layouts_fp16, memory_bound_share
from repro.gpusim import TITAN_BLACK, default_context
from repro.layers import (
    ConvSpec,
    conv_direct,
    conv_winograd,
    make_conv_kernel,
    make_filters,
)
from repro.networks import CONV_LAYERS


def main() -> None:
    print("== 1. Winograd F(2x2, 3x3): exact, and 2.25x fewer MACs ==")
    spec = ConvSpec(n=2, ci=8, h=14, w=14, co=8, fh=3, fw=3, pad=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 8, 14, 14)).astype(np.float32)
    w = make_filters(spec)
    diff = np.abs(conv_winograd(x, w, spec) - conv_direct(x, w, spec)).max()
    print(f"  max |winograd - direct| = {diff:.2e} (bit-level agreement)")

    ctx = default_context(TITAN_BLACK)
    print("\n  deep 3x3 layers on the Titan Black (time in ms):")
    for name in ("CV7", "CV10", "CV11", "CV12"):
        layer = CONV_LAYERS[name]
        times = {
            impl: ctx.run(make_conv_kernel(layer, impl)).time_ms
            for impl in ("im2col", "fft", "winograd")
        }
        winner = min(times, key=lambda k: times[k])
        print(
            f"  {name}: mm={times['im2col']:6.2f} fft={times['fft']:6.2f} "
            f"winograd={times['winograd']:6.2f}  -> {winner}"
        )

    print("\n== 2. FP16 on the Tesla P100: layout still decides ==")
    print(f"  {'layer':5s} {'fp32 winner':>12s} {'fp16 winner':>12s} "
          f"{'fp16 gap':>9s} {'speedup':>8s}")
    for row in compare_layouts_fp16(TESLA_P100)[:8]:
        print(
            f"  {row.layer:5s} {row.fp32_winner:>12s} {row.fp16_winner:>12s} "
            f"{row.fp16_ratio:8.2f}x {row.fp16_speedup_preferred:7.2f}x"
        )

    print("\n== 3. Why memory efficiency matters *more* going forward ==")
    for name in ("CV7", "CV12"):
        layer = CONV_LAYERS[name]
        s32 = memory_bound_share(TESLA_P100, layer, "im2col")
        s16 = memory_bound_share(TESLA_P100, layer, "im2col", fp16=True, math_only=True)
        print(
            f"  {name}: memory share of layer time {s32:5.1%} (fp32 math) -> "
            f"{s16:5.1%} (fp16 math over fp32 data)"
        )
    print(
        "\n  paper: 'with compute efficiency being addressed ... the\n"
        "  performance impact of the memory efficiency is likely to become\n"
        "  more important' — reproduced."
    )


if __name__ == "__main__":
    main()
