"""Fig. 5 — FFT-based convolution vs MM vs cuda-convnet on CV1–CV12.

Paper: CV5/CV6 fail ("no results for both FFT options due to execution
failures"); FFT beats MM for large-channel layers (CV7, CV10); FFT is much
worse than MM at small channel counts (CV3, CV9).
"""

from __future__ import annotations

from figutil import FigureTable

from repro.gpusim import GpuOutOfMemoryError, default_context
from repro.layers import ConvUnsupportedError, make_conv_kernel
from repro.networks import CONV_LAYERS


def _speedup(ctx, spec, impl, baseline_ms):
    try:
        return baseline_ms / ctx.run(make_conv_kernel(spec, impl)).time_ms
    except (ConvUnsupportedError, GpuOutOfMemoryError):
        return float("nan")


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        "Fig. 5: speedups over cuda-convnet (nan = execution failure)",
        ["layer", "cudnn_mm", "cudnn_fft", "cudnn_fft_t"],
    )
    for name, spec in CONV_LAYERS.items():
        base = ctx.run(make_conv_kernel(spec, "direct")).time_ms
        table.add(
            name,
            _speedup(ctx, spec, "im2col", base),
            _speedup(ctx, spec, "fft", base),
            _speedup(ctx, spec, "fft-tiled", base),
        )
    table.note("paper: CV5/CV6 FFT fail; FFT > MM on CV7/CV10; FFT << MM on CV3/CV9")
    return table


def test_fig05(benchmark, device):
    import math

    table = benchmark(build_figure, device)
    rows = {r[0]: r for r in table.rows}
    # Execution failures on the stride-2 layers.
    for name in ("CV5", "CV6"):
        assert math.isnan(rows[name][2]) and math.isnan(rows[name][3])
    # FFT beats MM where the paper says it does.
    for name in ("CV7", "CV10"):
        assert rows[name][2] > rows[name][1]
    # FFT collapses at small C.
    for name in ("CV3", "CV9"):
        assert rows[name][2] < 0.5 * rows[name][1] or rows[name][2] < 0.3


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
