"""Fig. 4 — layout sensitivity to N and C on the CONV7 shape.

Paper: (a) cuda-convnet overtakes cuDNN once N passes 64–128 and is far
more batch-sensitive; (b) cuda-convnet wins below C = 32, cuDNN above.
"""

from __future__ import annotations

from dataclasses import replace

from figutil import FigureTable

from repro.gpusim import SimulationContext, default_context
from repro.layers import DirectConvCHWN, Im2colGemmNCHW
from repro.networks import CONV_LAYERS

N_VALUES = (1, 3, 16, 32, 64, 128, 256, 384, 512)
C_VALUES = (16, 32, 64, 128, 256)


def _gflops(context: SimulationContext, specs) -> list[tuple[float, float]]:
    """CHWN (cuda-convnet) and NCHW (cuDNN) GFLOPS of every sweep point,
    each priced through the context's memo."""
    return [
        (
            context.run(DirectConvCHWN(spec)).achieved_gflops,
            context.run(Im2colGemmNCHW(spec)).achieved_gflops,
        )
        for spec in specs
    ]


def build_figure(
    device,
    jobs: int | str = 1,  # unused; perfbench's client passes it
    context: SimulationContext | None = None,
) -> tuple[FigureTable, FigureTable]:
    ctx = context or default_context(device)
    base = CONV_LAYERS["CV7"]

    fig4a = FigureTable(
        "Fig. 4a: CONV7 GFLOPS vs batch size N",
        ["N", "convnet_gflops", "cudnn_gflops", "winner"],
    )
    n_specs = [replace(base, n=n) for n in N_VALUES]
    n_pairs = _gflops(ctx, n_specs)
    for n, (g_c, g_m) in zip(N_VALUES, n_pairs):
        fig4a.add(n, g_c, g_m, "CHWN" if g_c > g_m else "NCHW")

    fig4b = FigureTable(
        "Fig. 4b: CONV7 GFLOPS vs channel count C (N=64)",
        ["C", "convnet_gflops", "cudnn_gflops", "winner"],
    )
    c_specs = [replace(base, ci=c) for c in C_VALUES]
    c_pairs = _gflops(ctx, c_specs)
    for c, (g_c, g_m) in zip(C_VALUES, c_pairs):
        fig4b.add(c, g_c, g_m, "CHWN" if g_c > g_m else "NCHW")
    fig4b.note("paper: crossover at C = 32 (Ct); 4a crossover N in (64, 128]")
    return fig4a, fig4b


def test_fig04(benchmark, device):
    fig4a, fig4b = benchmark(build_figure, device)
    # 4a: CHWN monotone rising until saturation, crossover in (64, 128].
    chwn = fig4a.column("convnet_gflops")
    assert chwn == sorted(chwn)
    assert fig4a.row(64)[3] == "NCHW"
    assert fig4a.row(128)[3] == "CHWN"
    # 4b: cuDNN monotone rising with C, crossover in (32, 64].
    cudnn = fig4b.column("cudnn_gflops")
    assert cudnn == sorted(cudnn)
    assert fig4b.row(32)[3] == "CHWN"
    assert fig4b.row(64)[3] == "NCHW"


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    for t in build_figure(TITAN_BLACK):
        t.show()
