"""Analysis — roofline placement of every Table-1 layer.

Not a figure from the paper, but the analysis its Section II performs in
prose ("convolutional layers are not necessarily only compute bound"):
place each layer's best implementation on the device roofline and report
what binds it.  Pins the paper's qualitative taxonomy: convolutions with
healthy shapes ride the compute roof; pooling and softmax live far down
the bandwidth slope.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.core import best_conv_for_layout
from repro.gpusim import default_context, roofline_point
from repro.layers import make_pool_kernel, make_softmax_kernel
from repro.networks import CLASS_LAYERS, CONV_LAYERS, POOL_LAYERS
from repro.tensors import CHWN, NCHW


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        f"Roofline placement on {device.name} "
        "(intensity flop/B, achieved vs attainable GFLOPS)",
        ["layer", "impl", "intensity", "achieved", "roof", "bound"],
    )
    for name, spec in CONV_LAYERS.items():
        best = min(
            (best_conv_for_layout(ctx, spec, lo) for lo in (CHWN, NCHW)),
            key=lambda c: c.time_ms,
        )
        stats = ctx.run(best.kernel)
        p = roofline_point(device, stats)
        table.add(
            name, best.implementation, p.arithmetic_intensity,
            stats.achieved_gflops, p.roof_gflops, stats.bound,
        )
    for name, spec in POOL_LAYERS.items():
        stats = ctx.run(make_pool_kernel(spec, "chwn"))
        p = roofline_point(device, stats)
        table.add(name, "chwn", p.arithmetic_intensity, stats.achieved_gflops,
                  p.roof_gflops, stats.bound)
    for name, spec in CLASS_LAYERS.items():
        stats = ctx.run(make_softmax_kernel(spec, "opt"))
        p = roofline_point(device, stats)
        table.add(name, "softmax-opt", p.arithmetic_intensity,
                  stats.achieved_gflops, p.roof_gflops, stats.bound)
    return table


def test_roofline(benchmark, device):
    table = benchmark(build_figure, device)
    rows = {r[0]: r for r in table.rows}
    # Nothing ever beats its roof.
    for name, r in rows.items():
        assert r[3] <= r[4] * 1.001, name
    # Pooling and classifier layers sit deep in memory-bound territory.
    pool_class = list(POOL_LAYERS) + list(CLASS_LAYERS)
    for name in pool_class:
        assert rows[name][2] < 10, name  # low arithmetic intensity
    # Every convolution has at least an order of magnitude more intensity
    # than the most intense pooling/classifier layer.
    worst_conv = min(rows[name][2] for name in CONV_LAYERS)
    best_other = max(rows[name][2] for name in pool_class)
    assert worst_conv > 3 * best_other
    # The paper's Section II point: convolutions are "not necessarily only
    # compute bound" — at least one conv rides the bandwidth slope.
    assert any(rows[name][5] == "dram_bandwidth" for name in CONV_LAYERS)


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
