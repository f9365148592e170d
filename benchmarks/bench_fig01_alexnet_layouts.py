"""Fig. 1 — CHWN (cuda-convnet2) vs NCHW (cuDNN) on AlexNet layers.

Paper: normalized execution time on AlexNet's conv and pooling layers; "up
to 6.9x layer-level performance improvement could be retained by choosing a
proper data layout" and "even for ... convolutional layers ... up to 2.3x".
"""

from __future__ import annotations

from figutil import FigureTable

from repro.core import best_conv_for_layout, cudnn_mode_conv
from repro.gpusim import default_context
from repro.layers import make_pool_kernel
from repro.networks import ALEXNET_CONV, ALEXNET_POOL
from repro.tensors import CHWN


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        "Fig. 1: AlexNet layers, normalized execution time (CHWN = 1.0)",
        ["layer", "chwn_ms", "nchw_ms", "nchw_norm"],
    )
    for i, (name, spec) in enumerate(ALEXNET_CONV.items(), start=1):
        chwn = best_conv_for_layout(ctx, spec, CHWN).time_ms
        nchw = cudnn_mode_conv(ctx, spec, "best").time_ms
        table.add(f"CV{i}", chwn, nchw, nchw / chwn)
    for i, (name, spec) in enumerate(ALEXNET_POOL.items(), start=1):
        chwn = ctx.run(make_pool_kernel(spec, "chwn")).time_ms
        nchw = ctx.run(make_pool_kernel(spec, "nchw-rowblock")).time_ms
        table.add(f"PL{i}", chwn, nchw, nchw / chwn)
    table.note("paper: pooling NCHW up to 6.9x slower; conv layout up to 2.3x")
    return table


def test_fig01(benchmark, device):
    table = benchmark(build_figure, device)
    norm = dict(zip(table.column("layer"), table.column("nchw_norm")))
    # Pooling: CHWN always wins, by a large factor somewhere.
    assert all(norm[f"PL{i}"] > 1.0 for i in (1, 2, 3))
    assert max(norm[f"PL{i}"] for i in (1, 2, 3)) > 3.0
    # Conv: the first layer strongly prefers CHWN; later layers prefer NCHW.
    assert norm["CV1"] > 1.5
    assert min(norm[f"CV{i}"] for i in (2, 3, 4, 5)) < 1.0


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
