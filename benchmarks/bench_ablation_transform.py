"""Ablation — the layout-transformation kernel, one optimization at a time.

Decomposes Fig. 11's ladder into its three ingredients:
1. tiling through shared memory (coalesces the strided side),
2. padding the tile (``sh[C][33]``) to kill bank conflicts,
3. float2 vectorization (8-byte shared-memory mode).
"""

from __future__ import annotations

from figutil import FigureTable

from repro.gpusim import default_context
from repro.tensors import (
    CHWN,
    NCHW,
    NaiveTransformKernel,
    TensorDesc,
    TiledTransformKernel,
    VectorTransformKernel,
)

SIZES = {
    "small (2 MiB)": TensorDesc(64, 16, 14, 14, CHWN),
    "medium (18 MiB)": TensorDesc(128, 64, 24, 24, CHWN),
    "large (71 MiB)": TensorDesc(64, 96, 55, 55, CHWN),
    "huge (296 MiB)": TensorDesc(128, 96, 55, 55, CHWN),
}


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        "Ablation: transform variants, effective GB/s (read+write / time)",
        ["tensor", "naive", "tiled_unpadded", "tiled_padded", "vectorized"],
    )
    for label, desc in SIZES.items():
        kernels = [
            NaiveTransformKernel(desc, NCHW),
            TiledTransformKernel(desc, NCHW, padded=False),
            TiledTransformKernel(desc, NCHW, padded=True),
            VectorTransformKernel(desc, NCHW),
        ]
        bws = [
            2 * desc.nbytes / (ctx.run(k).time_ms * 1e6)
            for k in kernels
        ]
        table.add(label, *bws)
    table.note("each column adds one optimization from the paper's Fig. 7b")
    return table


def test_ablation_transform(benchmark, device):
    table = benchmark(build_figure, device)
    for row in table.rows:
        _, naive, unpadded, padded, vectorized = row
        # The full recipe works and vectorization adds on top.
        assert naive < padded < vectorized
        # Padding is not a nicety: a fully-conflicted tile (32-way
        # serialization on every column read) is even slower than the naive
        # kernel — forgetting ``sh[C][33]`` forfeits the whole optimization.
        assert unpadded < padded / 5
        assert unpadded < naive


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
