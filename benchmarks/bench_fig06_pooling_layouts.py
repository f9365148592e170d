"""Fig. 6 — pooling-layer layouts: cuda-convnet vs Caffe vs cuDNN.

Paper: CHWN wins across the board (speedup up to 16.3x); the numbers on
top of the figure are the best achieved bandwidth per layer (132–205 GB/s
for cuda-convnet; Caffe averages 52.3 GB/s and cuDNN 41.9 GB/s).
"""

from __future__ import annotations

from figutil import FigureTable, bench_arg_parser, geomean

from repro.gpusim import SimulationContext, default_context
from repro.gpusim.exec import evaluate_cells, map_chunks
from repro.layers import make_pool_kernel
from repro.networks import POOL_LAYERS

_IMPLS = ("chwn", "nchw-linear", "nchw-rowblock")


def effective_bw(spec, time_ms: float) -> float:
    useful = spec.in_desc().nbytes + spec.out_desc().nbytes
    return useful / (time_ms * 1e6)


def _time_chunk(context: SimulationContext, tasks) -> list[float]:
    """Every (layer, layout) cell of the chunk priced in one memoized
    vectorized evaluation."""
    models = [make_pool_kernel(spec, impl) for _, spec, impl in tasks]
    times = []
    for out in evaluate_cells(context, models, check_memory=False):
        if isinstance(out, Exception):
            raise out
        times.append(out.time_ms)
    return times


def build_figure(device, jobs: int | str = 1, context: SimulationContext | None = None) -> FigureTable:
    ctx = context or default_context(device)
    table = FigureTable(
        "Fig. 6: pooling layouts — normalized speed (convnet = 1.0) and "
        "achieved GB/s",
        ["layer", "convnet_bw", "caffe_rel", "cudnn_rel", "caffe_bw", "cudnn_bw"],
    )
    tasks = [
        (name, spec, impl)
        for name, spec in POOL_LAYERS.items()
        for impl in _IMPLS
    ]
    times = map_chunks(_time_chunk, tasks, ctx, jobs=jobs)
    grid = dict(zip([(t[0], t[2]) for t in tasks], times))
    for name, spec in POOL_LAYERS.items():
        t_conv = grid[(name, "chwn")]
        t_caffe = grid[(name, "nchw-linear")]
        t_cudnn = grid[(name, "nchw-rowblock")]
        table.add(
            name,
            effective_bw(spec, t_conv),
            t_conv / t_caffe,
            t_conv / t_cudnn,
            effective_bw(spec, t_caffe),
            effective_bw(spec, t_cudnn),
        )
    table.note("paper: convnet 132-205 GB/s; Caffe avg 52.3; cuDNN avg 41.9")
    return table


def test_fig06(benchmark, device):
    table = benchmark(build_figure, device)
    # CHWN wins everywhere.
    assert all(rel < 1.0 for rel in table.column("caffe_rel"))
    assert all(rel < 1.0 for rel in table.column("cudnn_rel"))
    # Worst-case NCHW slowdown is large (paper: up to 16.3x; model: ~6.5x).
    assert min(table.column("cudnn_rel")) < 1 / 4
    # Bandwidth zones.
    conv_bws = table.column("convnet_bw")
    assert all(100 < bw < 235 for bw in conv_bws)
    assert 30 < geomean(table.column("cudnn_bw")) < 90


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    args = bench_arg_parser(__doc__).parse_args()
    build_figure(TITAN_BLACK, jobs=args.jobs).show()
