"""Fig. 12 (and Fig. 8) — optimized pooling via auto-tuned thread coarsening.

Paper: with CHWN plus working-set expansion, the optimized kernels average
193.8 GB/s and improve on cuda-convnet by 14.3% on average (33.9% on PL3,
where 36% of DRAM accesses are eliminated).  Fig. 8's redundant-load
counting is reported as the traffic column.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.core.autotune import autotune_pooling_many
from repro.gpusim import SimulationContext, default_context
from repro.layers import PoolingCHWN, PoolingCoarsenedCHWN, make_pool_kernel
from repro.networks import POOL_LAYERS


def build_figure(
    device,
    jobs: int = 1,  # unused; perfbench's client passes it
    context: SimulationContext | None = None,
) -> FigureTable:
    ctx = context or default_context(device)
    table = FigureTable(
        "Fig. 12: pooling — library kernels vs auto-tuned Opt "
        "(speedup normalized to cuda-convnet)",
        ["layer", "caffe", "cudnn", "opt", "factors", "dram_saved_pct", "opt_bw"],
    )
    # The hill-climbs are per-layer independent: tune them all up front.
    tuned_by_name = dict(
        zip(
            POOL_LAYERS,
            autotune_pooling_many(device, list(POOL_LAYERS.values()), context=ctx),
        )
    )
    for name, spec in POOL_LAYERS.items():
        t_conv = ctx.run(PoolingCHWN(spec), check_memory=False).time_ms
        t_caffe = ctx.run(
            make_pool_kernel(spec, "nchw-linear"), check_memory=False
        ).time_ms
        t_cudnn = ctx.run(
            make_pool_kernel(spec, "nchw-rowblock"), check_memory=False
        ).time_ms
        tuned = tuned_by_name[name]
        if (tuned.ux, tuned.uy) == (1, 1):
            opt_kernel = PoolingCHWN(spec)
        else:
            opt_kernel = PoolingCoarsenedCHWN(spec, tuned.ux, tuned.uy)
        opt_stats = ctx.run(opt_kernel, check_memory=False)
        base_dram = ctx.run(PoolingCHWN(spec), check_memory=False).dram_bytes
        saved = 100.0 * (1 - opt_stats.dram_bytes / base_dram)
        useful = spec.in_desc().nbytes + spec.out_desc().nbytes
        table.add(
            name,
            t_conv / t_caffe,
            t_conv / t_cudnn,
            t_conv / opt_stats.time_ms,
            f"{tuned.ux}x{tuned.uy}",
            saved,
            useful / (opt_stats.time_ms * 1e6),
        )
    table.note("paper: Opt avg 193.8 GB/s, +14.3% avg over convnet, PL3 -36% DRAM")
    return table


def fig8_redundancy_example() -> tuple[int, int]:
    """Fig. 8's toy: 12 elements, window 4, stride 2 -> 5 outputs.

    Returns (loads without reuse, unique elements loaded)."""
    elements, window, stride = 12, 4, 2
    outputs = (elements - window) // stride + 1
    loads = outputs * window
    unique = (outputs - 1) * stride + window
    return loads, unique


def test_fig08_redundancy_counts():
    loads, unique = fig8_redundancy_example()
    assert loads == 20  # "totally 20 global memory accesses are required"
    assert unique == 12  # 8 of the 20 are redundant


def test_fig12(benchmark, device):
    table = benchmark(build_figure, device)
    rows = {r[0]: r for r in table.rows}
    # Opt never loses to the libraries.
    for name, r in rows.items():
        assert r[3] >= max(r[1], r[2]), name
        assert r[3] >= 0.99, name
    # Overlapped layers gain; non-overlapped do not regress.
    overlapped = [rows[f"PL{i}"][3] for i in range(3, 11)]
    avg_gain = sum(overlapped) / len(overlapped) - 1
    assert 0.05 < avg_gain < 0.40  # paper: 14.3% average
    # DRAM savings on an overlapped layer (paper: 36% on PL3).
    assert rows["PL3"][5] > 5.0


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
    print("\nFig. 8 toy example (loads, unique):", fig8_redundancy_example())
