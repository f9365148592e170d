"""Fig. 10 — preferred-layout speedups with and without transform overhead.

Paper: the preferred layout wins by 2.48x on average (GM); adding a naive
transformation can erase the benefit entirely, while the optimized
transformation retains an average 2.08x (up to 4.02x on CV1).
"""

from __future__ import annotations

from figutil import FigureTable, geomean

from repro.gpusim import default_context
from repro.layers import DirectConvCHWN, Im2colGemmNCHW
from repro.networks import CONV_LAYERS
from repro.tensors import CHWN, NCHW, transform_time_ms


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        "Fig. 10: speedup of the preferred layout over the alternative",
        ["layer", "opt", "opt_naive_t", "opt_fast_t"],
    )
    for name, spec in CONV_LAYERS.items():
        t_chwn = ctx.run(DirectConvCHWN(spec), check_memory=False).time_ms
        t_nchw = ctx.run(Im2colGemmNCHW(spec), check_memory=False).time_ms
        best, alt = min(t_chwn, t_nchw), max(t_chwn, t_nchw)
        # Running this one layer in its preferred layout inside a network
        # kept in the alternative layout costs two relayouts: the input into
        # the preferred layout, and the output back out of it.
        src = NCHW if t_chwn < t_nchw else CHWN
        dst = CHWN if t_chwn < t_nchw else NCHW
        naive = transform_time_ms(device, spec.in_desc(src), dst, "naive")
        naive += transform_time_ms(device, spec.out_desc(dst), src, "naive")
        fast = transform_time_ms(device, spec.in_desc(src), dst, "auto")
        fast += transform_time_ms(device, spec.out_desc(dst), src, "auto")
        table.add(name, alt / best, alt / (best + naive), alt / (best + fast))
    gm = (
        geomean(table.column("opt")),
        geomean(table.column("opt_naive_t")),
        geomean(table.column("opt_fast_t")),
    )
    table.add("GM", *gm)
    table.note("paper GM: opt 2.48x, with optimized transform 2.08x")
    return table


def test_fig10(benchmark, device):
    table = benchmark(build_figure, device)
    gm = table.row("GM")
    assert 1.8 < gm[1] < 4.5  # preferred layout GM (paper 2.48)
    assert gm[3] > gm[2]  # fast transform beats naive transform
    assert gm[3] > 0.55 * gm[1]  # fast transform retains most of the benefit
    # Naive transform erases the benefit on at least one layer (paper: CV1's
    # 6.46x gain disappears under the naive kernel).
    assert any(r[2] < 1.0 < r[1] for r in table.rows if r[0] != "GM")


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
