"""Table 1 — the full layer zoo under its best implementation per layout.

Table 1 is the paper's workload specification; this harness times every row
under both layouts' best implementations, which is the raw material behind
Figs. 1, 3, 5, 6, 10 and the heuristic itself.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.core import best_conv_for_layout
from repro.gpusim import default_context
from repro.layers import make_pool_kernel, make_softmax_kernel
from repro.networks import CLASS_LAYERS, CONV_LAYERS, POOL_LAYERS
from repro.tensors import CHWN, NCHW


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        "Table 1 layers: best time per layout (ms)",
        ["layer", "chwn_ms", "nchw_ms", "preferred"],
    )
    for name, spec in CONV_LAYERS.items():
        chwn = best_conv_for_layout(ctx, spec, CHWN, check_memory=False).time_ms
        nchw = best_conv_for_layout(ctx, spec, NCHW, check_memory=False).time_ms
        table.add(name, chwn, nchw, "CHWN" if chwn < nchw else "NCHW")
    for name, spec in POOL_LAYERS.items():
        chwn = ctx.run(make_pool_kernel(spec, "chwn"), check_memory=False).time_ms
        nchw = ctx.run(make_pool_kernel(spec, "nchw-linear"), check_memory=False).time_ms
        table.add(name, chwn, nchw, "CHWN" if chwn < nchw else "NCHW")
    for name, spec in CLASS_LAYERS.items():
        best_base = min(
            ctx.run(make_softmax_kernel(spec, impl), check_memory=False).time_ms
            for impl in ("5kernel", "cudnn")
        )
        opt = ctx.run(make_softmax_kernel(spec, "opt"), check_memory=False).time_ms
        table.add(name, opt, best_base, "opt")
    return table


def test_table1(benchmark, device):
    table = benchmark(build_figure, device)
    preferred = dict(zip(table.column("layer"), table.column("preferred")))
    # Every pooling row prefers CHWN; every classifier row prefers Opt.
    for i in range(1, 11):
        assert preferred[f"PL{i}"] == "CHWN"
    for i in range(1, 6):
        assert preferred[f"CLASS{i}"] == "opt"
    # Conv rows split exactly as the paper's Fig. 3.
    chwn_convs = {k for k, v in preferred.items() if k.startswith("CV") and v == "CHWN"}
    assert chwn_convs == {"CV1", "CV2", "CV3", "CV4", "CV5", "CV9"}


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
