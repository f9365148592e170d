"""Fig. 3 — cuda-convnet (CHWN) vs cuDNN (NCHW/MM) on CV1–CV12.

Paper: cuda-convnet wins CV1–CV5 and CV9 (up to 6.5x); cuDNN wins the rest.
Also reports the Section II.A ALU-utilization observation for AlexNet's
second convolution.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.gpusim import default_context
from repro.layers import DirectConvCHWN, Im2colGemmNCHW
from repro.networks import ALEXNET_CONV, CONV_LAYERS

PAPER_CHWN_WINNERS = {"CV1", "CV2", "CV3", "CV4", "CV5", "CV9"}


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        "Fig. 3: convolution layouts (speedup of cuDNN over cuda-convnet; "
        "<1 means CHWN wins)",
        ["layer", "convnet_ms", "cudnn_ms", "cudnn_speedup", "winner"],
    )
    for name, spec in CONV_LAYERS.items():
        t_c = ctx.run(DirectConvCHWN(spec)).time_ms
        t_m = ctx.run(Im2colGemmNCHW(spec)).time_ms
        table.add(name, t_c, t_m, t_c / t_m, "CHWN" if t_c < t_m else "NCHW")

    # Section II.A: ALU utilization of AlexNet conv2 improves with layout.
    acv2 = ALEXNET_CONV["ACV2"]
    chwn_util = ctx.run(DirectConvCHWN(acv2)).alu_utilization
    nchw_util = ctx.run(Im2colGemmNCHW(acv2)).alu_utilization
    table.note(
        f"AlexNet CV2 ALU utilization: {min(chwn_util, nchw_util):.1%} -> "
        f"{max(chwn_util, nchw_util):.1%} with the suitable layout "
        "(paper: 55.64% -> 78.71%)"
    )
    return table


def test_fig03(benchmark, device):
    table = benchmark(build_figure, device)
    winners = dict(zip(table.column("layer"), table.column("winner")))
    got_chwn = {name for name, w in winners.items() if w == "CHWN"}
    assert got_chwn == PAPER_CHWN_WINNERS


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
