"""Extension — the layout story across three GPU generations.

The paper argues its observations are architectural, not incidental: the
thresholds move between Kepler and Maxwell but the structure survives, and
Section VII predicts the same for Pascal.  This harness runs the Fig. 3
duel and the whole-network comparison on all three device models.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.baselines import compare_schemes
from repro.core import calibrate
from repro.extensions import TESLA_P100
from repro.gpusim import TITAN_BLACK, TITAN_X, default_context
from repro.layers import DirectConvCHWN, Im2colGemmNCHW
from repro.networks import CONV_LAYERS, build_network

DEVICES = (TITAN_BLACK, TITAN_X, TESLA_P100)


def build_figure(devices=DEVICES) -> FigureTable:
    table = FigureTable(
        "Cross-device: calibrated thresholds, CHWN conv winners, Opt speedups",
        ["device", "ct", "nt", "chwn_wins", "lenet_opt", "vgg_opt"],
    )
    for device in devices:
        thresholds = calibrate(device).thresholds
        ctx = default_context(device)
        chwn_wins = sum(
            1
            for spec in CONV_LAYERS.values()
            if ctx.run(DirectConvCHWN(spec), check_memory=False).time_ms
            < ctx.run(Im2colGemmNCHW(spec), check_memory=False).time_ms
        )
        speedups = []
        for name in ("lenet", "vgg"):
            net = build_network(name)
            results = compare_schemes(net, device, ("cudnn-mm", "opt"))
            speedups.append(results["opt"].speedup_over(results["cudnn-mm"]))
        table.add(
            device.name, thresholds.ct, thresholds.nt, chwn_wins, *speedups
        )
    table.note("newer parts shift thresholds toward CHWN but Opt always wins")
    return table


def test_devices(benchmark):
    table = benchmark(build_figure)
    rows = {r[0]: r for r in table.rows}
    # Thresholds move with architecture (the paper's Titan X observation).
    assert rows["GTX Titan Black"][2] == 128  # Nt
    assert rows["GTX Titan X"][2] == 64
    # Newer devices (earlier reuse saturation) favor CHWN on more layers.
    assert rows["GTX Titan X"][3] >= rows["GTX Titan Black"][3]
    # Opt never loses, anywhere.
    for r in table.rows:
        assert r[4] >= 1.0 and r[5] >= 1.0, r[0]


if __name__ == "__main__":
    build_figure().show()
