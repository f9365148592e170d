"""Extension — a convnet-benchmarks style suite (paper reference [31]).

Soumith Chintala's convnet-benchmarks, which the paper cites for framework
comparisons, reports per-network forward and forward+backward times.  This
harness produces the same table for every scheme, which is also a handy
single entry point for regression-tracking the whole model.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.baselines import time_network
from repro.networks import NETWORK_BUILDERS, build_network

SCHEMES = ("cudnn-best", "cuda-convnet", "opt")


def build_figure(device) -> FigureTable:
    table = FigureTable(
        "convnet-benchmarks style: per-network fwd / fwd+bwd times (ms)",
        ["network", "scheme", "forward_ms", "fwdbwd_ms", "bwd_ratio"],
    )
    for name in NETWORK_BUILDERS:
        net = build_network(name)
        for scheme in SCHEMES:
            fwd = time_network(net, device, scheme).total_ms
            trn = time_network(net, device, scheme, training=True).total_ms
            table.add(name, scheme, fwd, trn, trn / fwd)
    return table


def test_convnet_suite(benchmark, device):
    table = benchmark(build_figure, device)
    # Backward adds 1.5x-3.5x on top of forward for every (net, scheme).
    for row in table.rows:
        assert 2.0 < row[4] < 4.5, row
    # Forward times are ordered by network size within each scheme.
    for scheme in SCHEMES:
        times = {
            r[0]: r[2] for r in table.rows if r[1] == scheme
        }
        assert times["lenet"] < times["alexnet"] < times["vgg"]


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
