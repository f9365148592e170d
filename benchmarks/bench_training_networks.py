"""Extension — Fig. 14 under training (complete forward-backward passes).

Paper footnote 1 says forward and backward share data structures and
operations, so the layout optimizations should carry over to training; this
harness verifies that the scheme ranking survives when every layer also
pays its backward kernels and every transform is applied to the gradient
on the way back.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.baselines import compare_schemes
from repro.networks import build_network

SCHEMES = ("cudnn-mm", "cudnn-best", "cuda-convnet", "opt")
NETWORKS = ("lenet", "cifar", "alexnet", "zfnet", "vgg")


def build_figure(device) -> FigureTable:
    table = FigureTable(
        "Training mode: fwd+bwd speedup normalized to cuDNN-MM",
        ["network", *SCHEMES, "opt_bwd_share"],
    )
    for name in NETWORKS:
        net = build_network(name)
        results = compare_schemes(net, device, SCHEMES, training=True)
        base = results["cudnn-mm"].total_ms
        opt = results["opt"]
        bwd_share = sum(l.backward_ms for l in opt.layers) / opt.total_ms
        table.add(
            name, *(base / results[s].total_ms for s in SCHEMES), bwd_share
        )
    table.note("backward pass modelled per footnote 1: same structures, ~2x work")
    return table


def test_training_networks(benchmark, device):
    table = benchmark(build_figure, device)
    rows = {r[0]: dict(zip(table.columns[1:], r[1:])) for r in table.rows}
    # Opt remains the fastest scheme under training on every network.
    for name, row in rows.items():
        others = [v for k, v in row.items() if k not in ("opt", "opt_bwd_share")]
        assert row["opt"] >= max(others) * 0.999, name
    # Backward work dominates a training step (roughly 2/3 of the time).
    for name, row in rows.items():
        assert 0.45 < row["opt_bwd_share"] < 0.85, name
    # The forward-mode winners keep their roles.
    assert rows["lenet"]["cuda-convnet"] > rows["lenet"]["cudnn-best"]
    assert rows["vgg"]["cudnn-best"] > rows["vgg"]["cuda-convnet"]


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
