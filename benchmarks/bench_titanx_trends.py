"""Section VI.C — Titan X (Maxwell) trend check.

Paper: "our test on the NVIDIA Titan X shows the very similar trends. For
example, compared to cuda-convnet, Caffe and cuDNN, our proposed
optimizations achieve 1.04x, 24.5x and 11.84x speedup for the small network
of MNIST; 5.11x, 1.77x and 1.05x speedup for a large network of VGG Net."
"""

from __future__ import annotations

from figutil import FigureTable

from repro.baselines import compare_schemes
from repro.networks import build_network

COMPARED = ("cuda-convnet", "caffe", "cudnn-best", "opt")


def build_figure(device) -> FigureTable:
    table = FigureTable(
        f"Section VI.C: Opt speedup over each library on {device.name}",
        ["network", "vs_convnet", "vs_caffe", "vs_cudnn"],
    )
    for name in ("lenet", "vgg"):
        net = build_network(name)
        results = compare_schemes(net, device, COMPARED)
        opt = results["opt"]
        table.add(
            name,
            opt.speedup_over(results["cuda-convnet"]),
            opt.speedup_over(results["caffe"]),
            opt.speedup_over(results["cudnn-best"]),
        )
    table.note("paper (Titan X): MNIST 1.04x/24.5x/11.84x; VGG 5.11x/1.77x/1.05x")
    return table


def test_titanx_trends(benchmark, titan_x):
    table = benchmark(build_figure, titan_x)
    lenet = dict(zip(table.columns[1:], table.row("lenet")[1:]))
    vgg = dict(zip(table.columns[1:], table.row("vgg")[1:]))
    # MNIST: Opt barely beats cuda-convnet but crushes the NCHW libraries.
    assert 1.0 <= lenet["vs_convnet"] < 2.0
    assert lenet["vs_caffe"] > 2.0
    assert lenet["vs_cudnn"] > 2.0
    # VGG: Opt clearly ahead of cuda-convnet, close to cuDNN-best.
    assert vgg["vs_convnet"] > 1.4
    assert 1.0 <= vgg["vs_cudnn"] < 2.0


def test_trends_match_titan_black_directionally(device, titan_x):
    """Same winners on both GPUs (the paper's 'very similar trends')."""
    for name in ("lenet", "vgg"):
        net = build_network(name)
        for dev in (device, titan_x):
            results = compare_schemes(net, dev, COMPARED)
            opt = results["opt"].total_ms
            assert all(
                opt <= results[s].total_ms * 1.001 for s in COMPARED
            ), f"{name}/{dev.name}"


if __name__ == "__main__":
    from repro.gpusim import TITAN_X

    build_figure(TITAN_X).show()
