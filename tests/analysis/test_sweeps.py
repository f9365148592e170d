"""Sensitivity-analysis toolkit."""

from dataclasses import replace

import pytest

from repro.analysis import crossovers, sweep_conv, sweep_pool, sweep_softmax
from repro.cli import main
from repro.gpusim import SimulationContext
from repro.layers import (
    POOL_IMPLEMENTATIONS,
    SOFTMAX_IMPLEMENTATIONS,
    PoolSpec,
    SoftmaxSpec,
    make_conv_kernel,
    make_pool_kernel,
    make_softmax_kernel,
)
from repro.networks import CLASS_LAYERS, CONV_LAYERS, FIG13_SOFTMAX, POOL_LAYERS


class TestConvSweeps:
    def test_fig4a_as_a_sweep(self, device):
        """The paper's Fig. 4a is one call: sweep N on CONV7."""
        result = sweep_conv(
            device, CONV_LAYERS["CV7"], "n", (16, 32, 64, 128, 256)
        )
        assert result.winner(32) == "im2col"
        assert result.winner(256) == "direct"
        xs = crossovers(result)
        assert len(xs) == 1
        assert xs[0][0] == 128  # first value where direct wins

    def test_fig4b_as_a_sweep(self, device):
        result = sweep_conv(
            device, CONV_LAYERS["CV7"], "ci", (16, 32, 64, 128, 256)
        )
        assert result.winner(16) == "direct"
        assert result.winner(256) == "im2col"

    def test_unsupported_implementations_become_none(self, device):
        result = sweep_conv(
            device, CONV_LAYERS["CV6"], "n", (32, 64), implementations=("fft",)
        )
        # CV6 is stride-2: FFT cannot run at any batch size.
        assert all(p.time_ms is None for p in result.points)
        with pytest.raises(ValueError):
            result.winner(32)
        # values where nothing runs have no winner and no crossover
        assert result.winners() == []
        assert crossovers(result) == []

    def test_cli_sweep_with_an_unrunnable_value(self, capsys):
        argv = [
            "sweep", "--layer", "CV3", "--dim", "h", "--values", "2,13,224",
            "--impls", "direct,im2col,im2col-nhwc,fft,fft-tiled,winograd",
        ]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].split()[0] == "h"
        assert rows[1].split() == ["2"] + ["n/a"] * 6 + ["-"]
        assert [row.split()[0] for row in rows[2:4]] == ["13", "224"]

    def test_kernel_too_big_for_the_card_is_a_failed_point(self, device):
        """CV7's FFT at n = 2048 needs 10.63 GiB of workspace: on the 6 GiB
        Titan Black that point cannot run, even when the context has timed
        the kernel before."""
        ctx = SimulationContext(device)
        ctx.run(make_conv_kernel(replace(CONV_LAYERS["CV7"], n=2048), "fft"))
        result = sweep_conv(
            device, CONV_LAYERS["CV7"], "n", (128, 2048),
            implementations=("im2col", "fft"), context=ctx,
        )
        assert result.time(2048, "fft") is None
        assert result.time(128, "fft") is not None
        assert result.winner(2048) == "im2col"

    def test_spatial_sweep_keeps_square_shapes(self, device):
        result = sweep_conv(
            device, CONV_LAYERS["CV7"], "h", (13, 27), implementations=("im2col",)
        )
        # doubling both spatial extents roughly quadruples the time
        t_small = result.time(13, "im2col")
        t_big = result.time(27, "im2col")
        assert 2.5 < t_big / t_small < 8

    def test_unknown_dimension(self, device):
        with pytest.raises(ValueError, match="dimension"):
            sweep_conv(device, CONV_LAYERS["CV7"], "depth", (1, 2))


class TestPoolAndSoftmaxSweeps:
    def test_pool_and_softmax_kernels_need_no_workspace(self):
        """Why a sweep may fit-check every kind: no pooling or softmax
        kernel allocates a workspace, so none can fail the check."""
        kernels = [
            make_pool_kernel(spec, impl)
            for spec in POOL_LAYERS.values()
            for impl in POOL_IMPLEMENTATIONS
        ] + [
            make_softmax_kernel(spec, impl)
            for spec in (*FIG13_SOFTMAX.values(), *CLASS_LAYERS.values())
            for impl in SOFTMAX_IMPLEMENTATIONS
        ]
        assert {k.workspace_bytes() for k in kernels} == {0}

    def test_chwn_wins_pooling_at_every_channel_count(self, device):
        base = PoolSpec(n=128, c=32, h=27, w=27, window=3, stride=2)
        result = sweep_pool(device, base, "c", (16, 64, 256))
        assert all(w == "chwn" for _, w in result.winners())

    def test_softmax_opt_gap_grows_with_categories(self, device):
        base = SoftmaxSpec(n=128, categories=10)
        result = sweep_softmax(device, base, "categories", (10, 100, 1000, 10000))
        gaps = [
            result.time(v, "cudnn") / result.time(v, "opt")
            for v in (100, 1000, 10000)
        ]
        assert gaps == sorted(gaps)

    def test_time_lookup_raises_for_missing_point(self, device):
        base = SoftmaxSpec(n=32, categories=10)
        result = sweep_softmax(device, base, "n", (32,))
        with pytest.raises(KeyError):
            result.time(64, "opt")


class TestThroughputMetric:
    def test_images_per_second(self, device):
        from repro.baselines import time_network
        from repro.networks import build_network

        net = build_network("lenet")
        timing = time_network(net, device, "opt")
        assert timing.batch == 128
        assert timing.images_per_second == pytest.approx(
            128 / (timing.total_ms * 1e-3)
        )
