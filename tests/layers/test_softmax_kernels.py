"""Softmax kernel models: Fig. 13 bandwidths, fusion/parallelism ablation."""

import pytest

from repro.gpusim import default_context
from repro.layers import (
    CudnnSoftmax,
    FusedParallelSoftmax,
    FusedSoftmax,
    SoftmaxSpec,
    five_kernel_softmax,
    make_softmax_kernel,
)
from repro.networks import FIG13_SOFTMAX


def effective_bw(spec, stats):
    """Useful bytes (read once + write once) over time."""
    return 2 * spec.nbytes / (stats.time_ms * 1e6)


class TestFiveKernelBaseline:
    def test_five_launches(self, device):
        stats = default_context(device).run(five_kernel_softmax(SoftmaxSpec(128, 1000)))
        assert stats.n_launches == 5

    def test_intermediates_roundtrip_memory(self, device):
        spec = SoftmaxSpec(128, 1000)
        base = five_kernel_softmax(spec).memory_profile(device)
        fused = FusedSoftmax(spec).memory_profile(device)
        assert base.useful_bytes > 3 * fused.useful_bytes

    def test_latency_bound_with_128_threads(self, device):
        """Paper: 'the number of threads for the kernel is only 128' —
        latency cannot be hidden."""
        stats = default_context(device).run(five_kernel_softmax(SoftmaxSpec(128, 10000)))
        assert effective_bw(SoftmaxSpec(128, 10000), stats) < 10


class TestCudnnBaseline:
    def test_bl_best_bandwidth_zone(self, device):
        """Fig. 13: the best baseline (cuDNN) peaks at ~58 GB/s."""
        best = max(
            effective_bw(spec, default_context(device).run(CudnnSoftmax(spec)))
            for spec in FIG13_SOFTMAX.values()
        )
        assert 25 < best < 90

    def test_cudnn_beats_five_kernel(self, device):
        spec = SoftmaxSpec(128, 1000)
        assert (
            default_context(device).run(CudnnSoftmax(spec)).time_ms
            < default_context(device).run(five_kernel_softmax(spec)).time_ms
        )


class TestOptimizedKernel:
    def test_single_launch(self, device):
        stats = default_context(device).run(FusedParallelSoftmax(SoftmaxSpec(128, 1000)))
        assert stats.n_launches == 1

    def test_large_config_approaches_peak(self, device):
        """Paper: at 10000 categories 'the bandwidth achieved in Opt can
        reach 220.95 GB/s, 94.02% of the effective GPU memory bandwidth'."""
        spec = SoftmaxSpec(128, 10000)
        bw = effective_bw(spec, default_context(device).run(FusedParallelSoftmax(spec)))
        assert bw > 0.75 * device.mem_bandwidth_gbs

    def test_small_configs_underutilize(self, device):
        """Paper: 'for small layer sizes, the bandwidth cannot be well
        utilized'."""
        spec = SoftmaxSpec(32, 10)
        bw = effective_bw(spec, default_context(device).run(FusedParallelSoftmax(spec)))
        assert bw < 30

    @pytest.mark.parametrize("key", sorted(FIG13_SOFTMAX))
    def test_opt_beats_every_baseline_everywhere(self, device, key):
        spec = FIG13_SOFTMAX[key]
        t_opt = default_context(device).run(FusedParallelSoftmax(spec)).time_ms
        t_cudnn = default_context(device).run(CudnnSoftmax(spec)).time_ms
        t_5k = default_context(device).run(five_kernel_softmax(spec)).time_ms
        assert t_opt <= t_cudnn * 1.001
        assert t_opt < t_5k


class TestAblation:
    def test_fusion_alone_helps(self, device):
        """Paper: fusion contributes 'an average of 2.81x speedup'."""
        ratios = []
        for spec in FIG13_SOFTMAX.values():
            base = default_context(device).run(five_kernel_softmax(spec)).time_ms
            fused = default_context(device).run(FusedSoftmax(spec)).time_ms
            ratios.append(base / fused)
        geomean = 1.0
        for r in ratios:
            geomean *= r
        geomean **= 1 / len(ratios)
        assert 1.5 < geomean < 8

    def test_parallelism_helps_on_top_of_fusion(self, device):
        """Paper: 'more threads ... further bring an average speedup of
        5.13x'."""
        ratios = []
        for spec in FIG13_SOFTMAX.values():
            fused = default_context(device).run(FusedSoftmax(spec)).time_ms
            parallel = default_context(device).run(FusedParallelSoftmax(spec)).time_ms
            ratios.append(fused / parallel)
        assert all(r >= 1.0 for r in ratios)
        assert max(r for r in ratios) > 3


class TestFactory:
    @pytest.mark.parametrize("impl", ["5kernel", "cudnn", "fused", "opt"])
    def test_dispatch(self, impl, device):
        k = make_softmax_kernel(SoftmaxSpec(64, 100), impl)
        assert default_context(device).run(k).time_ms > 0

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_softmax_kernel(SoftmaxSpec(64, 100), "warp-shuffle")
