"""Whole-network schemes: the Fig. 14 harness behaviours."""

import pytest

from repro.baselines import SCHEMES, compare_schemes, time_network
from repro.networks import build_network


@pytest.fixture(scope="module")
def nets():
    return {name: build_network(name) for name in ("lenet", "cifar", "alexnet")}


@pytest.fixture(scope="module")
def lenet_results(nets):
    from repro.gpusim import TITAN_BLACK

    return compare_schemes(nets["lenet"], TITAN_BLACK)


class TestSchemeMechanics:
    def test_all_schemes_run(self, lenet_results):
        assert set(lenet_results) == set(SCHEMES)
        for timing in lenet_results.values():
            assert timing.total_ms > 0
            assert len(timing.layers) == 7

    def test_unknown_scheme(self, nets, device):
        with pytest.raises(ValueError):
            time_network(nets["lenet"], device, "tensorrt")

    def test_layer_lookup(self, lenet_results):
        timing = lenet_results["opt"]
        assert timing.layer("conv1").kind == "conv"
        with pytest.raises(KeyError):
            timing.layer("nope")

    def test_speedup_over(self, lenet_results):
        opt, mm = lenet_results["opt"], lenet_results["cudnn-mm"]
        assert opt.speedup_over(mm) == pytest.approx(mm.total_ms / opt.total_ms)

    def test_layout_conventions(self, lenet_results):
        assert all(
            l.layout == "CHWN"
            for l in lenet_results["cuda-convnet"].layers
            if l.kind in ("conv", "pool")
        )
        assert all(
            l.layout == "NCHW"
            for l in lenet_results["caffe"].layers
            if l.kind in ("conv", "pool")
        )

    def test_fft_scheme_falls_back_on_strided_convs(self, device):
        net = build_network("zfnet")
        timing = time_network(net, device, "cudnn-fft")
        conv1 = timing.layer("conv1")  # stride 2: FFT unsupported
        assert conv1.implementation == "im2col"
        conv3 = timing.layer("conv3")  # stride 1: FFT available
        assert conv3.implementation == "fft"


class TestPaperFig14:
    def test_opt_is_best_on_every_network(self, device):
        """Fig. 14: 'our optimized framework can achieve the highest
        performance for all these networks'."""
        for name in ("lenet", "cifar", "alexnet", "zfnet", "vgg"):
            net = build_network(name)
            results = compare_schemes(net, device)
            opt = results["opt"].total_ms
            for scheme, timing in results.items():
                assert opt <= timing.total_ms * 1.001, f"{name}: opt slower than {scheme}"

    def test_cudnn_best_cherry_picks(self, lenet_results):
        assert (
            lenet_results["cudnn-best"].total_ms
            <= min(
                lenet_results["cudnn-mm"].total_ms,
                lenet_results["cudnn-fft"].total_ms,
                lenet_results["cudnn-fft-t"].total_ms,
            )
            * 1.001
        )

    def test_small_networks_favor_convnet_over_cudnn(self, lenet_results):
        """Fig. 14: 'for LeNet and Cifar, the performance of cuDNN is much
        worse than cuda-convnet'."""
        assert (
            lenet_results["cuda-convnet"].total_ms
            < lenet_results["cudnn-best"].total_ms
        )

    def test_big_networks_favor_cudnn_over_convnet(self, device):
        """Fig. 14: 'cuda-convnet is significantly under-performed compared
        to cuDNN for ... ZFNet and VGG'."""
        for name in ("zfnet", "vgg"):
            net = build_network(name)
            results = compare_schemes(net, device, ("cuda-convnet", "cudnn-best"))
            assert (
                results["cudnn-best"].total_ms < results["cuda-convnet"].total_ms
            ), name

    def test_lenet_opt_speedup_magnitude(self, lenet_results):
        """Paper: LeNet Opt = 5.61x over cuDNN-MM (we accept 2.5x-8x)."""
        ratio = lenet_results["opt"].speedup_over(lenet_results["cudnn-mm"])
        assert 2.5 < ratio < 8

    def test_alexnet_opt_speedup_magnitude(self, nets, device):
        """Paper: AlexNet Opt = 2.02x over cuDNN-MM (we accept 1.4x-3x)."""
        results = compare_schemes(nets["alexnet"], device, ("cudnn-mm", "opt"))
        ratio = results["opt"].speedup_over(results["cudnn-mm"])
        assert 1.4 < ratio < 3.0

    def test_opt_transforms_only_on_mixed_plans(self, nets, device):
        lenet_opt = time_network(nets["lenet"], device, "opt")
        assert sum(l.transform_ms for l in lenet_opt.layers) == 0.0
        alex_opt = time_network(nets["alexnet"], device, "opt")
        assert sum(l.transform_ms for l in alex_opt.layers) > 0.0


class TestTitanXTrends:
    def test_opt_still_best_on_maxwell(self, titan_x):
        """Section VI.C: 'our test on the NVIDIA Titan X shows the very
        similar trends'."""
        for name in ("lenet", "vgg"):
            net = build_network(name)
            results = compare_schemes(net, titan_x)
            opt = results["opt"].total_ms
            for scheme, timing in results.items():
                assert opt <= timing.total_ms * 1.001, f"{name}/{scheme}"
