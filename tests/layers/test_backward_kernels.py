"""Backward kernel models and the training-mode network timing."""

import pytest

from repro.baselines import compare_schemes, time_network
from repro.gpusim import default_context
from repro.layers import FCSpec, SoftmaxSpec, make_conv_kernel
from repro.layers.backward_kernels import (
    ScaledKernel,
    TRAINING_TRANSFORM_FACTOR,
    conv_backward_kernels,
    fc_backward_kernels,
    pool_backward_kernel,
    softmax_backward_kernel,
)
from repro.networks import CONV_LAYERS, POOL_LAYERS, build_network


class TestScaledKernel:
    def test_scales_apply(self, device):
        base = make_conv_kernel(CONV_LAYERS["CV7"], "direct")
        scaled = ScaledKernel(base, "x2", flop_scale=2.0, mem_scale=3.0)
        assert scaled.flop_count() == 2 * base.flop_count()
        assert (
            scaled.memory_profile(device).load_bytes
            == 3 * base.memory_profile(device).load_bytes
        )

    def test_efficiency_capped_at_one(self, device):
        base = make_conv_kernel(CONV_LAYERS["CV7"], "direct")
        scaled = ScaledKernel(base, "boost", eff_scale=100.0)
        assert scaled.alu_efficiency(device) == 1.0

    def test_validation(self):
        base = make_conv_kernel(CONV_LAYERS["CV7"], "direct")
        with pytest.raises(ValueError):
            ScaledKernel(base, "bad", flop_scale=0.0)


class TestBackwardKernels:
    def test_conv_backward_is_two_kernels_of_forward_size(self, device):
        spec = CONV_LAYERS["CV7"]
        kernels = conv_backward_kernels(spec, "im2col")
        assert len(kernels) == 2
        fwd = default_context(device).run(make_conv_kernel(spec, "im2col")).time_ms
        bwd = sum(default_context(device).run(k).time_ms for k in kernels)
        assert 1.5 * fwd < bwd < 4 * fwd

    def test_conv_backward_layout_preference_is_preserved(self, device):
        """Footnote 1: layout decisions carry over to the backward pass."""
        ctx = default_context(device)
        for name, impls in (("CV1", ("direct", "im2col")), ("CV11", ("direct", "im2col"))):
            spec = CONV_LAYERS[name]
            times = {
                impl: sum(
                    ctx.run(k, check_memory=False).time_ms
                    for k in conv_backward_kernels(spec, impl)
                )
                for impl in impls
            }
            fwd_winner = min(
                impls,
                key=lambda i: ctx.run(
                    make_conv_kernel(spec, i), check_memory=False
                ).time_ms,
            )
            bwd_winner = min(impls, key=lambda i: times[i])
            assert fwd_winner == bwd_winner, name

    def test_pool_backward_costs_more_than_forward(self, device):
        spec = POOL_LAYERS["PL5"]
        from repro.layers import make_pool_kernel

        fwd = default_context(device).run(make_pool_kernel(spec, "chwn")).time_ms
        bwd = default_context(device).run(pool_backward_kernel(spec, "chwn")).time_ms
        assert fwd < bwd < 3 * fwd

    def test_fc_backward_is_two_gemms(self, device):
        kernels = fc_backward_kernels(FCSpec(n=128, in_features=9216, out_features=4096))
        assert len(kernels) == 2
        assert all(default_context(device).run(k).time_ms > 0 for k in kernels)

    def test_softmax_backward_single_pass(self, device):
        k = softmax_backward_kernel(SoftmaxSpec(128, 1000), "opt")
        assert default_context(device).run(k).n_launches == 1


class TestTrainingMode:
    @pytest.fixture(scope="class")
    def lenet(self):
        return build_network("lenet")

    def test_training_costs_2x_to_4x_forward(self, device, lenet):
        fwd = time_network(lenet, device, "opt").total_ms
        trn = time_network(lenet, device, "opt", training=True).total_ms
        assert 2.0 < trn / fwd < 4.5

    def test_backward_ms_zero_in_inference(self, device, lenet):
        fwd = time_network(lenet, device, "cudnn-mm")
        assert all(l.backward_ms == 0.0 for l in fwd.layers)

    def test_backward_ms_positive_in_training(self, device, lenet):
        trn = time_network(lenet, device, "cudnn-mm", training=True)
        assert all(
            l.backward_ms > 0 for l in trn.layers if l.kind in ("conv", "pool")
        )

    def test_transforms_double_in_training(self, device):
        net = build_network("alexnet")
        fwd = time_network(net, device, "opt")
        trn = time_network(net, device, "opt", training=True)
        fwd_t = sum(l.transform_ms for l in fwd.layers)
        trn_t = sum(l.transform_ms for l in trn.layers)
        assert trn_t == pytest.approx(TRAINING_TRANSFORM_FACTOR * fwd_t)

    def test_opt_still_wins_under_training(self, device, lenet):
        """The paper's optimizations apply to training runs too."""
        results = compare_schemes(
            lenet, device, ("cudnn-mm", "cuda-convnet", "opt"), training=True
        )
        opt = results["opt"].total_ms
        assert opt <= results["cudnn-mm"].total_ms
        assert opt <= results["cuda-convnet"].total_ms
