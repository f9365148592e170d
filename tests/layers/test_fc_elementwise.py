"""FC, GEMM shape law, ReLU, LRN."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import TITAN_BLACK, default_context
from repro.layers import (
    ElementwiseKernel,
    FCSpec,
    GemmKernel,
    LRNSpec,
    fc_forward,
    flatten_4d,
    gemm_shape_efficiency,
    lrn_forward,
    make_fc_kernel,
    make_fc_weights,
    make_lrn_kernel,
    make_relu_kernel,
    relu_forward,
)


class TestFC:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 10)).astype(np.float32)
        w = rng.standard_normal((10, 6)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        np.testing.assert_allclose(fc_forward(x, w, b), x @ w + b, rtol=1e-5)

    def test_without_bias(self):
        x = np.eye(3, dtype=np.float32)
        w = np.arange(9, dtype=np.float32).reshape(3, 3)
        np.testing.assert_array_equal(fc_forward(x, w), w)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            fc_forward(np.zeros((2, 3), dtype=np.float32), np.zeros((4, 5), dtype=np.float32))
        with pytest.raises(ValueError):
            fc_forward(
                np.zeros((2, 3), dtype=np.float32),
                np.zeros((3, 5), dtype=np.float32),
                bias=np.zeros(4, dtype=np.float32),
            )

    def test_flatten(self):
        x = np.arange(24).reshape(2, 3, 2, 2)
        flat = flatten_4d(x)
        assert flat.shape == (2, 12)
        np.testing.assert_array_equal(flat[0], np.arange(12))
        with pytest.raises(ValueError):
            flatten_4d(np.zeros((2, 3)))

    def test_seeded_weights(self):
        spec = FCSpec(n=4, in_features=10, out_features=6)
        w1, b1 = make_fc_weights(spec, seed=5)
        w2, b2 = make_fc_weights(spec, seed=5)
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert w1.shape == (10, 6) and b1.shape == (6,)

    def test_kernel_model(self, device):
        spec = FCSpec(n=128, in_features=9216, out_features=4096)
        stats = default_context(device).run(make_fc_kernel(spec))
        assert stats.flops == spec.flops
        assert stats.time_ms > 0


class TestGemmShapeLaw:
    def test_small_k_collapses(self, device):
        """The quantitative core of the paper's small-C argument."""
        small = gemm_shape_efficiency(device, 256, 10000, 27)
        big = gemm_shape_efficiency(device, 256, 10000, 2304)
        assert big > 3 * small

    def test_floor_applies(self, device):
        tiny = gemm_shape_efficiency(device, 256, 10000, 1)
        assert tiny >= device.arch.gemm_peak_eff * device.arch.gemm_k_floor * 0.5

    @given(
        m=st.integers(1, 4096),
        n=st.integers(1, 4096),
        k=st.integers(1, 4096),
    )
    @settings(max_examples=40, deadline=None)
    def test_efficiency_bounded(self, m, n, k):
        eff = gemm_shape_efficiency(TITAN_BLACK, m, n, k)
        assert 0 < eff <= TITAN_BLACK.arch.gemm_peak_eff

    def test_monotone_in_each_dim(self, device):
        base = gemm_shape_efficiency(device, 64, 1024, 256)
        assert gemm_shape_efficiency(device, 128, 1024, 256) >= base
        assert gemm_shape_efficiency(device, 64, 2048, 256) >= base
        assert gemm_shape_efficiency(device, 64, 1024, 512) >= base

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            GemmKernel(0, 10, 10)

    def test_gemm_traffic_scales_with_tiles(self, device):
        small = GemmKernel(64, 64, 64).memory_profile(device)
        wide = GemmKernel(64, 6400, 64).memory_profile(device)
        assert wide.load_bytes > 50 * small.load_bytes


class TestReLU:
    def test_values(self):
        x = np.array([-2.0, 0.0, 3.5], dtype=np.float32)
        np.testing.assert_array_equal(relu_forward(x), [0.0, 0.0, 3.5])

    def test_kernel(self, device):
        stats = default_context(device).run(make_relu_kernel(1_000_000))
        assert stats.useful_bytes == pytest.approx(8_000_000)


class TestLRN:
    def test_identity_when_alpha_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 8, 4, 4)).astype(np.float32)
        spec = LRNSpec(alpha=0.0, beta=0.75, k=1.0)
        np.testing.assert_allclose(lrn_forward(x, spec), x, rtol=1e-5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 6, 2, 2)).astype(np.float32)
        spec = LRNSpec(depth=5, alpha=1e-2, beta=0.5, k=2.0)
        out = lrn_forward(x, spec)
        # check one element by hand: channel 2 window covers channels 0..4
        c, h, w = 2, 0, 1
        window = x[0, 0:5, h, w].astype(np.float64)
        scale = spec.k + spec.alpha / spec.depth * (window**2).sum()
        assert out[0, c, h, w] == pytest.approx(
            x[0, c, h, w] / scale**spec.beta, rel=1e-5
        )

    def test_edge_channels_use_partial_window(self):
        x = np.ones((1, 3, 1, 1), dtype=np.float32)
        spec = LRNSpec(depth=5, alpha=1.0, beta=1.0, k=1.0)
        out = lrn_forward(x, spec)
        # channel 0 window covers channels 0..2 (3 valid of 5)
        assert out[0, 0, 0, 0] == pytest.approx(1.0 / (1.0 + 3 / 5), rel=1e-5)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            LRNSpec(depth=4)

    def test_requires_4d(self):
        with pytest.raises(ValueError):
            lrn_forward(np.zeros((2, 3)))

    def test_kernel_reads_window(self, device):
        k = make_lrn_kernel(1000, LRNSpec(depth=5))
        p = k.memory_profile(device)
        assert p.load_bytes == pytest.approx(5 * 4000)
        assert p.l2_hit_rate > 0.5


class TestElementwiseKernel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ElementwiseKernel(0)
