"""The im2col + tiled-GEMM pipeline, executed with explicit blocking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layers import ConvSpec, conv_im2col, make_filters
from tests.oracles.im2col_emulation import (
    conv_im2col_emulated,
    expected_tile_loads,
    tiled_gemm_emulated,
)


class TestTiledGemm:
    @given(
        m=st.integers(1, 100),
        n=st.integers(1, 100),
        k=st.integers(1, 100),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy_matmul(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        c, loads = tiled_gemm_emulated(a, b, tile=32)
        np.testing.assert_allclose(c, a @ b, rtol=1e-4, atol=1e-4)
        assert loads == expected_tile_loads(m, n, k, tile=32)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            tiled_gemm_emulated(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_tile_loads_match_traffic_model(self, device):
        """The emulation's staged-tile count equals the GemmKernel traffic
        formula (each operand re-read once per tile of the other)."""
        from repro.layers import GemmKernel

        m, n, k = 100, 200, 150
        kernel = GemmKernel(m, n, k)
        profile = kernel.memory_profile(device)
        import math

        expected_bytes = 4 * (
            m * k * math.ceil(n / kernel.tile) + k * n * math.ceil(m / kernel.tile)
        )
        assert profile.load_bytes == pytest.approx(expected_bytes)


conv_specs = st.builds(
    ConvSpec,
    n=st.integers(1, 4),
    ci=st.integers(1, 4),
    h=st.integers(5, 10),
    w=st.integers(5, 10),
    co=st.integers(1, 5),
    fh=st.sampled_from([3, 5]),
    fw=st.sampled_from([3, 5]),
    stride=st.integers(1, 2),
    pad=st.integers(0, 1),
).filter(lambda s: s.fh <= s.h + 2 * s.pad and s.fw <= s.w + 2 * s.pad)


class TestPipeline:
    @given(spec=conv_specs, seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, spec, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((spec.n, spec.ci, spec.h, spec.w)).astype(np.float32)
        w = make_filters(spec, seed=seed + 1)
        out, counters = conv_im2col_emulated(x, w, spec, tile=32)
        np.testing.assert_allclose(
            out, conv_im2col(x, w, spec), rtol=1e-3, atol=1e-4
        )
        assert counters["unroll_elements"] == spec.n * spec.taps * spec.out_h * spec.out_w

    def test_counters_match_model(self):
        spec = ConvSpec(n=2, ci=3, h=8, w=8, co=4, fh=3, fw=3, pad=1)
        x = np.zeros((2, 3, 8, 8), np.float32)
        _, counters = conv_im2col_emulated(x, make_filters(spec), spec, tile=32)
        m, n, k = counters["gemm_shape"]
        assert (m, n, k) == (4, 2 * 64, 27)
        assert counters["gemm_tile_loads"] == expected_tile_loads(m, n, k, 32)

    def test_groups_unsupported(self):
        spec = ConvSpec(n=1, ci=4, h=6, w=6, co=4, fh=3, fw=3, groups=2)
        with pytest.raises(ValueError, match="group"):
            conv_im2col_emulated(
                np.zeros((1, 4, 6, 6), np.float32), make_filters(spec), spec
            )
