"""Scaling laws of the transformation kernel models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import TITAN_BLACK, default_context
from repro.tensors import (
    CHWN,
    NCHW,
    TensorDesc,
    TiledTransformKernel,
    VectorTransformKernel,
    transform_time_ms,
)

aligned_dims = st.tuples(
    st.sampled_from([64, 128]),
    st.sampled_from([16, 32, 64]),
    st.sampled_from([8, 16, 32]),
    st.sampled_from([8, 16, 32]),
)


class TestScalingLaws:
    @given(dims=aligned_dims)
    @settings(max_examples=20, deadline=None)
    def test_traffic_is_linear_in_tensor_size(self, dims):
        """For tile-aligned shapes, doubling the batch doubles the moved
        bytes and transactions exactly."""
        n, c, h, w = dims
        small = TiledTransformKernel(TensorDesc(n, c, h, w, CHWN), NCHW)
        big = TiledTransformKernel(TensorDesc(2 * n, c, h, w, CHWN), NCHW)
        p_small = small.memory_profile(TITAN_BLACK)
        p_big = big.memory_profile(TITAN_BLACK)
        assert p_big.load_bytes == pytest.approx(2 * p_small.load_bytes)
        assert p_big.load_transactions == pytest.approx(
            2 * p_small.load_transactions
        )

    @given(dims=aligned_dims)
    @settings(max_examples=15, deadline=None)
    def test_large_tensors_amortize_launch_overhead(self, dims):
        """Effective bandwidth is non-decreasing in tensor size (the launch
        overhead amortizes; nothing else degrades)."""
        n, c, h, w = dims
        bw = []
        for scale in (1, 4):
            desc = TensorDesc(n, c * scale, h, w, CHWN)
            stats = default_context(TITAN_BLACK).run(TiledTransformKernel(desc, NCHW))
            bw.append(2 * desc.nbytes / (stats.time_ms * 1e6))
        assert bw[1] >= bw[0] * 0.99

    @given(dims=aligned_dims)
    @settings(max_examples=15, deadline=None)
    def test_vectorized_never_slower_on_aligned_shapes(self, dims):
        n, c, h, w = dims
        desc = TensorDesc(n, c, h, w, CHWN)
        t1 = default_context(TITAN_BLACK).run(TiledTransformKernel(desc, NCHW)).time_ms
        t2 = default_context(TITAN_BLACK).run(VectorTransformKernel(desc, NCHW)).time_ms
        assert t2 <= t1 * 1.001

    @given(dims=aligned_dims)
    @settings(max_examples=15, deadline=None)
    def test_round_trip_costs_twice_one_way(self, dims):
        """CHWN -> NCHW -> CHWN costs two transforms of the same tensor."""
        n, c, h, w = dims
        there = transform_time_ms(
            TITAN_BLACK, TensorDesc(n, c, h, w, CHWN), NCHW
        )
        back = transform_time_ms(
            TITAN_BLACK, TensorDesc(n, c, h, w, NCHW), CHWN
        )
        assert back == pytest.approx(there, rel=0.25)
