"""Trace utilities: warp grouping, sampling, stride formula cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    TITAN_BLACK,
    SetAssociativeCache,
    analyze_warps,
    sample_indices,
    strided_pattern,
    transaction_stream,
    warp_transactions,
    warps_from_threads,
)


class TestWarpsFromThreads:
    def test_1d_grouping(self):
        addrs = np.arange(64, dtype=np.int64) * 4
        warps = warps_from_threads(addrs)
        assert warps.shape == (2, 32)
        assert warps[1, 0] == 32 * 4

    def test_1d_padding(self):
        warps = warps_from_threads(np.arange(40, dtype=np.int64))
        assert warps.shape == (2, 32)
        assert (warps[1, 8:] == -1).all()

    def test_2d_per_thread_sequences(self):
        # 32 threads each doing 3 accesses -> 3 warp instructions.
        addrs = np.arange(32, dtype=np.int64)[:, None] * 4 + np.array([0, 400, 800])
        warps = warps_from_threads(addrs)
        assert warps.shape == (3, 32)
        assert (warps[0] == np.arange(32) * 4).all()
        assert (warps[1] == np.arange(32) * 4 + 400).all()

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            warps_from_threads(np.zeros((2, 2, 2), dtype=np.int64))


class TestSampling:
    def test_small_total_returns_all(self):
        assert (sample_indices(5, 10) == np.arange(5)).all()

    def test_large_total_spans_range(self):
        idx = sample_indices(10_000, 16)
        assert len(idx) == 16
        assert idx[0] == 0
        assert idx[-1] > 9000

    def test_deterministic(self):
        assert (sample_indices(1000, 7) == sample_indices(1000, 7)).all()

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            sample_indices(0, 4)


class TestStrideFormula:
    @given(
        lanes=st.integers(1, 32),
        stride_floats=st.integers(1, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_traced_coalescing(self, lanes, stride_floats):
        """Closed form for aligned 4-byte accesses at a constant stride:
        below one segment the warp walks every segment it spans, from one
        segment up it touches one segment per lane."""
        stride = stride_floats * 4
        segment = TITAN_BLACK.transaction_bytes
        expected = lanes if stride >= segment else (lanes - 1) * stride // segment + 1
        lanes_idx = np.arange(32, dtype=np.int64)
        idx = np.where(lanes_idx < lanes, lanes_idx * stride_floats, -1)[None, :]
        assert warp_transactions(idx, TITAN_BLACK)[0] == expected


def _l2_hit_rate(trace, device):
    stream = transaction_stream(trace, device.transaction_bytes)
    return float(SetAssociativeCache.l2_for(device).access_stream(stream).mean())


class TestAnalyzeTrace:
    def test_no_l2_reuse_for_disjoint_warps(self, device):
        indices = strided_pattern(32, 1, device)
        assert _l2_hit_rate(indices * 4, device) == 0.0
        assert analyze_warps(indices, device).efficiency == pytest.approx(1.0)

    def test_repeat_warps_hit_l2(self, device):
        one = strided_pattern(1, 1, device) * 4
        trace = np.concatenate([one, one, one], axis=0)
        assert _l2_hit_rate(trace, device) == pytest.approx(2 / 3)


class TestPaddedTraces:
    """``warps_from_threads`` pads inactive lanes with -1, and the L2
    rejects negative addresses — the shared ``transaction_stream`` helper
    must strip the padding in between."""

    def test_padded_warps_flow_into_cache(self):
        addrs = np.arange(0, 100 * 4, 4, dtype=np.int64)  # 100 threads
        warps = warps_from_threads(addrs)
        assert (warps == -1).any()  # tail-padded to a full warp
        stream = transaction_stream(warps, 32)
        assert (stream >= 0).all()
        cache = SetAssociativeCache(1024, 32, 2)
        hits = cache.access_stream(stream)  # must not raise
        assert hits.size == stream.size

    def test_all_padding_warp_contributes_nothing(self):
        warps = np.full((3, 32), -1, dtype=np.int64)
        assert transaction_stream(warps, 32).size == 0

    def test_negative_still_rejected_at_the_cache(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 32, 2).access_stream(np.array([-1]))


class TestTransactionStream:
    def test_per_warp_unique_ascending_segments(self):
        warps = np.array([[0, 4, 8, 64], [96, 96, 32, -1]])
        out = transaction_stream(warps, 32)
        assert out.tolist() == [0, 64, 32, 96]

    def test_one_dimensional_input_is_one_warp(self):
        out = transaction_stream(np.array([40, 0, 8]), 32)
        assert out.tolist() == [0, 32]

    def test_empty_input(self):
        assert transaction_stream(np.empty((0, 32), dtype=np.int64), 32).size == 0

    def test_invalid_segment_bytes(self):
        with pytest.raises(ValueError):
            transaction_stream(np.array([0]), 0)
