"""Coalescing unit: transactions per warp for canonical access patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    TITAN_BLACK,
    TITAN_X,
    analyze_warps,
    strided_pattern,
    transaction_stream,
    warp_transactions,
)
from repro.layers import PoolingNCHWBlockPerRow, PoolingNCHWLinear
from repro.networks import POOL_LAYERS
from tests.oracles.pooling_trace import reference_trace


def _oracle_transactions(idx: np.ndarray, segment: int, item_bytes: int) -> list[int]:
    """Per warp: the segments covering every active lane's bytes
    ``[i * item_bytes, (i + 1) * item_bytes)``, counted one lane at a time."""
    counts = []
    for warp in idx.tolist():
        touched: set[int] = set()
        for i in warp:
            if i >= 0:
                first, last = i * item_bytes, (i + 1) * item_bytes - 1
                touched.update(range(first // segment, last // segment + 1))
        counts.append(len(touched))
    return counts


def _first_byte_stream(addr: np.ndarray, segment: int) -> np.ndarray:
    """``transaction_stream`` as first written: sort each warp's first-byte
    segments and keep the distinct ones."""
    segments = np.sort(np.where(addr >= 0, addr // segment, -1), axis=1)
    keep = segments >= 0
    keep[:, 1:] &= segments[:, 1:] != segments[:, :-1]
    return segments[keep] * segment


@st.composite
def _traces(draw):
    """Small warp traces of item indices, with inactive lanes."""
    warps = draw(st.integers(1, 4))
    lanes = draw(st.integers(1, TITAN_BLACK.warp_size))
    lane = st.one_of(st.just(-1), st.integers(0, 300))
    rows = draw(st.lists(st.lists(lane, min_size=lanes, max_size=lanes),
                         min_size=warps, max_size=warps))
    return np.array(rows, dtype=np.int64)


class TestWarpTransactions:
    def test_fully_coalesced_float_is_4_transactions(self, device):
        addr = strided_pattern(1, 1, device)
        assert warp_transactions(addr, device)[0] == 4  # 128 B / 32 B

    def test_stride_two_floats_doubles_transactions(self, device):
        addr = strided_pattern(1, 2, device)
        assert warp_transactions(addr, device)[0] == 8

    def test_large_stride_is_one_transaction_per_lane(self, device):
        addr = strided_pattern(1, 1024, device)
        assert warp_transactions(addr, device)[0] == 32

    def test_broadcast_is_single_transaction(self, device):
        addr = np.zeros((1, 32), dtype=np.int64)
        assert warp_transactions(addr, device)[0] == 1

    def test_inactive_lanes_ignored(self, device):
        addr = strided_pattern(1, 1, device)
        addr[0, 16:] = -1
        assert warp_transactions(addr, device)[0] == 2  # 64 B / 32 B

    def test_all_inactive_warp_is_zero(self, device):
        addr = np.full((1, 32), -1, dtype=np.int64)
        assert warp_transactions(addr, device)[0] == 0

    def test_misaligned_coalesced_access_costs_one_extra(self, device):
        addr = strided_pattern(1, 1, device, base=4)  # 16 B into a segment
        assert warp_transactions(addr, device)[0] == 5

    def test_byte_accesses_count_each_segment_once(self, device):
        addr = np.arange(32, dtype=np.int64)[None, :]
        assert warp_transactions(addr, device, item_bytes=1)[0] == 1

    @given(idx=_traces(), item_bytes=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_oracle(self, idx, item_bytes):
        seg = TITAN_BLACK.transaction_bytes
        expected = _oracle_transactions(idx, seg, item_bytes)
        counts = warp_transactions(idx, TITAN_BLACK, item_bytes)
        assert counts.tolist() == expected
        report = analyze_warps(idx, TITAN_BLACK, item_bytes)
        assert report.transactions == sum(expected)
        assert report.useful_bytes == int((idx >= 0).sum()) * item_bytes

    def test_rejects_access_wider_than_a_segment(self, device):
        # ... and any item size that does not divide a segment
        addr = strided_pattern(1, 1, device)
        segment = device.transaction_bytes
        for item_bytes in (0, 3, 12, 24, segment + 1, 2 * segment):
            with pytest.raises(ValueError, match="item_bytes must divide"):
                warp_transactions(addr, device, item_bytes)
            with pytest.raises(ValueError, match="item_bytes must divide"):
                analyze_warps(addr, device, item_bytes)

    def test_rejects_bad_shapes(self, device):
        with pytest.raises(ValueError):
            warp_transactions(np.zeros(32, dtype=np.int64), device)
        with pytest.raises(ValueError):
            warp_transactions(np.zeros((1, 64), dtype=np.int64), device)

    @given(stride=st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_transactions_bounded(self, stride):
        """1 <= transactions <= warp_size for any 4-byte pattern."""
        addr = strided_pattern(4, stride, TITAN_BLACK)
        counts = warp_transactions(addr, TITAN_BLACK)
        assert (counts >= 1).all()
        assert (counts <= TITAN_BLACK.warp_size).all()

    @given(
        perm_seed=st.integers(min_value=0, max_value=2**31 - 1),
        stride=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, perm_seed, stride):
        """Transaction count depends on the address *set*, not lane order."""
        rng = np.random.default_rng(perm_seed)
        addr = strided_pattern(1, stride, TITAN_BLACK)
        shuffled = addr.copy()
        rng.shuffle(shuffled[0])
        assert (
            warp_transactions(addr, TITAN_BLACK)[0]
            == warp_transactions(shuffled, TITAN_BLACK)[0]
        )


class TestAnalyzeWarps:
    def test_report_efficiency_for_coalesced(self, device):
        rep = analyze_warps(strided_pattern(8, 1, device), device)
        assert rep.warps == 8
        assert rep.efficiency == pytest.approx(1.0)
        assert rep.overfetch == pytest.approx(1.0)

    def test_report_overfetch_for_strided(self, device):
        rep = analyze_warps(strided_pattern(8, 8, device), device)
        assert rep.overfetch == pytest.approx(8.0)

    def test_empty_pattern_requires_positive_warps(self, device):
        with pytest.raises(ValueError):
            strided_pattern(0, 1, device)


class TestTransactionStream:
    @pytest.mark.parametrize("kernel_cls", [PoolingNCHWLinear, PoolingNCHWBlockPerRow])
    @pytest.mark.parametrize("device", [TITAN_BLACK, TITAN_X], ids=lambda d: d.name)
    def test_pooling_stream_unchanged(self, kernel_cls, device):
        """On the pooling kernels' reference load traces, as float byte
        addresses, the stream equals the first-byte stream."""
        seg = device.transaction_bytes
        for name, spec in POOL_LAYERS.items():
            indices, _, _ = reference_trace(kernel_cls(spec), device)
            trace = indices * 4  # inactive lanes stay negative
            np.testing.assert_array_equal(
                transaction_stream(trace, seg), _first_byte_stream(trace, seg), name
            )

    @given(addr=_traces())
    @settings(max_examples=100, deadline=None)
    def test_matches_first_byte_stream(self, addr):
        np.testing.assert_array_equal(
            transaction_stream(addr, 32), _first_byte_stream(addr, 32)
        )
