"""Golden equivalence: the vectorized fast path must be bit-exact.

``SetAssociativeCache.access_stream`` (NumPy set-partitioned replay with a
closed-form shortcut and adjacent-duplicate collapse) and
``reference_access_stream`` (the scalar true-LRU loop) must agree on every
observable: per-access hit masks, :class:`CacheStats` including evictions,
and the full internal state (tags, LRU stamps, clock) so that interleaved
multi-call usage stays equivalent forever after.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    TITAN_BLACK,
    TITAN_X,
    SetAssociativeCache,
    transaction_stream,
    warps_from_threads,
)
from repro.gpusim import cache as cache_module


def _state(cache: SetAssociativeCache):
    return (
        cache._tags.copy(),
        cache._stamp.copy(),
        cache._clock,
        (cache.stats.accesses, cache.stats.hits, cache.stats.evictions),
    )


def _assert_same_state(ref: SetAssociativeCache, fast: SetAssociativeCache):
    tr, sr, cr, xr = _state(ref)
    tf, sf, cf, xf = _state(fast)
    np.testing.assert_array_equal(tr, tf, err_msg="tag arrays differ")
    np.testing.assert_array_equal(sr, sf, err_msg="LRU stamps differ")
    assert cr == cf, "clocks differ"
    assert xr == xf, "CacheStats differ"


def _pair(capacity, line, assoc):
    """Two fresh caches: one replayed by the reference, one by the fast path."""
    return (
        SetAssociativeCache(capacity, line, assoc),
        SetAssociativeCache(capacity, line, assoc),
    )


def _check_equivalent(addr, capacity, line, assoc, chunks=()):
    """Replay ``addr`` through both paths (optionally split at ``chunks``)
    and require identical hits and identical final state."""
    ref, fast = _pair(capacity, line, assoc)
    cuts = [0, *sorted(chunks), len(addr)]
    for lo, hi in zip(cuts, cuts[1:]):
        h_ref = ref.reference_access_stream(addr[lo:hi])
        h_fast = fast.access_stream(addr[lo:hi])
        np.testing.assert_array_equal(h_ref, h_fast)
    _assert_same_state(ref, fast)


@st.composite
def geometry_and_trace(draw):
    assoc = draw(st.sampled_from([1, 2, 4, 8, 16]))
    n_sets = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    line = draw(st.sampled_from([16, 32, 64]))
    capacity = line * assoc * n_sets
    n = draw(st.integers(1, 2000))
    kind = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == 0:  # uniform over 8x capacity: mixed hits and evictions
        addr = rng.integers(0, capacity * 8, size=n)
    elif kind == 1:  # hot working set within capacity: closed-form heavy
        addr = rng.integers(0, capacity // 2 + 1, size=n)
    elif kind == 2:  # strided sweep (adjacent duplicates when stride < line)
        stride = int(rng.choice([1, 2, 4, 32, 128]))
        addr = (np.arange(n) * stride) % (capacity * 4)
    elif kind == 3:  # adversarial: hammer one set
        s = int(rng.integers(0, n_sets))
        addr = (rng.integers(0, 4 * assoc, size=n) * n_sets + s) * line
    else:  # bimodal reuse distances
        addr = np.concatenate(
            [
                rng.integers(0, capacity, size=n // 2 + 1),
                rng.integers(0, capacity * 16, size=n // 2 + 1),
            ]
        )
    cuts = sorted(int(c) for c in rng.integers(0, addr.size + 1, size=2))
    return capacity, line, assoc, np.asarray(addr, dtype=np.int64), cuts


class TestRandomizedEquivalence:
    @given(case=geometry_and_trace())
    @settings(max_examples=60, deadline=None)
    def test_single_call(self, case):
        capacity, line, assoc, addr, _ = case
        _check_equivalent(addr, capacity, line, assoc)

    @given(case=geometry_and_trace())
    @settings(max_examples=40, deadline=None)
    def test_multi_call_continuity(self, case):
        """State carried across calls: chunked replay equals one-shot."""
        capacity, line, assoc, addr, cuts = case
        _check_equivalent(addr, capacity, line, assoc, chunks=cuts)


class TestAdversarial:
    @pytest.mark.parametrize("assoc", [1, 2, 4, 16])
    def test_same_set_thrash(self, assoc):
        """assoc+1 lines cycling through one set: every access evicts."""
        capacity = 32 * assoc * 8
        addr = (np.arange(5000) % (assoc + 1)) * 8 * 32
        _check_equivalent(addr, capacity, 32, assoc)

    @pytest.mark.parametrize("assoc", [1, 2, 4, 16])
    def test_closed_form_boundary_fits(self, assoc):
        """Working set of exactly ``assoc`` lines per set: the closed-form
        shortcut applies and nothing may be evicted."""
        capacity = 32 * assoc * 8
        addr = (np.arange(5000) % assoc) * 8 * 32
        ref, fast = _pair(capacity, 32, assoc)
        np.testing.assert_array_equal(
            ref.reference_access_stream(addr), fast.access_stream(addr)
        )
        _assert_same_state(ref, fast)
        assert fast.stats.evictions == 0

    def test_adjacent_duplicate_runs(self):
        """Pooling-shaped traces: consecutive taps share a line (the
        duplicate-collapse tier), interleaved with row strides."""
        taps = np.arange(0, 57 * 4, 8, dtype=np.int64)
        rows = np.arange(0, 81, 2, dtype=np.int64) * 57 * 4
        addr = (rows[:, None] + taps[None, :]).ravel()
        _check_equivalent(addr, 4096, 32, 4)

    def test_scalar_shortcut_small_trace(self):
        """Traces of <= 32 addresses take the scalar path even with the
        fast path enabled; state must still match."""
        addr = np.array([0, 32, 0, 64, 96, 32, 128], dtype=np.int64)
        _check_equivalent(addr, 256, 32, 2)


class TestSetPartition:
    """The fast path partitions by set with int16 set ids when they fit
    (a radix sort) and int64 ids above ``2**15`` sets."""

    @pytest.mark.parametrize("device", [TITAN_BLACK, TITAN_X], ids=lambda d: d.name)
    def test_device_l2(self, device):
        capacity = device.l2_bytes
        rng = np.random.default_rng(3)
        addr = np.concatenate(
            [
                rng.integers(0, capacity * 2, size=4000),
                np.arange(0, capacity // 2, 96),  # strided sweep, then reuse
                rng.integers(0, capacity // 4, size=2000),
            ]
        )
        _check_equivalent(
            addr, capacity, device.l2_line_bytes, device.l2_assoc, chunks=(3000,)
        )

    @pytest.mark.parametrize("n_sets", [2**15, 2**15 + 1, 2**16 + 3])
    def test_set_count_around_the_int16_limit(self, n_sets):
        line, assoc = 32, 2
        capacity = line * assoc * n_sets
        rng = np.random.default_rng(n_sets)
        top_sets = (n_sets - 64 + np.arange(3000) % 64) * line  # highest set ids
        addr = np.concatenate(
            [rng.integers(0, capacity * 3, size=3000), top_sets, top_sets + capacity]
        )
        _check_equivalent(addr, capacity, line, assoc)


class TestPaddedTraces:
    """Satellite regression: ``warps_from_threads`` pads inactive lanes
    with -1, and the L2 rejects negative addresses — the shared
    ``transaction_stream`` helper must strip the padding in between."""

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

    def test_cap_keeps_whole_warp_reaching_it(self):
        warps = np.array([[0, 64], [128, 192], [256, 320]])
        # Cap of 3 is first reached inside warp 1: warps 0-1 kept whole.
        out = transaction_stream(warps, 32, max_transactions=3)
        assert out.tolist() == [0, 64, 128, 192]
        # Cap of 2 is reached exactly at warp 0's boundary.
        out = transaction_stream(warps, 32, max_transactions=2)
        assert out.tolist() == [0, 64]

    def test_one_dimensional_input_is_one_warp(self):
        out = transaction_stream(np.array([40, 0, 8]), 32)
        assert out.tolist() == [0, 32]

    def test_empty_input(self):
        assert transaction_stream(np.empty((0, 32), dtype=np.int64), 32).size == 0

    def test_invalid_segment_bytes(self):
        with pytest.raises(ValueError):
            transaction_stream(np.array([0]), 0)


class TestMinRoundSetsCutoff:
    """``MIN_ROUND_SETS`` trades vectorized rounds against the scalar
    tail purely for speed — any threshold must replay identically."""

    @pytest.mark.parametrize("threshold", [0, 1, 24, 10_000])
    def test_any_cutoff_matches_reference(self, threshold, monkeypatch):
        rng = np.random.default_rng(7)
        addr = rng.integers(0, 64 * 1024, size=4000) // 32 * 32
        monkeypatch.setattr(cache_module, "MIN_ROUND_SETS", threshold)
        ref, fast = _pair(16 * 1024, 32, 4)
        h_ref = ref.reference_access_stream(addr)
        h_fast = fast.access_stream(addr)
        np.testing.assert_array_equal(h_ref, h_fast)
        _assert_same_state(ref, fast)

    def test_extremes_agree_with_each_other(self, monkeypatch):
        """All-vectorized (0) and all-scalar-tail (huge) replays of the
        same trace leave byte-identical hits and state."""
        rng = np.random.default_rng(11)
        addr = rng.integers(0, 32 * 1024, size=3000) // 32 * 32
        results = {}
        for threshold in (0, 1_000_000):
            monkeypatch.setattr(cache_module, "MIN_ROUND_SETS", threshold)
            cache = SetAssociativeCache(8 * 1024, 32, 2)
            hits = cache.access_stream(addr)
            results[threshold] = (hits, _state(cache))
        h0, s0 = results[0]
        h1, s1 = results[1_000_000]
        np.testing.assert_array_equal(h0, h1)
        np.testing.assert_array_equal(s0[0], s1[0])
        np.testing.assert_array_equal(s0[1], s1[1])
        assert s0[2:] == s1[2:]
