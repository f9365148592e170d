"""Set-associative LRU cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import SetAssociativeCache


def small_cache(capacity=1024, line=32, assoc=2):
    return SetAssociativeCache(capacity, line, assoc)


def hit(cache, address):
    """Access one byte address; True on hit."""
    return bool(cache.access_stream(np.array([address]))[0])


class TestBasics:
    def test_geometry(self):
        c = small_cache()
        assert c.n_sets == 1024 // (32 * 2)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0)
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 32, 3)  # not a multiple

    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert hit(c, 0) is False
        assert hit(c, 0) is True
        assert hit(c, 31) is True  # same line
        assert hit(c, 32) is False  # next line

    def test_stats(self):
        c = small_cache()
        c.access_stream(np.array([0, 0, 64, 64, 0]))
        assert c.stats.accesses == 5
        assert c.stats.hits == 3
        assert c.stats.misses == 2
        assert c.stats.hit_rate == pytest.approx(0.6)

    def test_reset(self):
        c = small_cache()
        hit(c, 0)
        c.reset()
        assert c.stats.accesses == 0
        assert hit(c, 0) is False

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            small_cache().access_stream(np.array([-1]))


class TestLRU:
    def test_eviction_order_is_lru(self):
        # assoc=2, line=32: addresses 0, n_sets*32, 2*n_sets*32 map to set 0.
        c = small_cache(capacity=256, line=32, assoc=2)  # 4 sets
        s = c.n_sets * 32
        hits = c.access_stream(np.array([0, s, 0, 2 * s]))
        # miss (set0 way0), miss (set0 way1), hit (0 becomes MRU),
        # miss (evicts s, the LRU line)
        assert hits.tolist() == [False, False, True, False]
        assert hit(c, 0) is True
        assert hit(c, s) is False  # was evicted

    def test_working_set_within_capacity_all_hits_second_pass(self):
        c = SetAssociativeCache(4096, 32, 4)
        addrs = np.arange(0, 4096, 32)
        c.access_stream(addrs)
        hits = c.access_stream(addrs)
        assert hits.all()

    def test_streaming_larger_than_capacity_thrashes(self):
        c = SetAssociativeCache(1024, 32, 2)
        addrs = np.arange(0, 16 * 1024, 32)
        c.access_stream(addrs)
        hits = c.access_stream(addrs)
        assert not hits.any()  # sequential sweep defeats LRU

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_hits_never_exceed_infinite_cache_bound(self, seed):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 64 * 1024, size=200) * 4
        c = SetAssociativeCache(2048, 32, 2)
        hits = int(c.access_stream(addrs).sum())
        # an infinite cache hits every repeat touch of a line
        inf_hits = addrs.size - np.unique(addrs // 32).size
        assert hits <= inf_hits
