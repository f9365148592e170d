"""Golden equivalence: the L2 replay against an independent LRU oracle.

``SetAssociativeCache.access_stream`` (per-address loop over NumPy tag and
stamp arrays) and :func:`_oracle_replay` (one ``OrderedDict`` per set, the
textbook true-LRU) must agree on every observable: per-access hit masks and
:class:`CacheStats` including evictions, also when a trace is split across
calls so that state carries over.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import SetAssociativeCache


def _oracle_replay(addr, capacity, line, assoc, chunks=()):
    """Hit masks per chunk and (accesses, hits, evictions) of a true-LRU
    cache replaying ``addr`` split at ``chunks``."""
    n_sets = capacity // (line * assoc)
    sets = [OrderedDict() for _ in range(n_sets)]
    evictions = 0
    masks = []
    cuts = [0, *sorted(chunks), len(addr)]
    for lo, hi in zip(cuts, cuts[1:]):
        mask = []
        for a in addr[lo:hi].tolist():
            tag = a // line
            ways = sets[tag % n_sets]
            hit = tag in ways
            if hit:
                ways.move_to_end(tag)
            else:
                if len(ways) == assoc:
                    ways.popitem(last=False)
                    evictions += 1
                ways[tag] = None
            mask.append(hit)
        masks.append(np.array(mask, dtype=bool))
    hits = sum(int(m.sum()) for m in masks)
    return masks, (len(addr), hits, evictions)


def _check_equivalent(addr, capacity, line, assoc, chunks=()):
    """Replay ``addr`` through the cache (split at ``chunks``) and require
    the oracle's hit masks and counters."""
    masks, counters = _oracle_replay(addr, capacity, line, assoc, chunks)
    cache = SetAssociativeCache(capacity, line, assoc)
    cuts = [0, *sorted(chunks), len(addr)]
    for (lo, hi), expected in zip(zip(cuts, cuts[1:]), masks):
        np.testing.assert_array_equal(cache.access_stream(addr[lo:hi]), expected)
    stats = cache.stats
    assert (stats.accesses, stats.hits, stats.evictions) == counters
    return cache


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
    elif kind == 1:  # hot working set within capacity: no evictions
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
        cache = _check_equivalent(addr, capacity, 32, assoc)
        assert cache.stats.hits == 0
        assert cache.stats.evictions == addr.size - assoc

    @pytest.mark.parametrize("assoc", [1, 2, 4, 16])
    def test_closed_form_boundary_fits(self, assoc):
        """Working set of exactly ``assoc`` lines per set: the closed-form
        count holds (only first touches miss) and nothing is evicted."""
        capacity = 32 * assoc * 8
        addr = (np.arange(5000) % assoc) * 8 * 32
        cache = _check_equivalent(addr, capacity, 32, assoc)
        assert cache.stats.evictions == 0
        assert cache.stats.misses == assoc

    def test_adjacent_duplicate_runs(self):
        """Pooling-shaped traces: consecutive taps share a line,
        interleaved with row strides."""
        taps = np.arange(0, 57 * 4, 8, dtype=np.int64)
        rows = np.arange(0, 81, 2, dtype=np.int64) * 57 * 4
        addr = (rows[:, None] + taps[None, :]).ravel()
        _check_equivalent(addr, 4096, 32, 4)
