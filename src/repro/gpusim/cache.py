"""Set-associative LRU cache model (the GPU's L2).

The paper's locality arguments — overlapped pooling windows re-reading
neighbouring pixels, im2col re-touching input rows — hinge on whether the
redundant accesses hit in L2 or reach DRAM.  This model answers exactly that
question for a stream of transaction addresses.

The simulator feeds *post-coalescing* transaction addresses (one per 32-byte
segment), so a "hit" here means the segment was still resident from an
earlier warp.

Two implementations share one state representation:

* :meth:`SetAssociativeCache.reference_access_stream` — the scalar
  per-address replay.  LRU is inherently sequential, so this loop is the
  ground truth: it serves streams of at most 32 addresses, and the tests
  and ``bench_simulator_perf.py`` hold the fast path to it.
* :meth:`SetAssociativeCache.access_stream` — the vectorized fast path and
  the only replay the simulator calls.  Cache sets are independent, so
  the stream is partitioned by set (one stable argsort, a radix sort
  when the set ids fit int16) and each set's subsequence is resolved by
  the cheapest applicable method:

  1. **closed form** — when a set's working set (distinct new lines plus
     already-valid ways) fits in the associativity, nothing is ever
     evicted, so every access hits except the first touch of each
     non-resident line; no stateful replay is needed.
  2. **set-parallel rounds** — remaining sets are replayed one access per
     set per round, so each round is a single batched tag compare /
     LRU-victim update across all still-active sets.
  3. **scalar tail** — once fewer sets than ``MIN_ROUND_SETS`` remain
     active (a few heavy sets dominate, e.g. adversarial same-set thrash),
     their tails fall back to the per-access loop on that set's row only.

Both paths maintain identical state — tags, LRU stamps, counters — bit for
bit, which the property tests in ``tests/gpusim/test_cache_equivalence.py``
assert on randomized and adversarial traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import global_registry
from ..obs.tracer import active_tracer
from .device import DeviceSpec

#: Below this many still-active sets, set-parallel rounds stop paying for
#: themselves (each round costs ~a dozen numpy calls) and the scalar tail
#: wins.  Purely a performance knob: the two sides of the cutoff maintain
#: bit-identical cache state, so any value is correct (0 disables the
#: tail; a very large value replays everything through it).
MIN_ROUND_SETS = 24

#: Sorts below every real LRU stamp (stamps are >= 0): marks hit ways in the
#: fused round probe of :meth:`SetAssociativeCache._replay_open`.
_SENTINEL = np.int64(np.iinfo(np.int64).min)

#: Largest set count whose ids fit int16 (ids run 0 .. n_sets - 1).
_NARROW_SETS = 2**15

#: Module-wide accumulators: replay calls and wall seconds spent inside
#: cache replays.  :class:`~repro.gpusim.session.SimulationContext`
#: snapshots them around each kernel timing to attribute the cache-sim
#: share of simulation time per session.
_SIM_CALLS = 0
_SIM_WALL_S = 0.0


def cache_sim_snapshot() -> tuple[int, float]:
    """(replay calls, wall seconds) accumulated by all caches so far."""
    return _SIM_CALLS, _SIM_WALL_S


@dataclass
class CacheStats:
    """Access/hit/miss/eviction counters for one simulation."""

    accesses: int = 0
    hits: int = 0
    evictions: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Implemented with NumPy arrays (tags + LRU timestamps) so that large
    address streams stay fast.  Addresses are byte addresses; the line size
    and geometry come from the device spec by default.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 32,
        assoc: int = 16,
    ) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or assoc <= 0:
            raise ValueError("cache geometry must be positive")
        if capacity_bytes % (line_bytes * assoc):
            raise ValueError("capacity must be a multiple of line_bytes * assoc")
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = capacity_bytes // (line_bytes * assoc)
        self._tags = np.full((self.n_sets, assoc), -1, dtype=np.int64)
        self._stamp = np.zeros((self.n_sets, assoc), dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()

    @classmethod
    def l2_for(cls, device: DeviceSpec) -> "SetAssociativeCache":
        """Build the L2 cache described by a device spec."""
        return cls(device.l2_bytes, device.l2_line_bytes, device.l2_assoc)

    def reset(self) -> None:
        """Invalidate all lines and zero the counters."""
        self._tags.fill(-1)
        self._stamp.fill(0)
        self._clock = 0
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Access one byte address; return True on hit."""
        return bool(self.access_stream(np.asarray([address]))[0])

    # -- shared plumbing ----------------------------------------------------
    def _prepare(self, addresses: np.ndarray) -> np.ndarray:
        addr = np.asarray(addresses, dtype=np.int64).ravel()
        if addr.size and addr.min() < 0:
            raise ValueError("addresses must be non-negative")
        return addr

    def _finish(self, hits: np.ndarray, evictions: int, t0: float) -> np.ndarray:
        global _SIM_CALLS, _SIM_WALL_S
        n_accesses = int(hits.size)
        n_hits = int(hits.sum())
        self.stats.accesses += n_accesses
        self.stats.hits += n_hits
        self.stats.evictions += int(evictions)
        wall_s = time.perf_counter() - t0
        _SIM_CALLS += 1
        _SIM_WALL_S += wall_s
        registry = global_registry()
        registry.counter("cache_model.replays").inc()
        registry.counter("cache_model.accesses").inc(n_accesses)
        registry.counter("cache_model.wall_s").inc(wall_s)
        tracer = active_tracer()
        if tracer is not None:
            tracer.record(
                "l2-replay",
                "sim.cache",
                wall_s * 1e6,
                accesses=n_accesses,
                hits=n_hits,
                evictions=int(evictions),
            )
        return hits

    def access_stream(self, addresses: np.ndarray) -> np.ndarray:
        """Access a sequence of byte addresses in order; return the hit mask.

        The vectorized fast path; streams of at most 32 addresses take
        :meth:`reference_access_stream` instead.  Both produce identical
        hit masks, counters, and final tag/stamp state.
        """
        t0 = time.perf_counter()
        addr = self._prepare(addresses)
        if addr.size <= 32:  # partition overhead beats the tiny scalar loop
            return self.reference_access_stream(addr)
        if not addr.size:
            return self._finish(np.zeros(0, dtype=bool), 0, t0)
        hits, evictions = self._fast_replay(addr)
        return self._finish(hits, evictions, t0)

    # -- scalar reference ---------------------------------------------------
    def reference_access_stream(self, addresses: np.ndarray) -> np.ndarray:
        """The scalar per-address LRU replay (ground truth for the fast path).

        The loop is per-access, but each probe is a single vectorized tag
        compare against the set's ways.
        """
        t0 = time.perf_counter()
        addr = self._prepare(addresses)
        lines = addr // self.line_bytes
        sets = lines % self.n_sets
        hits = np.zeros(addr.size, dtype=bool)
        tags = self._tags
        stamp = self._stamp
        clock = self._clock
        evictions = 0
        for i in range(addr.size):
            s = sets[i]
            line = lines[i]
            clock += 1
            row = tags[s]
            eq = row == line
            if eq.any():
                hits[i] = True
                stamp[s, int(eq.argmax())] = clock
            else:
                victim = int(stamp[s].argmin())
                if row[victim] >= 0:
                    evictions += 1
                tags[s, victim] = line
                stamp[s, victim] = clock
        self._clock = clock
        return self._finish(hits, evictions, t0)

    # -- vectorized fast path -----------------------------------------------
    def _fast_replay(self, addr: np.ndarray) -> tuple[np.ndarray, int]:
        """Set-partitioned replay of ``addr``; returns (hit mask, evictions).

        State updates write the exact stamp values the reference would
        (``clock + 1 + original_index``), so tags and stamps end bit-equal.
        """
        n = addr.size
        lines = addr // self.line_bytes
        sets = lines % self.n_sets
        tags = self._tags
        clock0 = self._clock
        hits = np.zeros(n, dtype=bool)
        evictions = 0

        # Partition by set: stable, so stream order survives within a run.
        # Set ids that fit int16 let NumPy's stable sort take its radix path.
        narrow = sets.astype(np.int16) if self.n_sets <= _NARROW_SETS else sets
        order = np.argsort(narrow, kind="stable")
        ssets = sets[order]
        slines = lines[order]
        sstamps = clock0 + 1 + order

        # Collapse adjacent duplicates within each set's subsequence: a
        # back-to-back re-touch of the same line (no other access to that
        # set in between) is a guaranteed hit whose only effect is carrying
        # the LRU stamp forward.  Common in real traces — neighbouring
        # transactions of one warp, window taps sharing a line — and it
        # shrinks the stateful replay below.
        dup = np.zeros(n, dtype=bool)
        if n > 1:
            dup[1:] = (ssets[1:] == ssets[:-1]) & (slines[1:] == slines[:-1])
        if dup.any():
            hits[order[dup]] = True
            keep = np.flatnonzero(~dup)
            run_end = np.concatenate([keep[1:], [n]]) - 1
            sstamps = sstamps[run_end]  # each run's last (surviving) stamp
            ssets = ssets[keep]
            slines = slines[keep]
            order = order[keep]

        true_head = np.ones(1, dtype=bool)
        run_first = np.concatenate([true_head, ssets[1:] != ssets[:-1]])
        run_start = np.flatnonzero(run_first)
        run_of = np.cumsum(run_first) - 1  # run index of each sorted access
        run_sets = ssets[run_start]

        # Distinct (set, line) pairs.  The sort is stable, so within a pair
        # group the stream order is preserved: the group's first element is
        # the first stream touch, its last the latest.  Within a set, line
        # order is tag order, so one int64 key (set, tag) orders the pairs;
        # it stays below max line + n_sets, far from overflow.
        tag_span = int(slines.max()) // self.n_sets + 1
        porder = np.argsort(ssets * tag_span + slines // self.n_sets, kind="stable")
        ps = ssets[porder]
        pl = slines[porder]
        pair_first = np.concatenate(
            [true_head, (ps[1:] != ps[:-1]) | (pl[1:] != pl[:-1])]
        )
        up_sets = ps[pair_first]
        up_run = np.searchsorted(run_sets, up_sets)
        distinct_per_run = np.bincount(up_run, minlength=run_sets.size)

        # Closed-form eligibility: the distinct new lines plus the ways
        # already valid fit in the associativity, so nothing is ever
        # evicted.  (Counting resident lines on both sides of the sum only
        # makes the test conservative.)
        valid_per_run = (tags[run_sets] >= 0).sum(axis=1)
        run_closed = distinct_per_run + valid_per_run <= self.assoc

        access_closed = run_closed[run_of]
        if access_closed.any():
            pair_last = np.concatenate([pair_first[1:], true_head])
            pc = run_closed[up_run]
            self._closed_form(
                hits,
                order,
                access_closed,
                up_sets[pc],
                pl[pair_first][pc],
                order[porder[pair_first]][pc],
                sstamps[porder[pair_last]][pc],
            )

        if not access_closed.all():
            open_mask = ~access_closed
            rank = np.arange(ssets.size) - run_start[run_of]
            evictions = self._replay_open(
                hits,
                order[open_mask],
                ssets[open_mask],
                slines[open_mask],
                sstamps[open_mask],
                rank[open_mask],
            )

        self._clock = clock0 + n
        return hits, evictions

    def _closed_form(
        self,
        hits: np.ndarray,
        order: np.ndarray,
        access_closed: np.ndarray,
        up_sets: np.ndarray,
        up_lines: np.ndarray,
        up_first_idx: np.ndarray,
        up_last_stamp: np.ndarray,
    ) -> None:
        """Resolve every closed-form set without stateful replay.

        ``up_*`` describe the distinct (set, line) pairs of closed sets
        only, sorted by set.  Hits: all accesses except the first stream
        touch of each non-resident line.  State: resident lines keep their
        way and take the stamp of their last touch; new lines fill the
        initially-invalid ways in ascending way order, in order of first
        touch — exactly the ways the reference's ``argmin`` picks, because
        invalid ways hold stamp 0 while valid ways hold stamps >= 1.
        """
        tags, stamp = self._tags, self._stamp
        hits[order[access_closed]] = True
        eq = tags[up_sets] == up_lines[:, None]
        resident = eq.any(axis=1)
        first_miss = ~resident
        hits[up_first_idx[first_miss]] = False

        if resident.any():
            ways = eq[resident].argmax(axis=1)
            stamp[up_sets[resident], ways] = up_last_stamp[resident]

        if first_miss.any():
            # Rank each new line within its set by order of first touch.
            # First-touch indices are distinct stream positions, so the
            # (set, first touch) key is unique and any sort orders it.
            key = up_sets[first_miss] * hits.size + up_first_idx[first_miss]
            ins = np.argsort(key)
            rs = up_sets[first_miss][ins]
            rstart = np.flatnonzero(
                np.concatenate([np.ones(1, dtype=bool), rs[1:] != rs[:-1]])
            )
            lengths = np.diff(np.concatenate([rstart, [rs.size]]))
            rank = np.arange(rs.size) - np.repeat(rstart, lengths)
            # Invalid ways of each inserting set, in ascending way order.
            iset = rs[rstart]
            way_order = np.argsort(tags[iset] >= 0, axis=1, kind="stable")
            ways = way_order[np.searchsorted(iset, rs), rank]
            tags[rs, ways] = up_lines[first_miss][ins]
            stamp[rs, ways] = up_last_stamp[first_miss][ins]

    def _replay_open(
        self,
        hits: np.ndarray,
        orig_idx: np.ndarray,
        osets: np.ndarray,
        olines: np.ndarray,
        ostamps: np.ndarray,
        rank: np.ndarray,
    ) -> int:
        """Stateful replay for sets whose working set exceeds associativity.

        Inputs are the open accesses in set-grouped stream order with their
        per-set rank.  Processes one access per set per *round* (a batched
        probe/update across all sets active in that round), then a scalar
        per-set tail once fewer than ``MIN_ROUND_SETS`` sets remain active.
        Returns the eviction count.
        """
        tags, stamp = self._tags, self._stamp
        # Re-sort by (rank, set): each round becomes a contiguous slice in
        # which every set appears at most once.
        r2 = np.lexsort((osets, rank))
        osets = osets[r2]
        olines = olines[r2]
        ostamps = ostamps[r2]
        orig_idx = orig_idx[r2]
        rank = rank[r2]

        # Sets active in round r are those with more than r accesses, so
        # round widths are the survival counts of the per-set histogram.
        counts = np.bincount(rank, minlength=0)  # accesses per round
        n_rounds = counts.size
        evictions = 0
        pos = 0
        lanes = np.arange(int(counts[0])) if n_rounds else np.empty(0, np.int64)
        tail_round = n_rounds
        for r in range(n_rounds):
            m = int(counts[r])
            if m < MIN_ROUND_SETS:
                tail_round = r
                break
            sl = slice(pos, pos + m)
            rs = osets[sl]
            rl = olines[sl]
            rows = tags[rs]
            # Fused probe: a matching way sinks below every real stamp
            # (stamps are >= 0), so one argmin yields the hit way on a hit
            # and the LRU victim on a miss.
            probe = np.where(rows == rl[:, None], _SENTINEL, stamp[rs])
            way = probe.argmin(axis=1)
            hit = probe[lanes[:m], way] == _SENTINEL
            miss = ~hit
            evictions += int((rows[lanes[:m], way] >= 0)[miss].sum())
            tags[rs, way] = rl
            stamp[rs, way] = ostamps[sl]
            hits[orig_idx[sl]] = hit
            pos += m

        if tail_round >= n_rounds:
            return evictions

        # Scalar tail: few heavy sets remain; replay each on its own row.
        # The remaining accesses (rank >= tail_round) sit past ``pos``;
        # regroup them by set, preserving rank (stream) order.
        t2 = np.lexsort((rank[pos:], osets[pos:])) + pos
        tsets = osets[t2]
        tlines = olines[t2]
        tstamps = ostamps[t2]
        torig = orig_idx[t2]
        tstart = np.concatenate(
            [[0], np.flatnonzero(tsets[1:] != tsets[:-1]) + 1, [tsets.size]]
        )
        for g in range(tstart.size - 1):
            lo, hi = tstart[g], tstart[g + 1]
            s = int(tsets[lo])
            row = tags[s]
            st = stamp[s]
            for j in range(lo, hi):
                line = tlines[j]
                eq = row == line
                if eq.any():
                    hits[torig[j]] = True
                    st[int(eq.argmax())] = tstamps[j]
                else:
                    victim = int(st.argmin())
                    if row[victim] >= 0:
                        evictions += 1
                    row[victim] = line
                    st[victim] = tstamps[j]
        return evictions


def unique_line_hits(addresses: np.ndarray, line_bytes: int = 32) -> tuple[int, int]:
    """Fast infinite-cache estimate: (accesses, hits-if-cache-were-infinite).

    Useful as an upper bound on locality: every repeat touch of a line hits.
    """
    addr = np.asarray(addresses, dtype=np.int64).ravel()
    lines = addr // line_bytes
    n_unique = int(np.unique(lines).size)
    return int(lines.size), int(lines.size) - n_unique
