"""Set-associative LRU cache model (the GPU's L2).

The paper's locality arguments — overlapped pooling windows re-reading
neighbouring pixels, im2col re-touching input rows — hinge on whether the
redundant accesses hit in L2 or reach DRAM.  This model answers exactly that
question for a stream of transaction addresses.

Callers feed *post-coalescing* transaction addresses (one per 32-byte
segment, see :func:`~repro.gpusim.trace.transaction_stream`), so a "hit"
here means the segment was still resident from an earlier warp.

The model is an on-demand tool, not a timing input: no kernel model
replays its trace through it while being timed (see
``docs/PERFORMANCE_MODEL.md``).  LRU is inherently sequential, so the
replay is one per-address loop; each probe is a single vectorized tag
compare against the set's ways.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import global_registry
from ..obs.tracer import active_tracer
from .device import DeviceSpec


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

    State is two NumPy arrays (tags + LRU timestamps) and a clock.
    Addresses are byte addresses; the line size and geometry come from the
    device spec by default.
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

    def access_stream(self, addresses: np.ndarray) -> np.ndarray:
        """Access a sequence of byte addresses in order; return the hit mask.

        Cache state carries over between calls.  Every call counts into the
        global ``cache_model.{replays,accesses,wall_s}`` counters and, when
        tracing, records one ``l2-replay`` event.
        """
        t0 = time.perf_counter()
        addr = np.asarray(addresses, dtype=np.int64).ravel()
        if addr.size and addr.min() < 0:
            raise ValueError("addresses must be non-negative")
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

        n_accesses = int(addr.size)
        n_hits = int(hits.sum())
        self.stats.accesses += n_accesses
        self.stats.hits += n_hits
        self.stats.evictions += evictions
        wall_s = time.perf_counter() - t0
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
                evictions=evictions,
            )
        return hits
