"""Process-wide metrics: counters, gauges, and percentile histograms.

Where :mod:`repro.obs.tracer` answers *when and where* time went, this
module answers *how much of what happened*: kernel-cache hit counts, cache
replay calls, DRAM bound-mechanism tallies, per-kernel timing distributions.

A :class:`MetricsRegistry` is a picklable bag of named metrics;
:meth:`MetricsRegistry.merge` folds one into another.  The registry that
backs a :class:`~repro.gpusim.session.SimStats` is one of them.

:func:`aggregate_metrics` assembles the full process picture: the global
registry plus every registry announced by a provider (the simulation
session module registers one for the per-device default contexts), merged
into a fresh snapshot registry.  ``repro ... --metrics FILE`` serializes
that snapshot.
"""

from __future__ import annotations

import threading
from math import ceil
from typing import Any, Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "aggregate_metrics",
    "global_registry",
    "register_metrics_provider",
    "reset_global_registry",
]


class Counter:
    """A monotonically growing (but resettable) count."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def summary(self) -> float:
        return self.value


class Gauge:
    """A last-write-wins level (e.g. cache size at end of run)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def summary(self) -> float:
        return self.value


class Histogram:
    """A value distribution with nearest-rank percentile summaries.

    Raw observations are retained (our workloads observe thousands, not
    millions, of values), which keeps merging exact: folding two
    histograms concatenates their observations.
    """

    kind = "histogram"
    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 100]."""
        if not self.values:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.values)
        rank = ceil(p * len(ordered) / 100.0)  # nearest-rank definition
        return ordered[min(len(ordered), max(1, rank)) - 1]

    def summary(self) -> dict[str, float]:
        if not self.values:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": min(self.values),
            "max": max(self.values),
            "mean": self.total / self.count,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A named collection of metrics, thread-safe and picklable.

    Names are namespaced with dots (``sim.queries.hits``); a name is bound
    to one metric kind for the registry's lifetime — asking for the same
    name as a different kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    # -- pickling (locks don't cross process boundaries) --------------------
    def __getstate__(self) -> dict[str, Any]:
        return {"metrics": self._metrics}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._lock = threading.Lock()
        self._metrics = state["metrics"]

    # -- access -------------------------------------------------------------
    def _get(self, name: str, factory: type) -> Any:
        # An existing metric is never replaced, only dropped by ``reset``,
        # so it is read without the lock; only a new name takes it.
        metric = self._metrics.get(name)
        if type(metric) is factory:
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory(name)
                self._metrics[name] = metric
            elif not isinstance(metric, factory):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {factory.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def value(self, name: str, default: float = 0.0) -> float:
        """A counter/gauge's current value (0 when never touched)."""
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; use summary()")
        return metric.value

    def names(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(n for n in self._metrics if n.startswith(prefix))

    # -- aggregation --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Flat name → value (counters/gauges) or summary dict (histograms)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].summary() for name in sorted(metrics)}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges last-write-wins,
        histograms concatenate observations."""
        with other._lock:
            theirs = dict(other._metrics)
        for name, metric in theirs.items():
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(name).set(metric.value)
            else:
                self.histogram(name).values.extend(metric.values)

    def reset(self, prefix: str = "") -> None:
        """Drop metrics whose name starts with ``prefix`` (all by default)."""
        with self._lock:
            for name in [n for n in self._metrics if n.startswith(prefix)]:
                del self._metrics[name]


# ---------------------------------------------------------------------------
# The process-wide registry and the provider fan-in
# ---------------------------------------------------------------------------

_GLOBAL = MetricsRegistry()

#: Named callbacks yielding extra registries to fold into the aggregate
#: (e.g. the per-device simulation sessions).  Keyed so repeat
#: registrations from module re-imports stay idempotent.
_PROVIDERS: dict[str, Callable[[], Iterable[MetricsRegistry]]] = {}


def global_registry() -> MetricsRegistry:
    """The process-wide registry for code without a closer home."""
    return _GLOBAL


def reset_global_registry() -> None:
    """Zero the process-wide registry (test isolation)."""
    _GLOBAL.reset()


def register_metrics_provider(
    name: str, provider: Callable[[], Iterable[MetricsRegistry]]
) -> None:
    """Announce extra registries for :func:`aggregate_metrics` to fold in."""
    _PROVIDERS[name] = provider


def aggregate_metrics() -> MetricsRegistry:
    """A fresh registry holding the merged process-wide picture."""
    total = MetricsRegistry()
    total.merge(_GLOBAL)
    for provider in _PROVIDERS.values():
        for registry in provider():
            total.merge(registry)
    return total
