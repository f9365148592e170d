"""Metrics registry: kinds, percentiles, merging, pickling, aggregation."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_metrics,
    global_registry,
    register_metrics_provider,
    reset_global_registry,
)


class TestCounterGauge:
    def test_counter(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.summary() == 3.5

    def test_gauge_last_write_wins(self):
        g = Gauge("entries")
        g.set(5)
        g.set(2)
        assert g.value == 2.0


class TestHistogramPercentiles:
    def test_empty_raises(self):
        h = Histogram("ms")
        with pytest.raises(ValueError):
            h.percentile(50)

    def test_out_of_range_raises(self):
        h = Histogram("ms")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_single_value_every_percentile(self):
        h = Histogram("ms")
        h.observe(7.0)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 7.0

    def test_nearest_rank_1_to_100(self):
        h = Histogram("ms")
        for v in range(1, 101):
            h.observe(float(v))
        # Nearest-rank on N=100: p-th percentile is the p-th value.
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0  # rank clamps to the first value

    def test_nearest_rank_small_n(self):
        h = Histogram("ms")
        for v in (10.0, 20.0, 30.0, 40.0):
            h.observe(v)
        assert h.percentile(50) == 20.0  # ceil(50*4/100) = 2
        assert h.percentile(51) == 30.0  # ceil(51*4/100) = 3
        assert h.percentile(90) == 40.0
        assert h.percentile(25) == 10.0

    def test_unsorted_observations(self):
        h = Histogram("ms")
        for v in (5.0, 1.0, 3.0):
            h.observe(v)
        assert h.percentile(50) == 3.0
        assert h.summary()["min"] == 1.0
        assert h.summary()["max"] == 5.0

    def test_summary_shape(self):
        h = Histogram("ms")
        assert h.summary() == {"count": 0, "sum": 0.0}
        h.observe(2.0)
        h.observe(4.0)
        s = h.summary()
        assert s["count"] == 2
        assert s["sum"] == 6.0
        assert s["mean"] == 3.0
        assert set(s) == {"count", "sum", "min", "max", "mean", "p50", "p90", "p99"}


class TestRegistry:
    def test_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.value("a") == 0.0
        r.counter("a").inc(3)
        assert r.value("a") == 3.0

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(TypeError):
            r.gauge("a")
        with pytest.raises(TypeError):
            r.histogram("a")

    def test_kind_conflict_raises_once_the_name_exists(self):
        """An existing name is read without the lock; asking for it as
        another kind still raises, and leaves the metric in place."""
        r = MetricsRegistry()
        counter = r.counter("a")
        counter.inc()
        for _ in range(2):
            with pytest.raises(TypeError, match="is a Counter, not a Gauge"):
                r.gauge("a")
        assert r.counter("a") is counter and r.value("a") == 1.0

    def test_metric_requested_after_reset_starts_at_zero(self):
        r = MetricsRegistry()
        old = r.counter("sim.hits")
        old.inc(4)
        r.histogram("sim.ms").observe(1.0)
        r.reset("sim.")
        fresh = r.counter("sim.hits")
        assert fresh is not old and fresh.value == 0.0
        assert r.histogram("sim.ms").count == 0
        fresh.inc()
        assert r.value("sim.hits") == 1.0 and old.value == 4.0

    def test_value_of_histogram_raises(self):
        r = MetricsRegistry()
        r.histogram("h").observe(1.0)
        with pytest.raises(TypeError):
            r.value("h")

    def test_value_default_for_missing(self):
        r = MetricsRegistry()
        assert r.value("nope") == 0.0
        assert r.value("nope", default=-1.0) == -1.0

    def test_names_prefix_filter(self):
        r = MetricsRegistry()
        r.counter("sim.hits")
        r.counter("sim.misses")
        r.counter("dram.bytes")
        assert r.names("sim.") == ["sim.hits", "sim.misses"]
        assert r.names() == ["dram.bytes", "sim.hits", "sim.misses"]

    def test_snapshot(self):
        r = MetricsRegistry()
        r.counter("c").inc(2)
        r.gauge("g").set(7)
        r.histogram("h").observe(1.0)
        snap = r.snapshot()
        assert snap["c"] == 2.0
        assert snap["g"] == 7.0
        assert snap["h"]["count"] == 1

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(2.0)
        a.merge(b)
        assert a.value("c") == 3.0  # counters add
        assert a.value("g") == 9.0  # gauges last-write-wins
        assert sorted(a.histogram("h").values) == [1.0, 2.0]  # concat

    def test_reset_prefix(self):
        r = MetricsRegistry()
        r.counter("sim.hits").inc()
        r.counter("dram.bytes").inc()
        r.reset("sim.")
        assert r.names() == ["dram.bytes"]
        r.reset()
        assert r.names() == []

    def test_pickle_round_trip(self):
        r = MetricsRegistry()
        r.counter("c").inc(5)
        r.histogram("h").observe(1.5)
        clone = pickle.loads(pickle.dumps(r))
        assert clone.value("c") == 5.0
        assert clone.histogram("h").values == [1.5]
        # The clone is live: its lock was rebuilt.
        clone.counter("c").inc()
        assert clone.value("c") == 6.0


class TestGlobalAggregate:
    def test_global_registry_reset(self):
        global_registry().counter("test.x").inc()
        assert global_registry().value("test.x") == 1.0
        reset_global_registry()
        assert global_registry().names() == []

    def test_aggregate_includes_providers(self):
        reset_global_registry()
        global_registry().counter("test.global").inc(1)
        extra = MetricsRegistry()
        extra.counter("test.provided").inc(4)
        register_metrics_provider("test.provider", lambda: [extra])
        try:
            total = aggregate_metrics()
            assert total.value("test.global") == 1.0
            assert total.value("test.provided") == 4.0
            # The aggregate is a fresh snapshot, not a live alias.
            total.counter("test.global").inc(100)
            assert global_registry().value("test.global") == 1.0
        finally:
            from repro.obs import metrics as m

            m._PROVIDERS.pop("test.provider", None)
            reset_global_registry()

    def test_provider_registration_idempotent(self):
        from repro.obs import metrics as m

        calls = []
        register_metrics_provider("test.idem", lambda: calls.append(1) or [])
        register_metrics_provider("test.idem", lambda: calls.append(2) or [])
        try:
            aggregate_metrics()
            assert calls == [2]  # re-registration replaced, not stacked
        finally:
            m._PROVIDERS.pop("test.idem", None)
