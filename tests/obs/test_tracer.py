"""Span recording: nesting, ordering, threading, and the null path."""

from __future__ import annotations

import os
import threading

import pytest

from repro.obs import (
    TraceEvent,
    Tracer,
    active_tracer,
    install_tracer,
    uninstall_tracer,
)
from repro.obs.tracer import span as obs_span


@pytest.fixture(autouse=True)
def _no_leftover_tracer():
    uninstall_tracer()
    yield
    uninstall_tracer()


class TestSpanRecording:
    def test_basic_span(self):
        tracer = Tracer("t")
        with tracer.span("work", "cat", key="value") as sp:
            pass
        (recorded,) = tracer.spans()
        assert recorded is sp
        assert recorded.name == "work"
        assert recorded.category == "cat"
        assert recorded.attrs == {"key": "value"}
        assert recorded.pid == os.getpid()
        assert recorded.duration_us >= 0.0
        assert recorded.end_us == pytest.approx(
            recorded.start_us + recorded.duration_us
        )

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id

    def test_completion_order_inner_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.spans()]
        assert names == ["inner", "outer"]

    def test_span_ids_unique_and_increasing(self):
        tracer = Tracer()
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        ids = [s.span_id for s in tracer.spans()]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_attrs_attached_mid_flight(self):
        tracer = Tracer()
        with tracer.span("work") as sp:
            sp.attrs["result"] = 42
        assert tracer.spans()[0].attrs["result"] == 42

    def test_span_recorded_even_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans()] == ["doomed"]
        # The stack unwound: a later span is not parented to the dead one.
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None

    def test_record_after_the_fact(self):
        tracer = Tracer()
        sp = tracer.record("replay", "sim.cache", 1500.0, accesses=10)
        assert sp.duration_us == 1500.0
        assert sp.attrs == {"accesses": 10}
        assert sp.end_us <= tracer.now_us()

    def test_record_nests_under_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            inner = tracer.record("timed", "cat", 10.0)
        assert inner.parent_id == outer.span_id

    def test_events(self):
        tracer = Tracer()
        ev = tracer.event("decision", "pipeline.decision", layout="CHWN")
        assert isinstance(ev, TraceEvent)
        assert tracer.events() == (ev,)
        assert ev.attrs == {"layout": "CHWN"}

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.event("e")
        tracer.clear()
        assert tracer.spans() == ()
        assert tracer.events() == ()


class TestThreading:
    def test_threads_do_not_cross_link_parents(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(name: str) -> None:
            with tracer.span(f"outer-{name}"):
                barrier.wait(timeout=5)
                with tracer.span(f"inner-{name}"):
                    pass

        threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_name = {s.name: s for s in tracer.spans()}
        assert len(by_name) == 4
        for n in "ab":
            assert by_name[f"inner-{n}"].parent_id == by_name[f"outer-{n}"].span_id
            assert by_name[f"inner-{n}"].tid == by_name[f"outer-{n}"].tid

    def test_concurrent_ids_unique(self):
        tracer = Tracer()

        def work() -> None:
            for _ in range(50):
                with tracer.span("s"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [s.span_id for s in tracer.spans()]
        assert len(ids) == 200
        assert len(set(ids)) == 200


class TestModuleLevelSpan:
    def test_disabled_yields_none(self):
        assert active_tracer() is None
        with obs_span("anything", "cat") as sp:
            assert sp is None

    def test_enabled_records_on_active_tracer(self):
        tracer = install_tracer(Tracer("active"))
        try:
            with obs_span("work", "cat", k=1) as sp:
                assert sp is not None
            assert [s.name for s in tracer.spans()] == ["work"]
        finally:
            uninstall_tracer()

    def test_install_uninstall_round_trip(self):
        tracer = install_tracer()
        assert active_tracer() is tracer
        assert uninstall_tracer() is tracer
        assert active_tracer() is None
        assert uninstall_tracer() is None


class TestClock:
    def test_now_us_monotonic_nondecreasing(self):
        tracer = Tracer()
        stamps = [tracer.now_us() for _ in range(100)]
        assert stamps == sorted(stamps)

    def test_span_times_ordered(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert a.start_us <= b.start_us
