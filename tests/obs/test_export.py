"""Exporters: Chrome-trace schema, JSONL stream, metrics JSON, checker CLI."""

from __future__ import annotations

import json

from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    summarize_spans,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.check import main as check_main


def _sample_tracer() -> Tracer:
    tracer = Tracer("unit")
    with tracer.span("outer", "pipeline", nodes=3):
        with tracer.span("inner", "sim.kernel", kernel="conv"):
            pass
    tracer.event("decision", "pipeline.decision", layout="CHWN")
    return tracer


class TestChromeTrace:
    def test_payload_is_valid(self):
        tracer = _sample_tracer()
        payload = chrome_trace(tracer.spans(), tracer.events())
        assert validate_chrome_trace(payload) == []

    def test_metadata_rows_per_pid(self):
        payload = chrome_trace(_sample_tracer().spans())
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "process_sort_index"}

    def test_complete_events_sorted_by_start(self):
        payload = chrome_trace(_sample_tracer().spans())
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["outer", "inner"]  # outer starts first
        assert xs == sorted(xs, key=lambda e: e["ts"])

    def test_args_carry_attrs_and_ids(self):
        payload = chrome_trace(_sample_tracer().spans())
        outer = next(e for e in payload["traceEvents"] if e.get("name") == "outer")
        assert outer["args"]["nodes"] == 3
        assert outer["args"]["parent_id"] is None
        inner = next(e for e in payload["traceEvents"] if e.get("name") == "inner")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    def test_instant_events(self):
        tracer = _sample_tracer()
        payload = chrome_trace(tracer.spans(), tracer.events())
        (instant,) = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "decision"
        assert instant["s"] == "t"
        assert instant["args"]["layout"] == "CHWN"

    def test_non_json_attrs_coerced(self):
        tracer = Tracer()
        with tracer.span("s", "c", layout=object()) as sp:
            sp.attrs["tup"] = (1, 2)
        payload = chrome_trace(tracer.spans())
        assert validate_chrome_trace(payload) == []
        json.dumps(payload)  # fully serializable

    def test_whole_payload_round_trips(self, tmp_path):
        tracer = _sample_tracer()
        target = write_chrome_trace(tmp_path / "t.json", tracer)
        loaded = json.loads(target.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded["displayTimeUnit"] == "ms"
        names = [
            e["args"]["name"]
            for e in loaded["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert "unit" in names  # parent pid uses the tracer's process name


class TestValidatorNegatives:
    def test_not_a_dict(self):
        assert validate_chrome_trace([1, 2]) != []

    def test_missing_trace_events(self):
        assert validate_chrome_trace({"foo": 1}) == ["payload lacks a 'traceEvents' array"]

    def test_bad_phase(self):
        bad = {"traceEvents": [{"name": "x", "ph": "Q", "pid": 1, "tid": 1}]}
        assert any("'ph'" in p for p in validate_chrome_trace(bad))

    def test_negative_duration(self):
        bad = {
            "traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -5}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(bad))

    def test_missing_name_and_pid(self):
        bad = {"traceEvents": [{"ph": "X", "tid": 1, "ts": 0, "dur": 1}]}
        problems = validate_chrome_trace(bad)
        assert any("name" in p for p in problems)
        assert any("pid" in p for p in problems)

    def test_non_object_event(self):
        assert any(
            "not an object" in p
            for p in validate_chrome_trace({"traceEvents": ["nope"]})
        )


class TestJsonl:
    def test_stream_shape(self, tmp_path):
        tracer = _sample_tracer()
        target = write_jsonl(tmp_path / "t.jsonl", tracer)
        records = [json.loads(line) for line in target.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert [s["name"] for s in spans] == ["outer", "inner"]
        assert [e["name"] for e in events] == ["decision"]
        assert spans[1]["parent_id"] == spans[0]["span_id"]


class TestMetricsJson:
    def test_explicit_registry(self, tmp_path):
        r = MetricsRegistry()
        r.counter("sim.hits").inc(3)
        r.histogram("sim.ms").observe(1.5)
        target = write_metrics(tmp_path / "m.json", r)
        payload = json.loads(target.read_text())
        assert payload["version"] == 1
        assert payload["metrics"]["sim.hits"] == 3.0
        assert payload["metrics"]["sim.ms"]["count"] == 1


class TestCheckCli:
    def _write(self, tmp_path, payload) -> str:
        p = tmp_path / "trace.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_valid_trace_exits_zero(self, tmp_path, capsys):
        tracer = _sample_tracer()
        path = write_chrome_trace(tmp_path / "t.json", tracer)
        assert check_main([str(path)]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out

    def test_require_category(self, tmp_path):
        tracer = _sample_tracer()
        path = str(write_chrome_trace(tmp_path / "t.json", tracer))
        assert check_main([path, "--require-category", "sim.kernel"]) == 0
        assert check_main([path, "--require-category", "no.such"]) == 1

    def test_invalid_schema_exits_one(self, tmp_path):
        path = self._write(tmp_path, {"traceEvents": [{"ph": "Q"}]})
        assert check_main([path]) == 1

    def test_unreadable_exits_two(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert check_main([missing]) == 2
        garbled = tmp_path / "bad.json"
        garbled.write_text("{not json")
        assert check_main([str(garbled)]) == 2


class TestSummarizeSpans:
    def test_empty(self):
        assert summarize_spans(()) == "no spans recorded"

    def test_category_totals_and_top(self):
        tracer = _sample_tracer()
        text = summarize_spans(tracer.spans(), top=1)
        assert "pipeline" in text
        assert "sim.kernel" in text
        assert "top 1 spans by duration" in text
        # Longest span is the outer one (it contains the inner).
        assert text.splitlines()[-1].lstrip().startswith("outer")
