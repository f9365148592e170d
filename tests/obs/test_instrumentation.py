"""Observability is observational: instrumented paths compute identical
results with tracing on or off, and the span/metrics streams actually cover
the subsystems the tentpole promises (pipeline passes, kernel dispatch,
cache replay, planner decisions, parallel workers)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.sweeps import sweep_pool
from repro.cli import main
from repro.core.pipeline import PipelineOptions, plan_network
from repro.gpusim import SimulationContext, get_device
from repro.networks import build_network
from repro.obs import (
    Tracer,
    install_tracer,
    uninstall_tracer,
)
from repro.obs.metrics import global_registry, reset_global_registry


@pytest.fixture(autouse=True)
def _clean_obs_state():
    uninstall_tracer()
    reset_global_registry()
    yield
    uninstall_tracer()
    reset_global_registry()


def _traced(fn):
    tracer = install_tracer(Tracer("test"))
    try:
        return fn(), tracer
    finally:
        uninstall_tracer()


class TestByteIdentity:
    """Tracing must never change what gets computed."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_sweep_identical_with_and_without_tracing(self, device, small_pool, jobs):
        def run():
            return sweep_pool(
                device, small_pool, "c", (4, 8, 16),
                context=SimulationContext(device, check_memory=False), jobs=jobs,
            )

        plain = run()
        traced, tracer = _traced(run)
        assert traced == plain
        assert len(tracer.spans()) > 0

    def test_plan_identical_with_and_without_tracing(self, device):
        netdef = build_network("lenet")
        plain = plan_network(device, netdef, PipelineOptions())
        traced, _ = _traced(lambda: plan_network(device, netdef, PipelineOptions()))
        assert traced.graph.to_json() == plain.graph.to_json()
        assert traced.summary() == plain.summary()

    def test_plan_text_stdout_byte_identical(self, capsys, tmp_path):
        argv = ["plan", "--network", "lenet"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "t.json")]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # stdout byte-identical
        assert "trace: wrote" in captured.err  # file note on stderr only

    def test_plan_json_identical_modulo_wall_clock(self, capsys, tmp_path):
        argv = ["plan", "--network", "lenet", "--format", "json"]

        def normalized() -> dict:
            payload = json.loads(capsys.readouterr().out)
            # Pass wall-clock timings vary run to run with or without
            # tracing; everything else (the plan itself) must not.
            for p in payload["passes"]:
                p["ms"] = 0.0
            return payload

        assert main(argv) == 0
        plain = normalized()
        assert main(argv + ["--trace", str(tmp_path / "t.json")]) == 0
        assert normalized() == plain


class TestCoverage:
    """The streams contain spans for every subsystem the tentpole names."""

    def test_plan_records_pass_and_kernel_spans(self, device):
        netdef = build_network("lenet")
        _, tracer = _traced(lambda: plan_network(device, netdef, PipelineOptions()))
        by_cat = {}
        for s in tracer.spans():
            by_cat.setdefault(s.category, []).append(s.name)
        assert "pipeline" in by_cat
        assert "sim.kernel" in by_cat
        pass_names = by_cat["pipeline.pass"]
        for expected in ("ResolveShapes", "AssignLayouts", "SelectImplementations"):
            assert expected in pass_names

    def test_pass_spans_nest_under_run_pipeline(self, device):
        netdef = build_network("lenet")
        _, tracer = _traced(lambda: plan_network(device, netdef, PipelineOptions()))
        spans = {s.span_id: s for s in tracer.spans()}
        root = next(s for s in spans.values() if s.name == "run_pipeline")
        for s in spans.values():
            if s.category == "pipeline.pass":
                assert s.parent_id == root.span_id

    def test_planner_decision_events(self, device):
        netdef = build_network("lenet")
        _, tracer = _traced(lambda: plan_network(device, netdef, PipelineOptions()))
        decisions = [e for e in tracer.events() if e.category == "pipeline.decision"]
        assert decisions, "AssignLayouts should emit one decision event per node"
        for ev in decisions:
            assert "layout" in ev.attrs
            assert "algorithm" in ev.attrs

    def test_cache_replay_spans(self, device):
        from repro.gpusim import SetAssociativeCache, strided_pattern, transaction_stream

        trace = strided_pattern(8, 8, device)
        stream = transaction_stream(trace, device.transaction_bytes)
        _, tracer = _traced(
            lambda: SetAssociativeCache.l2_for(device).access_stream(stream)
        )
        replays = [s for s in tracer.spans() if s.category == "sim.cache"]
        assert [s.attrs["accesses"] for s in replays] == [stream.size]

    def test_parallel_workers_ship_spans_home(self, device, small_pool, monkeypatch):
        import os

        from repro.gpusim import shutdown_pool

        # A 1-CPU box would clamp --jobs to serial; pretend it is wider,
        # and sweep enough cells that the grid splits into several chunks
        # (the chunk floor keeps tiny grids serial on purpose).
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        def run():
            return sweep_pool(
                device, small_pool, "c", (4, 6, 8, 10, 12, 16, 24, 32),
                context=SimulationContext(device, check_memory=False), jobs=4,
            )

        try:
            _, tracer = _traced(run)
        finally:
            shutdown_pool()
        pids = {s.pid for s in tracer.spans()}
        assert len(pids) > 1, "worker spans should carry worker pids"
        chunk_spans = [s for s in tracer.spans() if s.name == "chunk"]
        assert chunk_spans and all(s.pid != os.getpid() for s in chunk_spans)
        merges = [e for e in tracer.events() if e.name == "worker-merge"]
        assert len(merges) == len(chunk_spans)  # one merge per shipped chunk

    def test_worker_metrics_merge_into_global(self, device, small_pool, monkeypatch):
        import os

        # A 1-CPU box would clamp --jobs to serial; pretend it is wider.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def run():
            return sweep_pool(
                device, small_pool, "c", (4, 8, 16),
                context=SimulationContext(device, check_memory=False), jobs=2,
            )

        _traced(run)
        registry = global_registry()
        assert registry.value("exec.pool.chunks") > 1
        # The parent evaluates no cell of a pooled grid, so every candidate
        # counted here was counted in a worker and merged home.
        assert registry.value("batch.eval.candidates") > 0


class TestCliSurface:
    def test_profile_writes_valid_trace(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        status = main(
            ["profile", "lenet", "--trace", str(trace), "--metrics", str(metrics)]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "span summary by category" in out
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert {"cli", "pipeline", "pipeline.pass", "sim.kernel"} <= cats
        m = json.loads(metrics.read_text())
        assert any(k.startswith("pipeline.pass_ms.") for k in m["metrics"])

    def test_plan_trace_has_pass_timings_without_explain(self, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["plan", "--network", "lenet", "--trace", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        passes = [
            e for e in payload["traceEvents"] if e.get("cat") == "pipeline.pass"
        ]
        assert passes, "--trace alone must expose per-pass spans (no --explain)"
        assert all(e["dur"] >= 0 for e in passes)

    def test_plan_jsonl_export(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(["plan", "--network", "lenet", "--jsonl", str(path)]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(r["type"] == "span" for r in records)

    def test_no_tracer_leaks_after_cli(self, tmp_path):
        from repro.obs import active_tracer

        main(["plan", "--network", "lenet", "--trace", str(tmp_path / "t.json")])
        assert active_tracer() is None

    def test_metrics_without_trace(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main(["plan", "--network", "lenet", "--metrics", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["version"] == 1
        assert "sim.queries.misses" in payload["metrics"]
        assert "metrics: wrote" in capsys.readouterr().err


class TestStatsMetricsAgreement:
    """--sim-stats and --metrics are two views over one registry."""

    def test_sim_stats_counters_equal_metrics(self, device):
        from repro.gpusim.session import SimulationContext

        ctx = SimulationContext(device, check_memory=False)
        from repro.layers import make_pool_kernel
        from repro.layers.base import PoolSpec

        spec = PoolSpec(n=8, c=4, h=8, w=8, window=2, stride=2)
        ctx.run(make_pool_kernel(spec, "chwn"))
        ctx.run(make_pool_kernel(spec, "chwn"))  # second hit from cache
        assert ctx.stats.hits == ctx.metrics.value("sim.queries.hits")
        assert ctx.stats.misses == ctx.metrics.value("sim.queries.misses")
        assert ctx.stats.hits == 1
        assert ctx.stats.misses == 1
        assert ctx.metrics.histogram("sim.kernel_sim_ms").count == 1

    def test_cli_sim_stats_and_metrics_agree(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert (
            main(
                [
                    "plan", "--network", "lenet",
                    "--sim-stats", "--metrics", str(metrics),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        payload = json.loads(metrics.read_text())
        # The summary's kernel count equals the aggregated metrics' count.
        misses = payload["metrics"]["sim.queries.misses"]
        assert f"kernels timed  : {int(misses)}" in out
