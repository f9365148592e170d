"""The benchmark harness's own infrastructure (figutil, the tracked
performance trajectory) and determinism."""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from figutil import FigureTable, geomean  # noqa: E402


class TestGeomean:
    def test_known_value(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    @given(values=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) <= g * 1.0001
        assert g <= max(values) * 1.0001

    @given(
        values=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=10),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_scales_linearly(self, values, scale):
        assert geomean([v * scale for v in values]) == pytest.approx(
            geomean(values) * scale, rel=1e-6
        )


class TestFigureTable:
    def make(self):
        t = FigureTable("demo", ["name", "value"])
        t.add("a", 1.0)
        t.add("b", 2.0)
        return t

    def test_row_and_column_access(self):
        t = self.make()
        assert t.row("a") == ("a", 1.0)
        assert t.column("value") == [1.0, 2.0]

    def test_missing_row(self):
        with pytest.raises(KeyError):
            self.make().row("zzz")

    def test_width_mismatch_rejected(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.add("c", 1.0, 2.0)

    def test_render_contains_everything(self):
        t = self.make()
        t.note("a note")
        text = t.render()
        assert "demo" in text and "a note" in text
        assert "1.000" in text and "b" in text


class TestTrajectory:
    """``benchmarks/trajectory.jsonl``: one line of medians per change, with
    every end-to-end metric of every workload ``BENCHMARK.json`` declares."""

    ROOT = Path(__file__).parent.parent

    def test_lines_cover_the_declared_benchmark(self):
        spec = json.loads((self.ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"] for m in spec["end_to_end"]}
        lines = (self.ROOT / "benchmarks" / "trajectory.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        assert entries
        prs = [e["pr"] for e in entries]
        assert prs == sorted(set(prs))
        for entry in entries:
            assert "commit" in entry
            for workload in spec["workloads"]:
                medians = entry[workload["name"]]
                assert set(medians) == metrics
                assert all(v > 0 for v in medians.values())

    def test_committed_lines_name_their_commit(self):
        """Only the newest line may still wait for its commit (``null``)."""
        lines = (self.ROOT / "benchmarks" / "trajectory.jsonl").read_text().splitlines()
        for line in lines[:-1]:
            commit = json.loads(line)["commit"]
            assert isinstance(commit, str) and commit.strip(), line[:40]


def _load_file(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfbenchTargets:
    """The traced benchmark run wraps the entry points ``perfbench/layers.py``
    names; a rename in the program must fail here, not mid-run."""

    def test_every_traced_target_resolves(self):
        path = Path(__file__).parent.parent / "perfbench" / "layers.py"
        layers = _load_file("perfbench_layers", path)
        assert layers.TARGETS
        for _layer, metric, module_name, attr_path in layers.TARGETS:
            owner = importlib.import_module(module_name)
            for part in attr_path.split("."):
                assert hasattr(owner, part), f"{metric}: {module_name}.{attr_path}"
                owner = getattr(owner, part)
            assert callable(owner), f"{metric}: {module_name}.{attr_path}"


class TestPerfbenchOutputMask:
    """The ``cli`` workload compares ``repro profile`` outputs after masking
    the pass table's wall-clock ms; how many digits a pass time has must
    not survive the mask, or a pass crossing 10 or 100 ms fails the op."""

    BENCH = Path(__file__).parent.parent / "perfbench"

    @pytest.fixture
    def normalize(self, monkeypatch):
        # run.py imports its siblings as top-level modules.
        for dep in ("common", "layers"):
            module = _load_file(f"perfbench_{dep}", self.BENCH / f"{dep}.py")
            monkeypatch.setitem(sys.modules, dep, module)
        return _load_file("perfbench_run", self.BENCH / "run.py")._normalize

    def test_pass_ms_width_is_masked(self, normalize):
        from repro import TITAN_BLACK, build_network
        from repro.core.pipeline import PipelineOptions, plan_network

        result = plan_network(
            TITAN_BLACK, build_network("lenet"), PipelineOptions(strategy="heuristic")
        )
        masked = set()
        for ms in (9.87, 92.3, 134.0, 1234.5):
            trace = tuple(replace(t, ms=ms) for t in result.trace)
            text = replace(result, trace=trace).explain()
            assert f"{ms:.3f}" in text
            masked.add(normalize(("profile", "lenet"), text))
        assert len(masked) == 1


class TestDeterminism:
    def test_traced_kernels_are_deterministic(self, device):
        """Two independent contexts must produce identical traced profiles
        (sampling is strided, never random)."""
        from repro.gpusim import SimulationContext
        from repro.layers import make_pool_kernel
        from repro.networks import POOL_LAYERS

        spec = POOL_LAYERS["PL5"]
        a = SimulationContext(device).run(make_pool_kernel(spec, "nchw-linear"))
        b = SimulationContext(device).run(make_pool_kernel(spec, "nchw-linear"))
        assert a.time_ms == b.time_ms
        assert a.transactions == b.transactions

    def test_whole_network_timing_is_deterministic(self, device):
        from repro.baselines import time_network
        from repro.networks import build_network

        net1 = build_network("cifar")
        net2 = build_network("cifar")
        t1 = time_network(net1, device, "opt").total_ms
        t2 = time_network(net2, device, "opt").total_ms
        assert t1 == t2

    def test_numeric_forward_is_seeded(self):
        from repro.framework import Net
        from repro.networks import build_network

        net = Net(build_network("lenet", batch=4))
        a = net.forward(net.make_input(seed=3), net.init_weights(seed=1))
        b = net.forward(net.make_input(seed=3), net.init_weights(seed=1))
        np.testing.assert_array_equal(a, b)


class TestAnnotationFuzz:
    @given(
        layout=st.sampled_from(["CHWN", "NCHW"]),
        impl=st.sampled_from(["direct", "im2col", "fft", "chwn-coarsened"]),
        coarsen=st.one_of(
            st.none(), st.tuples(st.integers(1, 8), st.integers(1, 8))
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_annotation_encode_parse_roundtrip(self, layout, impl, coarsen):
        from repro.framework import (
            LayerAnnotation,
            parse_annotated_netdef,
        )
        from repro.tensors import parse_layout

        ann = LayerAnnotation(
            layout=parse_layout(layout), implementation=impl, coarsening=coarsen
        )
        text = (
            "network f batch=2 input=1x8x8\n"
            "conv c1 co=2 f=3\n"
            f"#@ c1 {ann.encode()}\n"
        )
        _, parsed = parse_annotated_netdef(text)
        assert parsed["c1"] == ann
