"""Batched evaluation is invisible to its consumers.

Every hot consumer threaded through ``evaluate_cells`` — the layer
sweeps, device calibration, the pooling autotuner, and the layout
pipeline's transform pricing — must produce byte-identical results to a
scalar oracle, serial and with worker fan-out.  The oracle is
:func:`scalar_evaluate_cells`: one ``context.run`` per model with in-slot
error capture, patched over the consumer module's ``evaluate_cells``
binding and run serially on a fresh context.  Pipeline transform prices are held to
the scalar per-edge oracle :func:`edge_transform_ms` the same way.  These tests
pin the contract the ``bench_planner_perf`` CI gate also enforces end to
end.
"""

from __future__ import annotations

import pytest

from repro.analysis import sweeps
from repro.analysis.sweeps import sweep_conv, sweep_pool
from repro.core import autotune, calibration, pipeline
from repro.core.autotune import autotune_pooling_many
from repro.core.calibration import calibrate
from repro.core.pipeline import PipelineOptions, plan_network
from repro.gpusim import (
    TITAN_BLACK,
    TITAN_X,
    SimulationContext,
    default_context,
    reset_default_contexts,
)
from repro.gpusim.session import GpuOutOfMemoryError
from repro.ir.graph import NodeKind
from repro.layers.base import PoolSpec
from repro.networks import CONV_LAYERS, build_network
from repro.obs.metrics import aggregate_metrics
from repro.tensors import TensorDesc
from repro.tensors.transform_kernels import transform_time_ms


def _scalar_eval(context, model, check_memory):
    try:
        return context.run(model, check_memory=check_memory)
    except (GpuOutOfMemoryError, ValueError) as exc:
        return exc


def scalar_evaluate_cells(context, models, check_memory=None):
    """Scalar oracle for ``evaluate_cells``: one ``context.run`` per model,
    no memo probe."""
    return [_scalar_eval(context, m, check_memory) for m in models]


def edge_transform_ms(device, producer, consumer, src, dst):
    """Scalar transform cost on one producer→consumer edge.

    Free when the layouts agree, when the consumer is a classifier (it
    flattens its input) or when the dims are unknown.  On single-input
    consumers the transformed tensor is the consumer's input; on
    multi-input consumers (concat) it is the individual producer's output,
    not the joined tensor.
    """
    if src == dst or consumer.kind is NodeKind.CLASSIFIER:
        return 0.0
    if producer is not None and len(consumer.inputs) > 1:
        dims = producer.out_dims
    else:
        dims = consumer.in_dims
    if dims is None:
        return 0.0
    return transform_time_ms(device, TensorDesc(*dims, layout=src), dst, method="auto")


class ScalarEdgeCosts:
    """Oracle for ``TransformCostTable``: every edge priced on demand by
    :func:`edge_transform_ms`, nothing precomputed."""

    def __init__(self, device):
        self.device = device

    def precompute(self, graph, jobs=None):
        return 0

    def edge_ms(self, producer, consumer, src, dst):
        return edge_transform_ms(self.device, producer, consumer, src, dst)


def _oracle(monkeypatch, module, run):
    """``run(jobs=1)`` with ``module``'s ``evaluate_cells`` replaced by the
    scalar oracle (serial, so no warm worker sees the patch)."""
    with monkeypatch.context() as patch:
        patch.setattr(module, "evaluate_cells", scalar_evaluate_cells)
        return run(jobs=1)


@pytest.fixture(params=[False, True], ids=["scalar", "batched"])
def batching(request, monkeypatch):
    if not request.param:
        monkeypatch.setattr(sweeps, "evaluate_cells", scalar_evaluate_cells)
    return request.param


POOL_SPECS = [
    PoolSpec(n=64, c=c, h=27, w=27, window=3, stride=2) for c in (16, 64, 128)
]


class TestSweepIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_conv_sweep(self, jobs, monkeypatch):
        base = CONV_LAYERS["CV3"]

        def run(jobs):
            return sweep_conv(
                TITAN_BLACK, base, "n", (1, 16, 64, 256),
                context=SimulationContext(TITAN_BLACK), jobs=jobs,
            )

        assert _oracle(monkeypatch, sweeps, run) == run(jobs)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_pool_sweep(self, jobs, monkeypatch):
        def run(jobs):
            return sweep_pool(
                TITAN_X, POOL_SPECS[0], "c", (8, 32, 96),
                context=SimulationContext(TITAN_X), jobs=jobs,
            )

        assert _oracle(monkeypatch, sweeps, run) == run(jobs)


class TestCalibrationIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_calibrate(self, jobs, monkeypatch):
        def run(jobs):
            return calibrate(
                TITAN_BLACK, context=SimulationContext(TITAN_BLACK), jobs=jobs
            )

        ref, out = _oracle(monkeypatch, calibration, run), run(jobs)
        # profiling_ms is summed *simulated* time, so even it must match
        assert ref == out
        assert ref.thresholds == out.thresholds


class TestAutotuneIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_pooling_many(self, jobs, monkeypatch):
        def run(jobs):
            return autotune_pooling_many(
                TITAN_BLACK, POOL_SPECS,
                context=SimulationContext(TITAN_BLACK), jobs=jobs,
            )

        ref, out = _oracle(monkeypatch, autotune, run), run(jobs)
        # full trace equality: same hill-climb visits in the same order
        assert ref == out


class TestPipelineIdentity:
    @pytest.mark.parametrize("network", ["alexnet", "inception"])
    @pytest.mark.parametrize("strategy", ["heuristic", "optimal"])
    def test_plan_identity(self, network, strategy, monkeypatch):
        net = build_network(network)
        opts = PipelineOptions(strategy=strategy)

        def run():
            # transform prices land on the default context: start it cold
            reset_default_contexts()
            ctx = default_context(TITAN_BLACK)
            return plan_network(TITAN_BLACK, net, opts, context=ctx)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "TransformCostTable", ScalarEdgeCosts)
            ref = run()
        out = run()
        # the trace carries batch-only stats; the contract is the plan
        assert ref.graph.to_json() == out.graph.to_json()
        assert ref.summary() == out.summary()
        assert ref.graph == out.graph


def test_profile_digest_reports_batches(batching):
    """Smoke for the CLI digest source: the engine's batches show up in
    the ``batch.eval`` counters after a consumer runs; the scalar oracle
    reports none."""
    before = aggregate_metrics().value("batch.eval.batches") or 0
    sweep_pool(
        TITAN_BLACK, POOL_SPECS[0], "c", (8, 32),
        context=SimulationContext(TITAN_BLACK), jobs=1,
    )
    after = aggregate_metrics().value("batch.eval.batches") or 0
    if batching:
        assert after > before
    else:
        assert after == before
