"""The memo is invisible to the grid consumers.

Every grid consumer prices its kernels one ``context.run`` at a time —
the layer sweeps, device calibration, the pooling autotuner, and the
layout pipeline's transform pricing — and must produce byte-identical
results on a fresh context and on passes replayed from a warm one.  The
sweep, calibration and autotuner outputs are held to frozen values in
``golden/grids.json`` on both bundled devices (regenerate with
``python -m tests.integration.test_batched_consumers`` from the repository
root, with ``src`` on ``PYTHONPATH``, only for a declared model change).
Pipeline transform prices are held to the scalar per-edge oracle
:func:`edge_transform_ms`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

import pytest

from repro.analysis.sweeps import sweep_conv, sweep_pool
from repro.core import pipeline
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
from repro.ir.graph import NodeKind
from repro.layers.base import PoolSpec
from repro.layers.conv_kernels import CONV_IMPLEMENTATIONS
from repro.networks import CONV_LAYERS, build_network
from repro.tensors import TensorDesc
from repro.tensors.transform_kernels import transform_time_ms

GOLDEN_PATH = Path(__file__).parent / "golden" / "grids.json"
DEVICES = (TITAN_BLACK, TITAN_X)

POOL_SPECS = [
    PoolSpec(n=64, c=c, h=27, w=27, window=3, stride=2) for c in (16, 64, 128)
]

#: each grid consumer's output on one device and context, by fixture key
CASES = {
    "sweep_conv": lambda device, context: sweep_conv(
        device, CONV_LAYERS["CV3"], "n", (1, 16, 64, 256), context=context
    ),
    # h=2 cannot hold the filter, h=224 runs FFT out of memory and
    # winograd does not support CV3: every kind of unrunnable cell
    "sweep_conv_unrunnable": lambda device, context: sweep_conv(
        device,
        CONV_LAYERS["CV3"],
        "h",
        (2, 13, 224),
        CONV_IMPLEMENTATIONS,
        context=context,
    ),
    "sweep_pool": lambda device, context: sweep_pool(
        device, POOL_SPECS[0], "c", (8, 32, 96), context=context
    ),
    "calibrate": lambda device, context: calibrate(device, context=context),
    "autotune": lambda device, context: autotune_pooling_many(
        device, POOL_SPECS, context=context
    ),
    "autotune_from_1": lambda device, context: autotune_pooling_many(
        device, POOL_SPECS, max_factor=3, initial=1, context=context
    ),
}


def _plain(result):
    """``result`` as the JSON value the fixture stores."""
    if isinstance(result, list):
        return [_plain(r) for r in result]
    assert is_dataclass(result)
    return json.loads(json.dumps(asdict(result)))


def _write_golden() -> None:
    """Write every case on a fresh context per device, one line each."""
    rows = [
        f"  {json.dumps(f'{device.name}/{case}')}: "
        + json.dumps(_plain(run(device, SimulationContext(device))))
        for device in DEVICES
        for case, run in CASES.items()
    ]
    source = (
        "tests/integration/test_batched_consumers.py CASES, each on a fresh "
        "SimulationContext per device"
    )
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        '{\n "commit": "eff5a4d",\n'
        f' "source": {json.dumps(source)},\n'
        ' "grids": {\n' + ",\n".join(rows) + "\n }\n}\n"
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["grids"]


def _warm_passes(case, device, passes):
    """``passes`` runs of ``case`` on one shared context: the first prices
    every cell, the rest are served from its memo."""
    context = SimulationContext(device)
    return [_plain(CASES[case](device, context)) for _ in range(passes)]


def _assert_frozen(golden, case, passes):
    for device in DEVICES:
        ref = golden[f"{device.name}/{case}"]
        assert _warm_passes(case, device, passes) == [ref] * passes, device.name


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

    def __init__(self, context):
        self.device = context.device

    def precompute(self, graph):
        return 0

    def edge_ms(self, producer, consumer, src, dst):
        return edge_transform_ms(self.device, producer, consumer, src, dst)


class TestSweepIdentity:
    @pytest.mark.parametrize("passes", [1, 4])
    def test_conv_sweep(self, passes, golden):
        _assert_frozen(golden, "sweep_conv", passes)

    @pytest.mark.parametrize("passes", [1, 4])
    def test_pool_sweep(self, passes, golden):
        _assert_frozen(golden, "sweep_pool", passes)

    def test_conv_sweep_unrunnable_cells(self, golden):
        _assert_frozen(golden, "sweep_conv_unrunnable", 2)
        points = golden[f"{TITAN_BLACK.name}/sweep_conv_unrunnable"]["points"]
        failed = [p for p in points if p["time_ms"] is None]
        assert 0 < len(failed) < len(points)


class TestCalibrationIdentity:
    @pytest.mark.parametrize("passes", [1, 4])
    def test_calibrate(self, passes, golden):
        # profiling_ms is summed *simulated* time, so even it must match
        _assert_frozen(golden, "calibrate", passes)


class TestAutotuneIdentity:
    @pytest.mark.parametrize("passes", [1, 4])
    def test_pooling_many(self, passes, golden):
        # full trace equality: same hill-climb visits in the same order
        _assert_frozen(golden, "autotune", passes)

    def test_pooling_many_from_initial_1(self, golden):
        _assert_frozen(golden, "autotune_from_1", 2)


class TestPipelineIdentity:
    @pytest.mark.parametrize("network", ["alexnet", "inception"])
    @pytest.mark.parametrize("strategy", ["heuristic", "optimal"])
    def test_plan_identity(self, network, strategy, monkeypatch):
        net = build_network(network)
        opts = PipelineOptions(strategy=strategy)

        def run():
            # transform prices land on the plan's context: start it cold
            reset_default_contexts()
            ctx = default_context(TITAN_BLACK)
            return plan_network(TITAN_BLACK, net, opts, context=ctx)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "TransformCostTable", ScalarEdgeCosts)
            ref = run()
        out = run()
        # the trace carries the table's stats; the contract is the plan
        assert ref.graph.to_json() == out.graph.to_json()
        assert ref.summary() == out.summary()
        assert ref.graph == out.graph


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
def test_profile_digest_reports_batches(batched):
    """The ``--sim-stats`` digest source counts a grid's cells the same way
    whether the grid is swept in one call or one value per call: one miss
    per distinct cell on a cold context, one hit per cell on a warm one."""
    values = (8, 32)
    batches = [values] if batched else [(v,) for v in values]

    def sweep(context):
        for batch in batches:
            sweep_pool(TITAN_BLACK, POOL_SPECS[0], "c", batch, context=context)

    context = SimulationContext(TITAN_BLACK)
    sweep(context)
    cells = context.stats.misses
    assert cells > 0 and context.stats.hits == 0
    reference = SimulationContext(TITAN_BLACK)
    sweep_pool(TITAN_BLACK, POOL_SPECS[0], "c", values, context=reference)
    assert cells == reference.stats.misses
    sweep(context)
    assert (context.stats.misses, context.stats.hits) == (cells, cells)


if __name__ == "__main__":
    _write_golden()
