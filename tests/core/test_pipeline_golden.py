"""Golden plans: the pass pipeline reproduces the frozen planner output.

``golden/plans.json`` holds the plans the original chain-only planners
(``_legacy_plan_with_heuristic`` / ``_legacy_plan_optimal``) produced on
every bundled chain network, the heuristic and optimal ``plan_network``
plans of the branching ``inception`` network, and the pooling-tuned
``plan_single_layout`` plans of every chain network in CHWN and NCHW, each
generated once at the commit the file's ``source`` records.  These tests
pin the public planners to those plans — step sequence, layouts,
implementations, transform records, and total time, float for float.

A change that alters a plan on purpose (a new DAG solver, a model fix)
must regenerate the affected entries and say why in its commit.
"""

import json
from pathlib import Path

import pytest

from repro.core.pipeline import PipelineOptions, plan_network
from repro.core.planner import plan_optimal, plan_single_layout, plan_with_heuristic
from repro.framework import NetworkDef
from repro.gpusim.session import SimulationContext
from repro.networks import build_network
from repro.tensors import CHWN, NCHW

CHAIN_NETWORKS = ("lenet", "cifar", "alexnet", "alexnet-grouped", "zfnet", "vgg")

GOLDEN = json.loads((Path(__file__).parent / "golden" / "plans.json").read_text())


@pytest.fixture(scope="module")
def ctx(device):
    """One shared timing cache for every planner run in this module."""
    assert device.name == GOLDEN["device"]
    return SimulationContext(device)


def _layout(value):
    return None if value is None else str(value)


def plan_record(result) -> dict:
    """A planned graph as the JSON fixture stores it (exact floats, string
    layouts): a layout on conv/pool nodes only, and the transform layouts
    only on a node with exactly one edge transform."""
    steps = []
    for n in result.graph.topological():
        single = n.transforms[0] if len(n.transforms) == 1 else None
        steps.append(
            {
                "name": n.name,
                "kind": n.kind.value,
                "layout": _layout(n.kernel_layout),
                "implementation": n.implementation,
                "layer_ms": n.layer_ms,
                "transform_ms": n.transform_ms,
                "coarsening": None if n.coarsening is None else list(n.coarsening),
                "transformed_from": _layout(single.from_layout if single else None),
                "transformed_to": _layout(single.to_layout if single else None),
            }
        )
    return {
        "device": result.device,
        "strategy": result.strategy,
        "total_ms": result.total_ms,
        "steps": steps,
    }


def assert_matches_golden(plan, key):
    got, want = plan_record(plan), GOLDEN["plans"][key]
    assert len(got["steps"]) == len(want["steps"])
    for g, w in zip(got["steps"], want["steps"]):
        assert g == w, f"{key} {g['name']}: {g} != {w}"
    assert got == want


#: each ``repro.core.planner`` preset, keyed by its golden-entry prefix
WRAPPERS = {
    "heuristic": plan_with_heuristic,
    "optimal": plan_optimal,
    "single-CHWN": lambda device, net, **kw: plan_single_layout(
        device, net, CHWN, tune_pooling=True, **kw
    ),
    "single-NCHW": lambda device, net, **kw: plan_single_layout(
        device, net, NCHW, tune_pooling=True, **kw
    ),
}


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_wrapper_matches_golden(wrapper, name, device, ctx):
    plan = WRAPPERS[wrapper](device, build_network(name), context=ctx)
    assert_matches_golden(plan, f"{wrapper}/{name}")


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
@pytest.mark.parametrize("strategy", ("heuristic", "optimal"))
def test_plan_network_matches_legacy(name, strategy, device, ctx):
    """The pipeline entry point itself lands on the exact legacy plan."""
    result = plan_network(
        device, build_network(name), PipelineOptions(strategy=strategy), context=ctx
    )
    assert_matches_golden(result, f"{strategy}/{name}")


@pytest.mark.parametrize("strategy", ("heuristic", "optimal"))
def test_dag_plan_network_matches_golden(strategy, device, ctx):
    """The branching network's plans are frozen too, so a new DAG solver
    has to update them on purpose."""
    result = plan_network(
        device, build_network("inception"), PipelineOptions(strategy=strategy), context=ctx
    )
    assert_matches_golden(result, f"{strategy}/inception")


def test_no_fft_option_respected(device, ctx):
    plan = plan_optimal(device, build_network("alexnet"), allow_fft=False, context=ctx)
    assert_matches_golden(plan, "optimal-no-fft/alexnet")
    assert all("fft" not in n.implementation for n in plan.graph)


def test_empty_chain(device):
    empty = NetworkDef("empty", 1, 1, 1, 1)
    assert len(plan_optimal(device, empty).graph) == 0
    assert len(plan_with_heuristic(device, empty).graph) == 0
