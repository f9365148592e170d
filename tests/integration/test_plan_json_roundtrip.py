"""A plan's JSON verifies the same as the plan.

``repro verify --graph`` reads the graph ``repro plan --format json``
writes, so every annotation the verifier and the liveness model read —
the resolved specs included — must survive ``Graph.to_json`` /
``Graph.from_json`` unchanged.
"""

import json

import pytest

from repro.analysis import liveness_footprint, verify_graph
from repro.core.pipeline import PipelineOptions, plan_network
from repro.gpusim import TITAN_BLACK, TITAN_X
from repro.ir.graph import Graph
from repro.networks import NETWORK_BUILDERS, build_network


def _footprints(graph):
    return [
        (fp.peak_bytes, fp.peak_step, fp.weights_bytes, fp.curve)
        for fp in (liveness_footprint(graph, training=t) for t in (False, True))
    ]


@pytest.mark.parametrize("strategy", ["heuristic", "optimal"])
@pytest.mark.parametrize("dev", [TITAN_BLACK, TITAN_X], ids=lambda d: d.name)
@pytest.mark.parametrize("network", sorted(NETWORK_BUILDERS))
def test_plan_json_round_trips(network, dev, strategy):
    graph = plan_network(
        dev, build_network(network), PipelineOptions(strategy=strategy)
    ).graph
    written = graph.to_json()
    # through text, as `repro plan --format json | repro verify --graph` goes
    back = Graph.from_json(json.loads(json.dumps(written)))

    assert back.to_json() == written
    for node in graph:
        assert back[node.name].spec == node.spec, node.name
    assert any(node.spec is not None for node in back)
    assert verify_graph(back, dev) == verify_graph(graph, dev)
    assert _footprints(back) == _footprints(graph)
