"""The exact layout assigner: ``min_cut_layouts`` against enumeration.

Topologies come from the shared random-graph strategy; node and edge costs
are small integers, so every total is exact and ties are real ties.  Each
draw is checked against ``itertools.product`` over all CHWN/NCHW
assignments: the cut's total is the enumerated minimum, and its CHWN set
is the union of the CHWN sets of every optimal assignment (the documented
tie rule, the maximal source set).
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import min_cut_layouts
from repro.tensors import CHWN, NCHW
from tests.analysis.graph_strategies import annotated_graphs

COSTS = st.integers(min_value=0, max_value=5)


@st.composite
def costed_problems(draw):
    """(nodes, node_ms, edge_ms) over a random DAG of at most 12 nodes."""
    graph = draw(annotated_graphs(min_nodes=1, max_nodes=12))
    nodes = [node.name for node in graph]
    node_ms = {name: (draw(COSTS), draw(COSTS)) for name in nodes}
    edge_ms = {
        (src, node.name): (draw(COSTS), draw(COSTS))
        for node in graph
        for src in node.inputs
    }
    return nodes, node_ms, edge_ms


def total(assign, node_ms, edge_ms):
    t = sum(node_ms[name][assign[name] == NCHW] for name in assign)
    for (u, v), (to_nchw, to_chwn) in edge_ms.items():
        if (assign[u], assign[v]) == (CHWN, NCHW):
            t += to_nchw
        elif (assign[u], assign[v]) == (NCHW, CHWN):
            t += to_chwn
    return t


@settings(max_examples=60, deadline=None)
@given(costed_problems())
def test_min_cut_equals_enumeration_and_follows_the_tie_rule(problem):
    nodes, node_ms, edge_ms = problem
    totals = {
        combo: total(dict(zip(nodes, combo)), node_ms, edge_ms)
        for combo in itertools.product((CHWN, NCHW), repeat=len(nodes))
    }
    best = min(totals.values())
    chwn_in_some_optimum = {
        name
        for combo, t in totals.items()
        if t == best
        for name, layout in zip(nodes, combo)
        if layout == CHWN
    }

    assign = min_cut_layouts(nodes, node_ms, edge_ms)

    assert set(assign) == set(nodes)
    assert total(assign, node_ms, edge_ms) == best
    assert {name for name in nodes if assign[name] == CHWN} == chwn_in_some_optimum


def test_empty_problem():
    assert min_cut_layouts([], {}, {}) == {}
