"""Graph-aware edge rules over hand-built IR graphs: the layout checks
D003/D004 and the transform-island rule L002.

They walk the graph's real producer→consumer edges, not the linear step
sequence — a step walk would misfire on branching networks (a branch's
neighbour in step order is not its producer).
"""

from hypothesis import given, settings

from repro.analysis import LintConfig, Severity, lint_plan, verify_graph
from repro.core.pipeline import PipelineOptions, plan_network
from repro.gpusim import TITAN_BLACK
from repro.ir.graph import EdgeTransform, Graph, GraphNode, NodeKind
from repro.networks import build_network
from repro.tensors import CHWN, NCHW

from tests.analysis.graph_strategies import annotated_graphs

LAYOUT_RULES = LintConfig(selected=frozenset({"D003", "D004"}))


def ids_of(diagnostics):
    return {d.rule_id for d in diagnostics}


def fork_graph() -> Graph:
    """stem feeding two branches joined by a concat."""
    g = Graph("fork", batch=4, in_channels=3, in_h=8, in_w=8)
    g.add(GraphNode("stem", NodeKind.CONV, layout=CHWN))
    g.add(GraphNode("a", NodeKind.CONV, inputs=("stem",), layout=CHWN))
    g.add(GraphNode("b", NodeKind.CONV, inputs=("stem",), layout=CHWN))
    g.add(GraphNode("join", NodeKind.CONCAT, inputs=("a", "b"), layout=CHWN))
    return g


class TestGraphLayoutMismatch:
    def test_clean_graph_silent(self):
        assert not {"D003", "D004"} & ids_of(verify_graph(fork_graph()))

    def test_missing_transform_on_one_branch_edge(self):
        g = fork_graph()
        g["b"].layout = NCHW  # stem is CHWN; no transform recorded
        findings = [d for d in verify_graph(g) if d.rule_id == "D003"]
        # two broken edges: stem->b (arrives CHWN) and b->join (arrives NCHW)
        assert [(d.subject, d.detail["edge"]) for d in findings] == [
            ("b", "stem"),
            ("join", "b"),
        ]
        assert all(d.severity is Severity.ERROR for d in findings)

    def test_transform_with_wrong_source_layout(self):
        g = fork_graph()
        g["b"].layout = NCHW
        g["b"].transforms = (
            EdgeTransform(src="stem", from_layout=NCHW, to_layout=NCHW, ms=0.1),
        )
        findings = [d for d in verify_graph(g) if d.rule_id == "D004"]
        assert any(
            d.subject == "b" and d.detail.get("transform_source") == "NCHW"
            for d in findings
        )

    def test_explicit_transform_is_clean(self):
        g = fork_graph()
        g["b"].layout = NCHW
        g["b"].transforms = (
            EdgeTransform(src="stem", from_layout=CHWN, to_layout=NCHW, ms=0.1),
        )
        assert all(
            d.subject != "b" for d in verify_graph(g) if d.rule_id in ("D003", "D004")
        )


class TestGraphRedundantTransforms:
    def test_island_across_concat(self):
        g = fork_graph()
        g["join"].layout = NCHW
        g.add(GraphNode("pool", NodeKind.POOL, inputs=("join",), layout=CHWN))
        g["join"].transforms = (
            EdgeTransform(src="a", from_layout=CHWN, to_layout=NCHW, ms=0.2),
            EdgeTransform(src="b", from_layout=CHWN, to_layout=NCHW, ms=0.2),
        )
        g["pool"].transforms = (
            EdgeTransform(src="join", from_layout=NCHW, to_layout=CHWN, ms=0.2),
        )
        findings = [
            d
            for d in lint_plan(TITAN_BLACK, g)
            if d.rule_id == "L002"
        ]
        # both incoming edges are undone on the way out: two islands
        assert len(findings) == 2
        assert all(d.subject == "join" for d in findings)
        assert all(d.detail["island_layout"] == "NCHW" for d in findings)

    def test_persistent_switch_is_not_an_island(self):
        g = fork_graph()
        g["join"].layout = NCHW
        g.add(GraphNode("pool", NodeKind.POOL, inputs=("join",), layout=NCHW))
        g["join"].transforms = (
            EdgeTransform(src="a", from_layout=CHWN, to_layout=NCHW, ms=0.2),
            EdgeTransform(src="b", from_layout=CHWN, to_layout=NCHW, ms=0.2),
        )
        diags = lint_plan(TITAN_BLACK, g)
        assert "L002" not in ids_of(diags)


class TestRandomCoherentGraphs:
    """The shared DAG generator draws transform-coherent graphs, so the
    edge layout rules must never error on them (same generator as the
    dataflow verifier's property tests — one source of truth)."""

    @given(annotated_graphs())
    @settings(max_examples=25, deadline=None)
    def test_edge_rules_silent_on_coherent_dags(self, graph):
        errors = [
            d
            for d in verify_graph(graph, config=LAYOUT_RULES)
            if d.severity is Severity.ERROR
        ]
        assert errors == [], [d.format() for d in errors]


class TestPipelineOutputIsClean:
    def test_inception_has_no_errors(self, device):
        """End-to-end: the pipeline's own DAG plan lints clean (the
        elimination pass leaves no cancellable pairs behind)."""
        for strategy in ("heuristic", "optimal"):
            result = plan_network(
                device,
                build_network("inception"),
                PipelineOptions(strategy=strategy),
            )
            diags = lint_plan(device, result.graph, network="inception")
            errors = [d for d in diags if d.severity is Severity.ERROR]
            assert errors == [], f"{strategy}: {[d.format() for d in errors]}"
