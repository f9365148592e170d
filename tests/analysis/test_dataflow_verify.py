"""``verify_graph``: every corruption class maps to a named D-rule, and
coherent graphs — random or pipeline-produced — are ERROR-silent."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity, liveness_footprint, verify_graph
from repro.analysis.lint import LintConfig
from repro.core.pipeline import PipelineOptions, plan_network
from repro.ir.graph import EdgeTransform, Graph, GraphNode, NodeKind
from repro.layers import ConvSpec, PoolSpec
from repro.networks import NETWORK_BUILDERS, build_network
from repro.tensors import CHWN, NCHW

from tests.analysis.graph_strategies import annotated_graphs


def ids_of(diagnostics):
    return {d.rule_id for d in diagnostics}


def chain_graph() -> Graph:
    """A small coherent conv->pool->elementwise chain with full facts."""
    g = Graph("chain", batch=2, in_channels=3, in_h=8, in_w=8)
    g.add(
        GraphNode(
            "conv",
            NodeKind.CONV,
            in_dims=(2, 3, 8, 8),
            out_dims=(2, 4, 8, 8),
            layout=CHWN,
            spec=ConvSpec(n=2, ci=3, h=8, w=8, co=4, fh=3, fw=3, pad=1),
        )
    )
    g.add(
        GraphNode(
            "pool",
            NodeKind.POOL,
            inputs=("conv",),
            in_dims=(2, 4, 8, 8),
            out_dims=(2, 4, 8, 8),
            layout=CHWN,
            spec=PoolSpec(n=2, c=4, h=8, w=8, window=1, stride=1),
        )
    )
    g.add(
        GraphNode(
            "relu",
            NodeKind.ELEMENTWISE,
            inputs=("pool",),
            in_dims=(2, 4, 8, 8),
            out_dims=(2, 4, 8, 8),
            layout=CHWN,
        )
    )
    return g


class TestCorruptions:
    """Each deliberately corrupted graph is caught by its named rule."""

    def test_clean_chain_is_silent(self):
        assert verify_graph(chain_graph()) == []

    def test_bad_shape_edge_is_d001(self):
        g = chain_graph()
        g["conv"].out_dims = (2, 9, 8, 8)  # pool still expects 4 channels
        diags = verify_graph(g)
        assert "D001" in ids_of(diags)
        assert any(d.subject == "pool" for d in diags if d.rule_id == "D001")

    def test_dangling_edge_is_d002(self):
        g = chain_graph()
        g["pool"].inputs = ("ghost",)
        diags = verify_graph(g)
        assert "D002" in ids_of(diags)
        # downstream analyses stay quiet instead of crashing on the hole
        assert all(d.severity is not Severity.ERROR or d.rule_id == "D002"
                   for d in diags)

    def test_missing_transform_is_d003(self):
        g = chain_graph()
        g["pool"].layout = NCHW  # conv delivers CHWN, no transform recorded
        diags = verify_graph(g)
        assert "D003" in ids_of(diags)

    def test_conflicting_facts_into_a_conv_are_d003(self):
        g = Graph("conflict", batch=2, in_channels=3, in_h=8, in_w=8)
        g.add(GraphNode("left", NodeKind.CONV, layout=CHWN))
        g.add(GraphNode("right", NodeKind.CONV, layout=NCHW))
        # an unassigned concat carries both layouts on: its fact is CONFLICT
        g.add(GraphNode("cat", NodeKind.CONCAT, inputs=("left", "right")))
        g.add(GraphNode("conv", NodeKind.CONV, inputs=("cat",), layout=CHWN))
        d003 = [d for d in verify_graph(g) if d.rule_id == "D003"]
        assert [d.subject for d in d003] == ["conv"]
        assert "conflicting layout facts" in d003[0].message

    def test_layout_mismatched_transform_is_d004(self):
        g = chain_graph()
        g["pool"].layout = NCHW
        g["pool"].transforms = (
            # claims to read NCHW, but conv actually delivers CHWN
            EdgeTransform(src="conv", from_layout=NCHW, to_layout=NCHW, ms=0.1),
        )
        diags = verify_graph(g)
        assert "D004" in ids_of(diags)

    def test_uneliminated_inverse_pair_is_d005(self):
        g = chain_graph()
        # relu (layout-agnostic) labeled NCHW between CHWN-only neighbours:
        # relabeling it cancels both transforms at zero cost
        g.add(
            GraphNode(
                "tail",
                NodeKind.POOL,
                inputs=("relu",),
                in_dims=(2, 4, 8, 8),
                out_dims=(2, 4, 8, 8),
                layout=CHWN,
            )
        )
        g["relu"].layout = NCHW
        g["relu"].transforms = (
            EdgeTransform(src="pool", from_layout=CHWN, to_layout=NCHW, ms=0.1),
        )
        g["tail"].transforms = (
            EdgeTransform(src="relu", from_layout=NCHW, to_layout=CHWN, ms=0.1),
        )
        diags = verify_graph(g)
        d005 = [d for d in diags if d.rule_id == "D005"]
        assert d005 and d005[0].subject == "relu"
        assert d005[0].severity is Severity.WARNING

    def test_use_before_def_interval_is_d006(self):
        g = chain_graph()
        # a pass reordered the schedule: conv now reads pool's buffer,
        # which is defined later — outside any liveness interval
        g["conv"].inputs = ("pool",)
        diags = verify_graph(g)
        assert "D006" in ids_of(diags)

    def test_double_count_edge_is_d007(self):
        g = chain_graph()
        g["relu"].inputs = ("pool", "pool")
        diags = verify_graph(g)
        assert "D007" in ids_of(diags)

    def test_unassigned_layout_bearing_node_is_d008(self):
        g = chain_graph()
        g["conv"].layout = None  # D003 skips a node with no layout
        d008 = [d for d in verify_graph(g) if d.rule_id == "D008"]
        assert [d.subject for d in d008] == ["conv"]
        assert d008[0].severity is Severity.ERROR

    def test_missing_or_foreign_spec_is_d009(self):
        g = chain_graph()
        g["conv"].spec = None
        g["pool"].spec = ConvSpec(n=2, ci=4, h=8, w=8, co=4, fh=1, fw=1)
        d009 = [d for d in verify_graph(g) if d.rule_id == "D009"]
        assert [d.subject for d in d009] == ["conv", "pool"]
        assert all(d.severity is Severity.ERROR for d in d009)

    def test_select_runs_only_named_rules(self):
        g = chain_graph()
        g["pool"].inputs = ("ghost",)          # D002
        g["relu"].inputs = ("pool", "pool")    # D007
        only = verify_graph(g, config=LintConfig(selected=frozenset({"D007"})))
        assert ids_of(only) == {"D007"}


class TestCoherentGraphsAreSilent:
    @given(annotated_graphs())
    @settings(max_examples=40, deadline=None)
    def test_random_coherent_dags_have_no_errors(self, graph):
        errors = [
            d for d in verify_graph(graph) if d.severity is Severity.ERROR
        ]
        assert errors == [], [d.format() for d in errors]

    def test_every_bundled_network_verifies(self, device):
        for name in sorted(NETWORK_BUILDERS):
            result = plan_network(
                device,
                build_network(name),
                PipelineOptions(strategy="optimal", verify=True),
            )
            diags = verify_graph(result.graph, device, network=name)
            assert diags == [], [d.format() for d in diags]


class TestRewiredGraphsDoNotCrash:
    """A verifier that raises on the graphs it exists to reject is useless:
    rewiring one node's inputs (forward references, cycles, self-loops,
    duplicate and dangling edges) must yield diagnostics, not exceptions."""

    @given(annotated_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_check_returns(self, graph, data):
        names = list(graph.nodes)
        victim = data.draw(st.sampled_from(names))
        graph[victim].inputs = tuple(
            data.draw(st.lists(st.sampled_from(names + ["ghost"]), max_size=3))
        )
        verify_graph(graph)
        for training in (False, True):
            liveness_footprint(graph, training=training)
