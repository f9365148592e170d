"""L0xx rules: layout-plan linting, on planner output and hand-broken plans.

``lint_plan`` checks a planned graph: the edge rule (L002) walks its
edges, the threshold rule (L003) reads its conv nodes, and the layout
rules (L004/L005/L007) read its conv/pool nodes.  A layout mismatch on an
edge is the dataflow rules' D003/D004 (``lint_graph``).  The hand-built
cases below are chains; ``test_lint_graph.py`` covers branching graphs.
"""

from repro.analysis import Severity, lint_graph, lint_plan
from repro.core.pipeline import PipelineOptions, plan_network
from repro.gpusim import TITAN_BLACK
from repro.ir.graph import EdgeTransform, Graph, GraphNode, NodeKind
from repro.layers import ConvSpec
from repro.networks import build_network
from repro.tensors import CHWN, NCHW


def chain(*nodes):
    """A hand-annotated chain graph: each node reads the one before it."""
    graph = Graph("test")
    prev = None
    for node in nodes:
        node.inputs = (prev,) if prev is not None else ()
        graph.add(node)
        prev = node.name
    return graph


def node(name, kind, layout=None, *transforms, spec=None, impl=None):
    return GraphNode(
        name, kind, layout=layout, transforms=transforms, spec=spec,
        implementation=impl,
    )


def lint_chain(*nodes, device=TITAN_BLACK):
    """Lint a hand-annotated chain of ``nodes``."""
    return lint_plan(device, chain(*nodes))


def ids_of(diagnostics):
    return {d.rule_id for d in diagnostics}


class TestPlannerPlansAreClean:
    def test_bundled_networks_have_no_errors(self, device):
        for name in ("lenet", "alexnet", "vgg", "zfnet"):
            result = plan_network(
                device, build_network(name), PipelineOptions(strategy="heuristic")
            )
            diags = lint_plan(device, result.graph, network=name)
            errors = [d for d in diags if d.severity is Severity.ERROR]
            assert errors == [], f"{name}: {[d.format() for d in errors]}"

    def test_optimal_plans_have_no_errors(self, device):
        # The optimal min cut places boundary transforms on layout-agnostic LRN
        # nodes; the edge walk must follow them instead of flagging a
        # phantom mismatch.
        for name in ("alexnet", "zfnet"):
            result = plan_network(device, build_network(name))
            diags = lint_plan(device, result.graph, network=name)
            errors = [d for d in diags if d.severity is Severity.ERROR]
            assert errors == [], f"{name}: {[d.format() for d in errors]}"


class TestLayoutMismatch:
    """A layout change without a transform is a graph error: the dataflow
    rules D003/D004 report it over the same annotated graph."""

    def test_d003_missing_transform(self):
        graph = chain(
            node("conv1", NodeKind.CONV, CHWN),
            node("conv2", NodeKind.CONV, NCHW),  # no transform recorded
        )
        (d,) = [d for d in lint_graph(graph) if d.rule_id == "D003"]
        assert d.severity is Severity.ERROR
        assert d.subject == "conv2"
        assert d.detail["arriving"] == "CHWN"

    def test_d004_wrong_transform_source(self):
        graph = chain(
            node("conv1", NodeKind.CONV, CHWN),
            node(  # claims NCHW input
                "conv2", NodeKind.CONV, NCHW, EdgeTransform("conv1", NCHW, NCHW, 0.1)
            ),
        )
        (d,) = [
            d
            for d in lint_graph(graph)
            if d.rule_id == "D004" and "transform_source" in d.detail
        ]
        assert d.subject == "conv2"
        assert "producer delivers CHWN" in d.message

    def test_explicit_transform_is_clean(self):
        graph = chain(
            node("conv1", NodeKind.CONV, CHWN),
            node("conv2", NodeKind.CONV, NCHW, EdgeTransform("conv1", CHWN, NCHW, 0.1)),
        )
        assert not {"D003", "D004"} & ids_of(lint_graph(graph))

    def test_transform_hosted_on_layout_agnostic_step(self):
        # conv(NCHW) -> norm hosting the NCHW->CHWN transform -> pool(CHWN).
        graph = chain(
            node("conv1", NodeKind.CONV, NCHW),
            node(
                "norm1", NodeKind.ELEMENTWISE, CHWN,
                EdgeTransform("conv1", NCHW, CHWN, 0.5),
            ),
            node("pool1", NodeKind.POOL, CHWN),
        )
        assert not {"D003", "D004"} & ids_of(lint_graph(graph))

    def test_layout_agnostic_step_without_transform_still_flags(self):
        graph = chain(
            node("conv1", NodeKind.CONV, NCHW),
            node("norm1", NodeKind.ELEMENTWISE, NCHW),
            node("pool1", NodeKind.POOL, CHWN),
        )
        (d,) = [d for d in lint_graph(graph) if d.rule_id == "D003"]
        assert d.subject == "pool1"


class TestRedundantTransforms:
    def test_l002_single_layer_island(self):
        diags = lint_chain(
            node("conv1", NodeKind.CONV, NCHW),
            node("pool1", NodeKind.POOL, CHWN, EdgeTransform("conv1", NCHW, CHWN, 0.2)),
            node("conv2", NodeKind.CONV, NCHW, EdgeTransform("pool1", CHWN, NCHW, 0.2)),
        )
        (d,) = [d for d in diags if d.rule_id == "L002"]
        assert d.severity is Severity.WARNING
        assert d.subject == "pool1"
        assert d.detail["island_layout"] == "CHWN"

    def test_no_l002_for_persistent_switch(self):
        diags = lint_chain(
            node("conv1", NodeKind.CONV, NCHW),
            node("conv2", NodeKind.CONV, CHWN, EdgeTransform("conv1", NCHW, CHWN, 0.2)),
            node("conv3", NodeKind.CONV, CHWN),
        )
        assert "L002" not in ids_of(diags)


class TestThresholdAmbiguity:
    def test_l003_fires_at_nt_boundary(self, device):
        # C=64 >= Ct=32, N=128 == Nt: N-1 flips the layout choice to NCHW.
        spec = ConvSpec(n=128, ci=64, h=14, w=14, co=64, fh=3, fw=3, pad=1)
        diags = lint_chain(
            node("convA", NodeKind.CONV, CHWN, spec=spec, impl="direct"), device=device
        )
        (d,) = [d for d in diags if d.rule_id == "L003"]
        assert d.severity is Severity.WARNING
        assert d.detail["n_distance"] == 0

    def test_l003_silent_far_from_thresholds(self, device):
        # C=512, N=64: solidly NCHW on Titan Black; +-1 changes nothing.
        spec = ConvSpec(n=64, ci=512, h=14, w=14, co=512, fh=3, fw=3, pad=1)
        diags = lint_chain(
            node("convB", NodeKind.CONV, NCHW, spec=spec, impl="im2col"), device=device
        )
        assert "L003" not in ids_of(diags)

    def test_l003_needs_nodes(self, device):
        """Without conv geometry on the graph's nodes there is nothing to
        perturb."""
        diags = lint_chain(
            node("convA", NodeKind.CONV, CHWN, impl="direct"), device=device
        )
        assert "L003" not in ids_of(diags)


class TestImplementationFamilies:
    def test_l005_cross_family_conv(self):
        diags = lint_chain(node("conv1", NodeKind.CONV, NCHW, impl="direct"))
        (d,) = [d for d in diags if d.rule_id == "L005"]
        assert d.severity is Severity.ERROR
        assert d.detail["implementation"] == "direct"

    def test_l005_cross_family_pool(self):
        diags = lint_chain(node("pool1", NodeKind.POOL, NCHW, impl="chwn"))
        assert "L005" in ids_of(diags)

    def test_matching_families_clean(self):
        diags = lint_chain(
            node("conv1", NodeKind.CONV, CHWN, impl="direct"),
            node("pool1", NodeKind.POOL, CHWN, impl="chwn-coarsened"),
        )
        assert "L005" not in ids_of(diags)


class TestPoolLayoutNote:
    def test_l007_nchw_pool_is_info(self):
        diags = lint_chain(node("pool1", NodeKind.POOL, NCHW, impl="nchw-linear"))
        (d,) = [d for d in diags if d.rule_id == "L007"]
        assert d.severity is Severity.INFO

    def test_chwn_pool_silent(self):
        diags = lint_chain(node("pool1", NodeKind.POOL, CHWN, impl="chwn"))
        assert "L007" not in ids_of(diags)
