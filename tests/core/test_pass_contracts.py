"""Pass-contract verification: ``PipelineOptions(verify=True)`` runs
each pass's declared D-rules and attributes the first failure."""

import pytest

from repro.analysis.rules.base import REGISTRY, Severity
from repro.core.pipeline import (
    PassContractError,
    PipelineOptions,
    Pass,
    default_passes,
    plan_network,
    run_pipeline,
)
from repro.ir.build import lower_netdef
from repro.ir.graph import NodeKind
from repro.networks import NETWORK_BUILDERS, build_network
from repro.tensors import CHWN, NCHW


class TestVerifiedPipeline:
    def test_all_default_passes_hold_their_contracts(self, device, titan_x):
        """Every bundled network on both devices under both strategies,
        ``InsertTransforms``' claim of lint rule D005 included.  D005 flags
        only a node whose relabel would cancel every incident disagreement; the fine-tune's partial win at inception's
        concat is pinned by ``TestBranchingNetwork`` and the golden plans."""
        for dev in (device, titan_x):
            for network in sorted(NETWORK_BUILDERS):
                for strategy in ("heuristic", "optimal"):
                    plan_network(
                        dev,
                        build_network(network),
                        PipelineOptions(strategy=strategy, verify=True),
                    )  # no PassContractError

    def test_plan_identical_with_verification_on(self, device):
        """Verification is observational: the planned result is
        byte-identical with it on or off."""
        for strategy in ("heuristic", "optimal"):
            off = plan_network(
                device, build_network("alexnet"), PipelineOptions(strategy=strategy)
            )
            on = plan_network(
                device,
                build_network("alexnet"),
                PipelineOptions(strategy=strategy, verify=True),
            )
            assert on.graph.to_json() == off.graph.to_json()
            assert on.summary() == off.summary()


class TestAttribution:
    def _run(self, device, buggy, position=2):
        passes = list(default_passes())
        passes.insert(position, buggy)
        return run_pipeline(
            device,
            lower_netdef(build_network("lenet")),
            PipelineOptions(verify=True),
            passes=passes,
        )

    def test_shape_corruption_names_the_offending_pass(self, device):
        class BreakShapes(Pass):
            name = "BreakShapes"
            contracts = ("D001", "D002", "D006", "D007")

            def run(self, graph, ctx):
                graph.topological()[1].in_dims = (1, 1, 1, 1)
                return graph

        with pytest.raises(PassContractError) as exc:
            self._run(device, BreakShapes())
        assert exc.value.pass_name == "BreakShapes"
        assert exc.value.diagnostics
        assert "BreakShapes" in str(exc.value)

    def test_dangling_edge_attributed_to_structure_contract(self, device):
        class BreakEdges(Pass):
            name = "BreakEdges"

            def run(self, graph, ctx):
                graph.topological()[-1].inputs = ("ghost",)
                return graph

        with pytest.raises(PassContractError) as exc:
            self._run(device, BreakEdges())
        assert exc.value.pass_name == "BreakEdges"
        assert any(d.rule_id == "D002" for d in exc.value.diagnostics)

    def test_layout_break_after_insert_transforms_is_attributed(self, device):
        class BreakLayouts(Pass):
            name = "BreakLayouts"
            contracts = ("D003", "D004")

            def run(self, graph, ctx):
                # flip one conv's layout without touching its transforms
                for node in graph.topological():
                    if node.layout is not None:
                        node.layout = NCHW if node.layout == CHWN else CHWN
                        break
                return graph

        # right after InsertTransforms (index 2 in the default pipeline)
        with pytest.raises(PassContractError) as exc:
            self._run(device, BreakLayouts(), position=3)
        assert exc.value.pass_name == "BreakLayouts"

    def test_stranded_inverse_pair_is_attributed_to_insert_transforms(
        self, device
    ):
        """D005 is a warning in ``repro lint`` and still a contract break:
        a relabel that strands a transform-inverse pair around an LRN is
        reported against ``InsertTransforms``, which materializes it."""

        class StrandPair(Pass):
            name = "StrandPair"

            def run(self, graph, ctx):
                lrn = next(
                    n for n in graph
                    if n.kind is NodeKind.ELEMENTWISE
                    and {graph[s].layout for s in n.inputs} == {n.layout}
                    and {c.layout for c in graph.consumers(n.name)} == {n.layout}
                )
                lrn.layout = NCHW if lrn.layout == CHWN else CHWN
                return graph

        passes = list(default_passes())
        passes.insert(2, StrandPair())
        with pytest.raises(PassContractError) as exc:
            run_pipeline(
                device,
                lower_netdef(build_network("alexnet")),
                PipelineOptions(verify=True),
                passes=passes,
            )
        assert exc.value.pass_name == "InsertTransforms"
        assert {d.rule_id for d in exc.value.diagnostics} == {"D005"}
        assert {d.severity for d in exc.value.diagnostics} == {Severity.WARNING}

    def test_unassigned_layout_is_attributed_to_d008(self, device):
        class DropLayout(Pass):
            name = "DropLayout"
            contracts = ("D008",)

            def run(self, graph, ctx):
                next(n for n in graph if n.kind is NodeKind.CONV).layout = None
                return graph

        with pytest.raises(PassContractError) as exc:
            self._run(device, DropLayout(), position=3)
        assert exc.value.pass_name == "DropLayout"
        assert [d.rule_id for d in exc.value.diagnostics] == ["D008"]

    def test_unverified_run_does_not_check(self, device):
        class BreakEdges(Pass):
            name = "BreakEdges"

            def run(self, graph, ctx):
                graph.topological()[-1].inputs = ()
                return graph

        passes = list(default_passes())
        passes.insert(2, BreakEdges())
        # verify=False: the bug sails through the pipeline unchecked
        run_pipeline(
            device,
            lower_netdef(build_network("lenet")),
            PipelineOptions(),
            passes=passes,
        )


class TestContractDeclarations:
    def test_every_default_pass_declares_structure(self):
        for p in default_passes():
            assert {"D002", "D006", "D007"} <= set(p.contracts), p.name

    def test_no_inverse_pairs_is_insertion_only(self):
        """Only the first pass whose output carries transforms claims
        anything about inverse pairs (D005)."""
        claims = [p.name for p in default_passes() if "D005" in p.contracts]
        assert claims == ["InsertTransforms"]

    def test_every_declared_id_is_a_registered_d_rule(self):
        for p in default_passes():
            for rule_id in p.contracts:
                assert REGISTRY[rule_id].scope == "graph", (p.name, rule_id)

    def test_unknown_contract_name_is_rejected(self, device):
        """An unregistered D id, a rule of another scope and a name that
        is no rule id all raise."""

        class BadDeclaration(Pass):
            name = "BadDeclaration"

            def run(self, graph, ctx):
                return graph

        for bad_id in ("D999", "N001", "structure"):
            bad = BadDeclaration()
            bad.contracts = ("D002", bad_id)
            passes = list(default_passes())
            passes.insert(1, bad)
            with pytest.raises(ValueError, match=bad_id):
                run_pipeline(
                    device,
                    lower_netdef(build_network("lenet")),
                    PipelineOptions(verify=True),
                    passes=passes,
                )
