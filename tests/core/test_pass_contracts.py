"""Pass-contract verification: ``PipelineOptions(verify=True)`` checks
each pass's declared invariants and attributes the first violation."""

import pytest

from repro.core.pipeline import (
    PassContractError,
    PipelineOptions,
    Pass,
    default_passes,
    plan_network,
    run_pipeline,
)
from repro.ir.build import lower_netdef
from repro.networks import NETWORK_BUILDERS, build_network
from repro.tensors import CHWN, NCHW


class TestVerifiedPipeline:
    def test_all_default_passes_hold_their_contracts(self, device, titan_x):
        """Every bundled network on both devices under both strategies,
        ``InsertTransforms``' ``no-inverse-pairs`` claim (lint rule D005)
        included.  D005 flags only a node whose relabel would cancel every
        incident disagreement; the fine-tune's partial win at inception's
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
            contracts = ("structure", "shapes")

            def run(self, graph, ctx):
                graph.topological()[1].in_dims = (1, 1, 1, 1)
                return graph

        with pytest.raises(PassContractError) as exc:
            self._run(device, BreakShapes())
        assert exc.value.pass_name == "BreakShapes"
        assert exc.value.violations
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
        assert any(v.contract == "structure" for v in exc.value.violations)

    def test_layout_break_after_insert_transforms_is_attributed(self, device):
        class BreakLayouts(Pass):
            name = "BreakLayouts"
            contracts = ("layout-coherent",)

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
            assert "structure" in p.contracts, p.name

    def test_no_inverse_pairs_is_insertion_only(self):
        """Only the first pass whose output carries transforms claims
        anything about inverse pairs."""
        claims = [p.name for p in default_passes() if "no-inverse-pairs" in p.contracts]
        assert claims == ["InsertTransforms"]

    def test_unknown_contract_name_is_rejected(self, device):
        class BadDeclaration(Pass):
            name = "BadDeclaration"
            contracts = ("structure", "no-such-contract")

            def run(self, graph, ctx):
                return graph

        passes = list(default_passes())
        passes.insert(1, BadDeclaration())
        with pytest.raises(ValueError, match="no-such-contract"):
            run_pipeline(
                device,
                lower_netdef(build_network("lenet")),
                PipelineOptions(verify=True),
                passes=passes,
            )
