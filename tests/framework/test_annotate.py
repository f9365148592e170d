"""Layout annotations baked into network definitions (Section IV.D)."""

import numpy as np
import pytest

from repro.core import plan_optimal
from repro.framework import Net, parse_netdef
from repro.framework.annotate import (
    LayerAnnotation,
    annotations_from_plan,
    format_annotated_netdef,
    parse_annotated_netdef,
)
from repro.networks import build_network
from repro.tensors import CHWN, NCHW


@pytest.fixture(scope="module")
def alexnet_case():
    from repro.gpusim import TITAN_BLACK

    net = Net(build_network("alexnet"))
    plan = plan_optimal(TITAN_BLACK, net.definition)
    return net, plan


class TestAnnotationExtraction:
    def test_conv_and_pool_layers_annotated(self, alexnet_case):
        net, plan = alexnet_case
        ann = annotations_from_plan(plan.graph)
        assert set(ann) == {
            "conv1", "conv2", "conv3", "conv4", "conv5",
            "pool1", "pool2", "pool3",
        }
        assert ann["conv1"].layout == CHWN
        assert ann["conv2"].layout == NCHW
        assert ann["pool1"].coarsening is not None

    def test_encoding(self):
        a = LayerAnnotation(layout=CHWN, implementation="chwn-coarsened",
                            coarsening=(3, 2))
        assert a.encode() == "layout=CHWN impl=chwn-coarsened coarsen=3x2"


class TestRoundTrip:
    def test_annotated_netdef_roundtrips(self, alexnet_case):
        net, plan = alexnet_case
        ann = annotations_from_plan(plan.graph)
        text = format_annotated_netdef(net.definition, ann)
        parsed_net, parsed_ann = parse_annotated_netdef(text)
        assert parsed_net == net.definition
        assert parsed_ann == ann

    def test_plain_parser_ignores_annotations(self, alexnet_case):
        net, plan = alexnet_case
        text = format_annotated_netdef(
            net.definition, annotations_from_plan(plan.graph)
        )
        assert parse_netdef(text) == net.definition

    def test_annotation_for_unknown_layer_rejected(self):
        text = (
            "network x batch=2 input=1x8x8\n"
            "conv c1 co=2 f=3 stride=1 pad=0 relu=1\n"
            "#@ nosuch layout=CHWN impl=direct\n"
        )
        with pytest.raises(ValueError, match="unknown layers"):
            parse_annotated_netdef(text)

    def test_malformed_annotation_rejected(self):
        text = "network x batch=2 input=1x8x8\n#@ c1\n"
        with pytest.raises(ValueError, match="malformed|needs"):
            parse_annotated_netdef(text)


class TestAnnotatedExecution:
    def test_annotations_drive_numeric_execution(self, device):
        """Baked-in layout fields reproduce the planned execution exactly."""
        small = Net(build_network("alexnet", batch=2))
        small_plan = plan_optimal(device, small.definition)
        ann = annotations_from_plan(small_plan.graph)
        text = format_annotated_netdef(small.definition, ann)
        parsed_net, parsed_ann = parse_annotated_netdef(text)
        rebuilt = Net(parsed_net)
        weights = rebuilt.init_weights()
        x = rebuilt.make_input(seed=0)
        a = rebuilt.forward(x, weights, annotations=ann)
        b = rebuilt.forward(x, weights, annotations=parsed_ann)
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)
        assert parsed_ann == ann
