"""Capstone integration: the complete user journey, one test per stage.

calibrate → plan → annotate/serialize → execute numerically → train →
account memory → time against the baselines.  Each stage consumes the
previous stage's artifact, so a regression anywhere in the stack surfaces
here even if the unit tests around it still pass.
"""

import numpy as np
import pytest

from repro import (
    Net,
    build_network,
    calibrate,
    compare_schemes,
    plan_optimal,
    preferred_conv_layout,
    time_network,
)
from repro.core.pipeline import plan_network
from repro.core.planner import NodeKind
from repro.data import synthetic_digits
from repro.framework import (
    annotations_from_plan,
    format_annotated_netdef,
    network_footprint,
    parse_annotated_netdef,
    train,
)


@pytest.fixture(scope="module")
def journey(device):
    """Run the whole pipeline once; stages assert against this record."""
    record = {}
    record["thresholds"] = calibrate(device).thresholds
    net = Net(build_network("cifar"))
    record["net"] = net
    planned = plan_network(device, net.definition)
    ann = annotations_from_plan(planned.graph)
    record["serialized"] = format_annotated_netdef(net.definition, ann)
    record["schemes"] = compare_schemes(net.definition, device, ("cudnn-best", "opt"))
    record["footprint"] = network_footprint(planned.graph, training=True)
    return record


class TestJourney:
    def test_calibration_feeds_the_heuristic(self, journey, device):
        """The (Ct, Nt) rules describe the direct-vs-MM trade-off, so they
        must match the profiled plan computed in that regime (no FFT —
        with FFT allowed the optimal plan may diverge, exactly as the paper's
        AlexNet plan does at N=128)."""
        thresholds = journey["thresholds"]
        net = journey["net"]
        no_fft = plan_optimal(device, net.definition, allow_fft=False)
        plan_layouts = {n.name: n.layout for n in no_fft.graph}
        for layer in net.layers:
            if layer.kind is NodeKind.CONV:
                assert plan_layouts[layer.name] == preferred_conv_layout(
                    layer.spec, thresholds
                ), layer.name

    def test_serialized_plan_round_trips_and_executes(self, journey):
        netdef, ann = parse_annotated_netdef(journey["serialized"])
        small = Net(build_network("cifar", batch=4))
        x = small.make_input(seed=0)
        w = small.init_weights()
        np.testing.assert_allclose(
            small.forward(x, w, annotations=ann),
            small.forward(x, w),
            rtol=1e-3,
            atol=1e-4,
        )
        assert netdef == journey["net"].definition

    def test_opt_beats_the_best_library(self, journey):
        schemes = journey["schemes"]
        assert schemes["opt"].total_ms <= schemes["cudnn-best"].total_ms

    def test_training_works_on_the_same_network(self, device):
        ds = synthetic_digits(n_samples=64, image=24, n_classes=4, seed=2)
        # CIFAR expects 3 channels; tile the grey digits.
        images = np.repeat(ds.images, 3, axis=1)
        net = Net(build_network("cifar", batch=16))
        # shrink the classifier to the synthetic label space
        from repro.framework import FCDef, NetworkDef

        defn = net.definition
        layers = tuple(
            FCDef("fc2", out_features=4, relu=False)
            if getattr(l, "name", "") == "fc2"
            else l
            for l in defn.layers
        )
        retargeted = Net(
            NetworkDef(defn.name, 16, defn.in_channels, defn.in_h, defn.in_w, layers)
        )
        _, history = train(retargeted, images, ds.labels, steps=10, lr=0.05)
        assert history[-1].loss < history[0].loss

    def test_footprint_fits_the_card(self, journey, device):
        assert journey["footprint"].fits(device)

    def test_training_timing_consistent_with_inference(self, journey, device):
        net = journey["net"]
        fwd = time_network(net.definition, device, "opt").total_ms
        trn = time_network(net.definition, device, "opt", training=True).total_ms
        assert 2.0 < trn / fwd < 4.5
