"""Property-based fuzzing over random network definitions.

A hypothesis strategy builds random-but-valid CNN stacks; the properties
assert the invariants every component must hold for *any* network, not
just the five benchmark ones: shape resolution is consistent, the text
format round-trips, the optimal plan dominates single-layout plans, and the
numeric forward is a probability distribution that does not depend on the
layout plan.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import plan_optimal, plan_single_layout
from repro.framework import (
    ConvDef,
    FCDef,
    LRNDef,
    Net,
    NetworkDef,
    PoolDef,
    SoftmaxDef,
    annotations_from_plan,
    format_netdef,
    parse_netdef,
)
from repro.gpusim import TITAN_BLACK
from repro.tensors import CHWN, NCHW


@st.composite
def network_defs(draw) -> NetworkDef:
    """A random valid stack: 1-3 conv blocks, optional LRN/pool, FC head."""
    batch = draw(st.sampled_from([2, 4, 8]))
    channels = draw(st.sampled_from([1, 3]))
    extent = draw(st.sampled_from([12, 16, 20]))
    layers = []
    h = extent
    n_blocks = draw(st.integers(1, 3))
    for b in range(n_blocks):
        f = draw(st.sampled_from([3, 5]))
        pad = draw(st.sampled_from([0, f // 2]))
        out_h = h + 2 * pad - f + 1
        if out_h < 4:
            break
        layers.append(
            ConvDef(f"conv{b}", co=draw(st.sampled_from([4, 8])), f=f, pad=pad)
        )
        h = out_h
        if draw(st.booleans()):
            layers.append(LRNDef(f"lrn{b}", depth=draw(st.sampled_from([3, 5]))))
        if h >= 4 and draw(st.booleans()):
            window = draw(st.sampled_from([2, 3]))
            stride = draw(st.sampled_from([2, window]))
            if window <= h:
                layers.append(
                    PoolDef(
                        f"pool{b}", window=window, stride=stride,
                        op=draw(st.sampled_from(["max", "avg"])),
                    )
                )
                h = -(-(h - window) // stride) + 1
    layers.append(FCDef("fc_head", out_features=draw(st.sampled_from([8, 16]))))
    layers.append(FCDef("fc_out", out_features=4, relu=False))
    layers.append(SoftmaxDef("prob"))
    return NetworkDef("fuzz", batch, channels, extent, extent, tuple(layers))


class TestResolvedShapes:
    @given(netdef=network_defs())
    @settings(max_examples=40, deadline=None)
    def test_resolution_is_consistent(self, netdef):
        net = Net(netdef)
        prev_dims = (netdef.batch, netdef.in_channels, netdef.in_h, netdef.in_w)
        for layer in net.layers:
            if layer.in_dims is not None:
                assert layer.in_dims == prev_dims
            if layer.out_dims is not None:
                assert all(d > 0 for d in layer.out_dims)
                prev_dims = layer.out_dims

    @given(netdef=network_defs())
    @settings(max_examples=40, deadline=None)
    def test_netdef_roundtrips(self, netdef):
        assert parse_netdef(format_netdef(netdef)) == netdef


class TestPlannerProperties:
    @given(netdef=network_defs())
    @settings(max_examples=15, deadline=None)
    def test_optimal_dominates_single_layouts(self, netdef):
        opt = plan_optimal(TITAN_BLACK, netdef).total_ms
        for layout in (CHWN, NCHW):
            single = plan_single_layout(
                TITAN_BLACK, netdef, layout, tune_pooling=True
            ).total_ms
            assert opt <= single + 1e-9

    @given(netdef=network_defs())
    @settings(max_examples=15, deadline=None)
    def test_plan_covers_every_layer_once(self, netdef):
        net = Net(netdef)
        plan = plan_optimal(TITAN_BLACK, netdef)
        assert [n.name for n in plan.graph] == [l.name for l in net.layers]


class TestNumericProperties:
    @given(netdef=network_defs(), seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_forward_is_a_distribution_and_plan_invariant(self, netdef, seed):
        net = Net(netdef)
        weights = net.init_weights(seed=seed)
        x = net.make_input(seed=seed)
        out = net.forward(x, weights)
        assert out.shape == (netdef.batch, 4)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-4)
        plan = plan_optimal(TITAN_BLACK, netdef)
        out_planned = net.forward(
            x, weights, annotations=annotations_from_plan(plan.graph)
        )
        np.testing.assert_allclose(out_planned, out, rtol=1e-3, atol=1e-4)
