"""Shared hypothesis strategies for random annotated IR graphs.

``annotated_graphs()`` draws coherent DAGs: every edge's shape facts
agree, every layout disagreement carries a matching transform, and no
node reads a buffer outside its interval — so the dataflow verifier must
be ERROR-silent on every draw.  Corruption tests then break one property
at a time and assert the matching D-rule fires.  The module is imported
by both the lint-graph and dataflow test suites (one generator, not two
slightly different ones).
"""

from hypothesis import strategies as st

from repro.ir.graph import EdgeTransform, Graph, GraphNode, NodeKind
from repro.layers import ConvSpec, PoolSpec
from repro.tensors import CHWN, NCHW

LAYOUTS = (CHWN, NCHW)


def _conv_spec(in_dims, co: int) -> ConvSpec:
    """A 3x3, unit-padded conv: it keeps the input's H/W."""
    return ConvSpec(*in_dims, co=co, fh=3, fw=3, pad=1)


@st.composite
def annotated_graphs(draw, min_nodes: int = 2, max_nodes: int = 9) -> Graph:
    """A random coherent DAG with shape, layout and transform annotations.

    Nodes keep a constant H/W so any pair of them is concat-compatible
    (convs are 3x3 with unit padding, pools 1x1 windows), and each conv
    and pool carries the spec its dims imply.  Layout-agnostic nodes
    inherit their first producer's layout (the same policy the pipeline's
    elimination pass converges to, so no inverse-pair warnings are baked
    in by construction).
    """
    batch = draw(st.sampled_from([2, 4]))
    hw = draw(st.sampled_from([4, 8]))
    channels = draw(st.integers(min_value=1, max_value=4))
    g = Graph("rand", batch=batch, in_channels=channels, in_h=hw, in_w=hw)

    out_dims: dict[str, tuple[int, int, int, int]] = {}
    layout_of: dict[str, object] = {}

    first_layout = draw(st.sampled_from(LAYOUTS))
    entry_out = (batch, draw(st.integers(1, 6)), hw, hw)
    g.add(
        GraphNode(
            "n0",
            NodeKind.CONV,
            in_dims=(batch, channels, hw, hw),
            out_dims=entry_out,
            layout=first_layout,
            spec=_conv_spec((batch, channels, hw, hw), entry_out[1]),
        )
    )
    out_dims["n0"] = entry_out
    layout_of["n0"] = first_layout

    n_nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    for i in range(1, n_nodes):
        name = f"n{i}"
        existing = sorted(out_dims)
        kind = draw(
            st.sampled_from(
                [NodeKind.CONV, NodeKind.POOL, NodeKind.ELEMENTWISE]
                + ([NodeKind.CONCAT] if len(existing) >= 2 else [])
            )
        )
        if kind is NodeKind.CONCAT:
            k = draw(st.integers(2, min(3, len(existing))))
            inputs = tuple(
                draw(
                    st.lists(
                        st.sampled_from(existing),
                        min_size=k,
                        max_size=k,
                        unique=True,
                    )
                )
            )
            dims = (
                batch,
                sum(out_dims[s][1] for s in inputs),
                hw,
                hw,
            )
            in_dims = out_dims[inputs[0]]
            layout = layout_of[inputs[0]]  # inherit: no baked-in islands
        else:
            src = draw(st.sampled_from(existing))
            inputs = (src,)
            in_dims = out_dims[src]
            if kind is NodeKind.CONV:
                dims = (batch, draw(st.integers(1, 6)), hw, hw)
                layout = draw(st.sampled_from(LAYOUTS))
            else:
                dims = in_dims
                layout = (
                    draw(st.sampled_from(LAYOUTS))
                    if kind is NodeKind.POOL
                    else layout_of[src]
                )
        if kind is NodeKind.CONV:
            spec = _conv_spec(in_dims, dims[1])
        elif kind is NodeKind.POOL:
            spec = PoolSpec(*in_dims, window=1, stride=1)
        else:
            spec = None
        g.add(
            GraphNode(
                name,
                kind,
                inputs=inputs,
                in_dims=in_dims,
                out_dims=dims,
                layout=layout,
                spec=spec,
            )
        )
        out_dims[name] = dims
        layout_of[name] = layout

    # every layout disagreement gets the transform the pipeline would insert
    for node in g:
        transforms = []
        for src in node.inputs:
            if layout_of[src] != layout_of[node.name]:
                transforms.append(
                    EdgeTransform(
                        src=src,
                        from_layout=layout_of[src],
                        to_layout=layout_of[node.name],
                        ms=0.05,
                    )
                )
        if transforms:
            node.transforms = tuple(transforms)
    return g
