"""Layout annotations in network definitions (paper Section IV.D).

"Applying our data layout support requires two changes.  The first is to
add a new field in each convolutional and pooling layer to indicate the
data layout choice.  By scanning through the network once, the field in
each layer is set ... The second is at the runtime ... an additional check
is inserted to determine whether a data layout transformation is needed
before passing the output to the next layer."

This module is that first change: a planned graph's conv/pool choices can
be *baked into* a :class:`NetworkDef` as per-layer annotations, serialized
with the network (the text format grows a ``layout=`` key), and parsed
back into the same annotation map, which the runtime consumes directly.
The runtime check is :meth:`repro.framework.net.Net.forward`'s transform
insertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.graph import Graph
from ..tensors.layout import DataLayout, parse_layout
from .netdef import NetworkDef


@dataclass(frozen=True)
class LayerAnnotation:
    """The per-layer fields Section IV.D adds to the configuration file."""

    layout: DataLayout
    implementation: str
    coarsening: tuple[int, int] | None = None

    def encode(self) -> str:
        parts = [f"layout={self.layout}", f"impl={self.implementation}"]
        if self.coarsening:
            parts.append(f"coarsen={self.coarsening[0]}x{self.coarsening[1]}")
        return " ".join(parts)


def annotations_from_plan(graph: Graph) -> dict[str, LayerAnnotation]:
    """Extract the conv/pool layout fields from a planned graph."""
    return {
        node.name: LayerAnnotation(
            layout=node.kernel_layout,
            implementation=node.implementation or "",
            coarsening=node.coarsening,
        )
        for node in graph.topological()
        if node.kernel_layout is not None
    }


def format_annotated_netdef(
    net: NetworkDef, annotations: dict[str, LayerAnnotation]
) -> str:
    """Serialize a network with its layout fields.

    The output extends the plain text format with comment-marked annotation
    lines, so un-annotated parsers still read the topology.
    """
    from .netdef import format_netdef

    base_lines = format_netdef(net).splitlines()
    out: list[str] = []
    for line in base_lines:
        out.append(line)
        tokens = line.split()
        if len(tokens) >= 2 and tokens[0] in ("conv", "pool"):
            ann = annotations.get(tokens[1])
            if ann is not None:
                out.append(f"#@ {tokens[1]} {ann.encode()}")
    return "\n".join(out) + "\n"


def parse_annotated_netdef(
    text: str,
) -> tuple[NetworkDef, dict[str, LayerAnnotation]]:
    """Parse a network plus its layout annotations."""
    from .netdef import parse_netdef

    annotations: dict[str, LayerAnnotation] = {}
    plain_lines: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#@"):
            tokens = stripped[2:].split()
            if len(tokens) < 2:
                raise ValueError(f"line {line_no}: malformed annotation")
            name, *kvs = tokens
            fields = dict(kv.split("=", 1) for kv in kvs)
            if "layout" not in fields or "impl" not in fields:
                raise ValueError(
                    f"line {line_no}: annotation needs layout= and impl="
                )
            coarsen = None
            if "coarsen" in fields:
                ux, uy = fields["coarsen"].split("x")
                coarsen = (int(ux), int(uy))
            annotations[name] = LayerAnnotation(
                layout=parse_layout(fields["layout"]),
                implementation=fields["impl"],
                coarsening=coarsen,
            )
        else:
            plain_lines.append(raw)
    net = parse_netdef("\n".join(plain_lines))
    known = {layer.name for layer in net.layers}
    unknown = set(annotations) - known
    if unknown:
        raise ValueError(f"annotations for unknown layers: {sorted(unknown)}")
    return net, annotations
