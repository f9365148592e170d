"""Buffer-liveness hazards over the graph IR, surfaced as the D006/D007
lint rules.

The footprint model that frees each buffer after its last use lives in
``framework.memory`` (:func:`~repro.framework.memory.liveness_footprint`,
one of its two interval choices).  Its intervals assume a sound graph;
these checks find where a graph breaks that assumption:

* :func:`check_liveness` — use-outside-interval (use-after-free under a
  last-use-free allocator);
* :func:`check_double_counts` — a duplicate edge the allocator would
  free, and the footprint count, twice.
"""

from __future__ import annotations

from typing import Iterator

from ...ir.graph import Graph
from ..rules.base import Finding


def check_liveness(graph: Graph) -> Iterator[Finding]:
    """Use-after-free hazards: a node reading a buffer outside the
    interval a last-use-free allocator would keep it alive for — i.e. a
    consumer scheduled before its producer has defined the buffer."""
    position = {name: i for i, name in enumerate(graph.nodes)}
    for node in graph.topological():
        for src in node.inputs:
            if src in position and position[src] >= position[node.name]:
                yield Finding(
                    node.name,
                    f"reads buffer {src!r} before it is defined in schedule "
                    f"order — the allocator would have freed (or never "
                    f"allocated) it at this step",
                    {"edge": src, "kind": "use-outside-interval"},
                )


def check_double_counts(graph: Graph) -> Iterator[Finding]:
    """Double-free/double-count hazards: a duplicate input edge makes the
    allocator model release (and the footprint model count) the same
    buffer once per reference."""
    for node in graph.topological():
        seen: set[str] = set()
        for src in node.inputs:
            if src in seen:
                yield Finding(
                    node.name,
                    f"duplicate edge from {src!r}: the buffer would be "
                    f"counted twice and freed twice by the allocator model",
                    {"edge": src, "kind": "double-free"},
                )
            seen.add(src)
