"""Buffer liveness over the graph IR: intervals, hazards, and the
liveness-based peak-memory curve.

``framework.memory.network_footprint`` models the Caffe allocator the
paper measured against: every activation lives for the whole run and the
peak adds one largest workspace.  That is sound but loose — an inference
allocator that frees each buffer after its *last use* (interval liveness,
as in Demmel & Dinh's communication-optimal analysis and cuDNN workspace
accounting) peaks much lower.  This module computes that model:

* :func:`buffer_intervals` — first-def/last-use schedule intervals per
  buffer (a buffer is named by its producing node; ``""`` is the network
  input), in one sweep over the schedule;
* :func:`liveness_footprint` — the step-by-step live-byte curve and its
  peak, directly comparable to ``network_footprint(graph).peak_bytes``
  (both models size buffers, weights, workspaces and transform scratch
  with the same ``framework.memory`` helpers);
* :func:`check_liveness` — use-outside-interval (use-after-free under a
  last-use-free allocator) and duplicate-edge double-free/double-count
  hazards, surfaced as the D006/D007 lint rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ...framework.memory import (
    _buffer_bytes,
    _input_bytes,
    _transform_bytes,
    _weights_bytes,
    _workspace_bytes,
)
from ...ir.graph import Graph, GraphNode
from ..rules.base import Finding

INPUT_BUFFER = ""  # the network-input pseudo buffer


@dataclass(frozen=True)
class BufferInterval:
    """One buffer's life in schedule order: defined at ``start`` (the
    producing step; -1 for the network input), last used at ``end``."""

    buffer: str
    start: int
    end: int
    nbytes: int

    def live_at(self, step: int) -> bool:
        return self.start <= step <= self.end


def buffer_intervals(graph: Graph) -> dict[str, BufferInterval]:
    """First-def/last-use intervals for every buffer, in schedule order.

    A buffer's interval runs from its defining step to the last step that
    lists it as an input (a linear-schedule allocator cannot free it
    earlier).  A buffer with no consumers ends at its defining step.  The
    network input starts at -1 — live before the first node runs — and is
    read by the nodes with no inputs.
    """
    order = graph.topological()
    last_use: dict[str, int] = {INPUT_BUFFER: -1}
    for step, node in enumerate(order):
        for buffer in node.inputs or (INPUT_BUFFER,):
            last_use[buffer] = step
    intervals: dict[str, BufferInterval] = {}
    intervals[INPUT_BUFFER] = BufferInterval(
        INPUT_BUFFER, -1, last_use[INPUT_BUFFER], _input_bytes(graph)
    )
    for start, node in enumerate(order):
        intervals[node.name] = BufferInterval(
            node.name,
            start,
            max(last_use.get(node.name, start), start),
            _buffer_bytes(graph, node),
        )
    return intervals


def _scratch_bytes(graph: Graph, node: GraphNode) -> int:
    """Transient scratch live while ``node`` executes: the larger of its
    conv workspace (im2col/FFT buffers under the selected implementation)
    and its largest transform destination buffer.  The two never coexist —
    a transform's scratch is freed before the kernel launches (the paper's
    "freed right after the layout transformation is completed")."""
    return max(_workspace_bytes(node), _transform_bytes(graph, node))


@dataclass(frozen=True)
class LivenessFootprint:
    """The liveness-based memory model for one annotated graph."""

    #: (step name, live bytes while that step executes), in schedule order
    curve: tuple[tuple[str, int], ...]
    peak_bytes: int
    peak_step: str
    weights_bytes: int
    intervals: dict[str, BufferInterval]

    def summary(self) -> str:
        mib = 1 << 20
        lines = [
            f"liveness peak {self.peak_bytes / mib:.1f} MiB at {self.peak_step} "
            f"(weights {self.weights_bytes / mib:.1f} MiB resident)"
        ]
        for name, live in self.curve:
            bar = "#" * max(1, int(40 * live / self.peak_bytes)) if self.peak_bytes else ""
            lines.append(f"  {name:14s} {live / mib:9.1f} MiB {bar}")
        return "\n".join(lines)


def liveness_footprint(graph: Graph, training: bool = False) -> LivenessFootprint:
    """Step-by-step live bytes under a last-use-free allocator.

    At each step the live set is: resident weights, every activation
    buffer whose interval covers the step, and the executing node's
    scratch.  ``training=True`` pins every activation to the end of the
    schedule (the backward pass re-reads them), doubles activations and
    triples weights — the same multipliers as ``network_footprint``, so
    the two models stay directly comparable.
    """
    order = graph.topological()
    intervals = buffer_intervals(graph)
    weights = sum(_weights_bytes(node) for node in order)
    if training:
        weights *= 3
        end = len(order) - 1
        intervals = {
            name: BufferInterval(iv.buffer, iv.start, end, iv.nbytes)
            for name, iv in intervals.items()
        }
    act_scale = 2 if training else 1
    curve: list[tuple[str, int]] = []
    peak, peak_step = 0, ""
    for i, node in enumerate(order):
        live = weights
        live += act_scale * sum(
            iv.nbytes for iv in intervals.values() if iv.live_at(i)
        )
        live += _scratch_bytes(graph, node)
        curve.append((node.name, live))
        if live > peak:
            peak, peak_step = live, node.name
    return LivenessFootprint(
        curve=tuple(curve),
        peak_bytes=peak,
        peak_step=peak_step,
        weights_bytes=weights,
        intervals=intervals,
    )


# ---------------------------------------------------------------------------
# hazards
# ---------------------------------------------------------------------------


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
