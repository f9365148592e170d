"""Device-memory footprint accounting for whole networks.

Reproduces the paper's Section VI.A bookkeeping: "in AlexNet, the
additional memory space overhead is only 73.5 MB, which is less than 3%
compared to the memory footprint of around 3 GB.  Furthermore, the
additional memory ... is freed right after the layout transformation is
completed."

There is one footprint model: the step-by-step live-byte curve of a
planned graph under a choice of buffer intervals.  :func:`_footprint`
applies the training multipliers and the scratch rule and walks the
schedule; the two allocators differ only in the intervals they pass it:

* :func:`network_footprint` — the Caffe allocator the paper measured
  against.  Every blob is allocated before the first layer runs and kept
  for the whole run, so every buffer lives over [-1, last step]; the peak
  is the resident activations and weights plus the largest single scratch.
* :func:`liveness_footprint` — a last-use-free allocator (interval
  liveness, as in Demmel & Dinh's communication-optimal analysis and
  cuDNN workspace accounting): each buffer lives over its
  :func:`buffer_intervals` interval, from its defining step to its last
  reader.  Training pins every interval to the last step, since the
  backward pass re-reads every activation.

A buffer is named by its producing node; ``""`` is the network input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod
from typing import TYPE_CHECKING

from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext
from ..ir.graph import Graph, GraphNode, NodeKind
from ..layers.base import ConvSpec, FCSpec, SoftmaxSpec
from ..layers.conv_kernels import ConvUnsupportedError, make_conv_kernel
from .netdef import NetworkDef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import PipelineResult

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


@dataclass(frozen=True)
class MemoryFootprint:
    """One network's memory under one plan and one allocator."""

    #: (step name, live bytes while that step executes), in schedule order
    curve: tuple[tuple[str, int], ...]
    peak_bytes: int
    peak_step: str  # "" when the peak is the allocation before the first step
    activations_bytes: int  # every activation buffer, gradients included
    weights_bytes: int
    workspace_bytes: int  # largest im2col/FFT workspace (freed after use)
    transform_bytes: int  # largest transform destination buffer
    intervals: dict[str, BufferInterval]

    @property
    def resident_bytes(self) -> int:
        return self.activations_bytes + self.weights_bytes

    @property
    def transform_overhead_fraction(self) -> float:
        """The paper's "<3%" metric: transform scratch over the footprint."""
        return self.transform_bytes / self.resident_bytes if self.resident_bytes else 0.0

    def fits(self, device: DeviceSpec) -> bool:
        return self.peak_bytes <= device.dram_bytes

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


# -- sizing ------------------------------------------------------------------


def _buffer_bytes(graph: Graph, node: GraphNode) -> int:
    """Bytes of one node's output buffer (fp32)."""
    if node.out_dims is not None:
        return 4 * prod(node.out_dims)
    if node.out_features is not None:
        spec = node.spec
        batch = spec.n if isinstance(spec, (FCSpec, SoftmaxSpec)) else graph.batch
        return 4 * batch * node.out_features
    return 0


def _weights_bytes(node: GraphNode) -> int:
    """Resident parameter bytes of one node: filters or FC weights, plus bias."""
    spec = node.spec
    if isinstance(spec, ConvSpec):
        return spec.filter_bytes + 4 * spec.co
    if isinstance(spec, FCSpec):
        return 4 * (spec.in_features * spec.out_features + spec.out_features)
    return 0


def _workspace_bytes(node: GraphNode) -> int:
    """A conv node's im2col/FFT workspace under its selected implementation
    (im2col when the graph is unplanned); 0 for every other node.

    A spec the implementation cannot run (FFT with stride > 1 raises
    :class:`ConvUnsupportedError`) contributes no workspace; an unknown
    implementation raises :class:`ValueError` naming the node.
    """
    if node.kind is not NodeKind.CONV or not isinstance(node.spec, ConvSpec):
        return 0
    try:
        kernel = make_conv_kernel(node.spec, node.implementation or "im2col")
    except ConvUnsupportedError:
        return 0
    except ValueError as exc:
        raise ValueError(f"node {node.name!r}: {exc}") from None
    return int(kernel.workspace_bytes())


def _transform_bytes(graph: Graph, node: GraphNode) -> int:
    """The largest transform destination buffer on ``node``'s input edges.

    Each transform's scratch is the size of the tensor it relays — its
    edge's producer output, not the node's whole input (a concat relays one
    branch at a time) — and is freed right after the transform completes.
    """
    largest = 0
    for t in node.transforms:
        dims = graph.transform_dims(node, t)
        if dims is not None:
            largest = max(largest, 4 * prod(dims))
    return largest


# -- the two interval choices ------------------------------------------------


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
        INPUT_BUFFER, -1, last_use[INPUT_BUFFER], 4 * prod(graph.in_dims)
    )
    for start, node in enumerate(order):
        intervals[node.name] = BufferInterval(
            node.name,
            start,
            max(last_use.get(node.name, start), start),
            _buffer_bytes(graph, node),
        )
    return intervals


def network_footprint(graph: Graph, training: bool = False) -> MemoryFootprint:
    """The footprint under the Caffe allocator: every buffer is allocated
    before the first layer runs and lives to the last step.

    The graph's annotations are the plan: each conv's selected
    implementation sizes its workspace and each edge transform its
    scratch.  An unplanned graph (shapes only) assumes the conservative
    NCHW/im2col path with no transforms.
    """
    last = len(graph) - 1
    intervals = {
        name: replace(iv, start=-1, end=last)
        for name, iv in buffer_intervals(graph).items()
    }
    return _footprint(graph, intervals, training)


def liveness_footprint(graph: Graph, training: bool = False) -> MemoryFootprint:
    """The footprint under a last-use-free allocator: each buffer lives
    over its :func:`buffer_intervals` interval, or to the last step under
    training (the backward pass re-reads every activation)."""
    intervals = buffer_intervals(graph)
    if training:
        last = len(graph) - 1
        intervals = {name: replace(iv, end=last) for name, iv in intervals.items()}
    return _footprint(graph, intervals, training)


def _footprint(
    graph: Graph, intervals: dict[str, BufferInterval], training: bool
) -> MemoryFootprint:
    """The live-byte curve of ``graph`` with each buffer live over its
    interval.

    While a step executes the live set is the resident weights, every
    activation buffer whose interval covers the step, and the step's
    scratch: the larger of its conv workspace and its largest transform
    destination buffer.  The two never coexist — a transform's scratch is
    freed before the kernel launches.  Training doubles activations
    (gradients mirror them) and triples weights (parameter, gradient and
    momentum buffers).
    """
    act_scale, weight_scale = (2, 3) if training else (1, 1)
    order = graph.topological()
    weights = weight_scale * sum(_weights_bytes(node) for node in order)

    def live_at(step: int) -> int:
        return weights + act_scale * sum(
            iv.nbytes for iv in intervals.values() if iv.live_at(step)
        )

    # Before the first step the allocator already holds the weights and
    # every buffer that starts at -1; a network with no steps peaks there.
    peak, peak_step = live_at(-1), ""
    curve: list[tuple[str, int]] = []
    workspace = transform = 0
    for step, node in enumerate(order):
        node_workspace = _workspace_bytes(node)
        node_transform = _transform_bytes(graph, node)
        workspace = max(workspace, node_workspace)
        transform = max(transform, node_transform)
        live = live_at(step) + max(node_workspace, node_transform)
        curve.append((node.name, live))
        if live > peak:
            peak, peak_step = live, node.name
    return MemoryFootprint(
        curve=tuple(curve),
        peak_bytes=peak,
        peak_step=peak_step,
        activations_bytes=act_scale * sum(iv.nbytes for iv in intervals.values()),
        weights_bytes=weights,
        workspace_bytes=workspace,
        transform_bytes=transform,
        intervals=intervals,
    )


def plan_within_memory(
    device: DeviceSpec,
    net: NetworkDef,
    training: bool = False,
    context: SimulationContext | None = None,
) -> tuple[PipelineResult, MemoryFootprint]:
    """Plan layouts subject to the card's memory capacity.

    The unconstrained optimum may pick FFT convolutions whose frequency-
    domain workspace, combined with the resident activations, exceeds
    device memory.  When that happens the plan is re-derived without FFT
    implementations.  The planner does not ask the per-kernel
    :func:`~repro.gpusim.session.check_fit`, so a picked kernel need not
    fit even alone: on the 6 GiB Titan Black the VGG optimum binds FFT
    kernels needing 6.75-9.89 GiB, and it is the network footprint that
    drops them here.
    """
    from ..core.pipeline import PipelineOptions, plan_network

    result = plan_network(
        device, net, PipelineOptions(strategy="optimal"), context=context
    )
    footprint = network_footprint(result.graph, training=training)
    if not footprint.fits(device):
        result = plan_network(
            device, net,
            PipelineOptions(strategy="optimal", allow_fft=False),
            context=context,
        )
        footprint = network_footprint(result.graph, training=training)
    return result, footprint


def format_footprint(fp: MemoryFootprint) -> str:
    """Human-readable footprint summary."""
    mib = 1 << 20
    return (
        f"activations {fp.activations_bytes / mib:8.1f} MiB | "
        f"weights {fp.weights_bytes / mib:8.1f} MiB | "
        f"workspace {fp.workspace_bytes / mib:8.1f} MiB | "
        f"transform scratch {fp.transform_bytes / mib:6.1f} MiB "
        f"({fp.transform_overhead_fraction:.1%} of resident)"
    )
