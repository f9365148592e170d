"""Device-memory footprint accounting for whole networks.

Reproduces the paper's Section VI.A bookkeeping: "in AlexNet, the
additional memory space overhead is only 73.5 MB, which is less than 3%
compared to the memory footprint of around 3 GB.  Furthermore, the
additional memory ... is freed right after the layout transformation is
completed."

The footprint model matches a Caffe-style allocator: every layer's input
and output activations are live for the whole run (training keeps them for
the backward pass), weights are resident, and the transient peak adds the
largest single workspace (im2col buffer, FFT frequency tensors, or a layout
transform's destination buffer — whichever the plan actually uses).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class MemoryFootprint:
    """Byte-level accounting for one network under one plan."""

    activations_bytes: int
    weights_bytes: int
    workspace_bytes: int  # largest transient buffer (freed after use)
    transform_bytes: int  # largest transform destination buffer

    @property
    def resident_bytes(self) -> int:
        return self.activations_bytes + self.weights_bytes

    @property
    def peak_bytes(self) -> int:
        return self.resident_bytes + max(self.workspace_bytes, self.transform_bytes)

    @property
    def transform_overhead_fraction(self) -> float:
        """The paper's "<3%" metric: transform scratch over the footprint."""
        return self.transform_bytes / self.resident_bytes if self.resident_bytes else 0.0

    def fits(self, device: DeviceSpec) -> bool:
        return self.peak_bytes <= device.dram_bytes


# -- buffer sizing (shared with the liveness model in analysis.dataflow) -----


def _input_bytes(graph: Graph) -> int:
    """Bytes of the network input buffer (fp32)."""
    return 4 * prod(graph.in_dims)


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
    (im2col when the graph is unplanned); 0 for every other node."""
    if node.kind is not NodeKind.CONV or not isinstance(node.spec, ConvSpec):
        return 0
    try:
        kernel = make_conv_kernel(node.spec, node.implementation or "im2col")
    except ConvUnsupportedError:
        # The spec can't run under this implementation (e.g. FFT with
        # stride > 1) — it contributes no workspace.  Any other failure is
        # a real bug and must propagate.
        return 0
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


def network_footprint(graph: Graph, training: bool = False) -> MemoryFootprint:
    """Compute the footprint of running (or training) a resolved graph.

    The graph's annotations are the plan: each conv's selected
    implementation sizes its workspace and each edge transform its
    scratch.  An unplanned graph (shapes only) assumes the conservative
    NCHW/im2col path with no transforms.  Training doubles the activation
    residency (gradients mirror every activation) and triples weight
    residency (gradient + momentum).
    """
    activations = _input_bytes(graph)
    weights = workspace = transform = 0
    for node in graph:
        activations += _buffer_bytes(graph, node)
        weights += _weights_bytes(node)
        workspace = max(workspace, _workspace_bytes(node))
        transform = max(transform, _transform_bytes(graph, node))

    if training:
        activations *= 2  # gradients mirror activations
        weights *= 3  # parameter + gradient + momentum buffers

    return MemoryFootprint(
        activations_bytes=int(activations),
        weights_bytes=int(weights),
        workspace_bytes=int(workspace),
        transform_bytes=int(transform),
    )


def plan_within_memory(
    device: DeviceSpec,
    net: NetworkDef,
    training: bool = False,
    context: SimulationContext | None = None,
) -> tuple[PipelineResult, MemoryFootprint]:
    """Plan layouts subject to the card's memory capacity.

    The unconstrained optimum may pick FFT convolutions whose frequency-
    domain workspace, *combined with the resident activations*, exceeds
    device memory (each kernel fits alone — the paper's per-layer OOM check
    passes — but a training run would still die).  When that happens the
    plan is re-derived without FFT implementations.
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
