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

from ..core.planner import LayoutPlan, NodeKind
from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext
from ..layers.base import ConvSpec, FCSpec, SoftmaxSpec
from ..layers.conv_kernels import ConvUnsupportedError, make_conv_kernel
from ..tensors.tensor import TensorDesc
from .net import Net


class PlanMismatchError(ValueError):
    """The plan's steps do not cover the network's layers one-to-one.

    Footprint accounting pairs each layer with its plan step by name; a
    plan produced for a different network (or a DAG-shaped plan whose
    step order diverges from the layer list) would silently mis-attribute
    workspaces and transforms, so the mismatch is diagnosed up front.
    """


def _check_plan_alignment(net: Net, plan: LayoutPlan) -> None:
    layer_names = [layer.name for layer in net.layers]
    step_names = [s.name for s in plan.steps]
    if step_names == layer_names:
        return
    missing = [n for n in layer_names if n not in set(step_names)]
    extra = [n for n in step_names if n not in set(layer_names)]
    if missing or extra:
        detail = []
        if missing:
            detail.append(f"layers without a plan step: {', '.join(missing)}")
        if extra:
            detail.append(f"plan steps without a layer: {', '.join(extra)}")
        reason = "; ".join(detail)
    else:
        reason = (
            "same names but different order — the plan does not follow the "
            f"layer sequence (plan: {', '.join(step_names)})"
        )
    raise PlanMismatchError(
        f"plan {plan.strategy!r} does not match network "
        f"{net.definition.name!r}: {reason}"
    )


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


def _weights_bytes(spec: object) -> int:
    if isinstance(spec, ConvSpec):
        return spec.filter_bytes + 4 * spec.co  # filters + bias
    if isinstance(spec, FCSpec):
        return 4 * (spec.in_features * spec.out_features + spec.out_features)
    return 0


def _activation_bytes(layer) -> int:
    if layer.out_dims is not None:
        n, c, h, w = layer.out_dims
        return 4 * n * c * h * w
    if layer.out_features is not None:
        spec = layer.spec
        batch = spec.n if isinstance(spec, (FCSpec, SoftmaxSpec)) else 0
        return 4 * batch * layer.out_features
    return 0


def network_footprint(
    net: Net, plan: LayoutPlan | None = None, training: bool = False
) -> MemoryFootprint:
    """Compute the footprint of running (or training) ``net``.

    Without a plan, the conservative NCHW/im2col path is assumed for the
    workspace.  Training doubles the activation residency (gradients mirror
    every activation) and triples weight residency (gradient + momentum).

    Raises :class:`PlanMismatchError` when the plan's steps do not pair
    one-to-one, in order, with the network's layers — the accounting below
    keys workspaces and transform scratch by that pairing.
    """
    if plan is not None:
        _check_plan_alignment(net, plan)
    input_bytes = 4 * (
        net.definition.batch
        * net.definition.in_channels
        * net.definition.in_h
        * net.definition.in_w
    )
    activations = input_bytes
    weights = 0
    workspace = 0
    steps = {s.name: s for s in plan.steps} if plan is not None else {}

    for layer in net.layers:
        activations += _activation_bytes(layer)
        weights += _weights_bytes(layer.spec)
        if layer.kind is NodeKind.CONV:
            assert isinstance(layer.spec, ConvSpec)
            impl = steps[layer.name].implementation if steps else "im2col"
            try:
                kernel = make_conv_kernel(layer.spec, impl)
                workspace = max(workspace, int(kernel.workspace_bytes()))
            except ConvUnsupportedError:
                # The spec can't run under this implementation (e.g. FFT
                # with stride > 1) — it contributes no workspace.  Any
                # other failure is a real bug and must propagate.
                pass

    transform = 0
    if plan is not None:
        layers = {layer.name: layer for layer in net.layers}
        for step in plan.steps:
            layer = layers[step.name]
            if step.transform_ms > 0 and layer.in_dims is not None:
                # The transform's scratch is the destination buffer, the
                # same size as the tensor being relaid (freed right after).
                desc = TensorDesc(*layer.in_dims)
                transform = max(transform, desc.nbytes)

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
    net: Net,
    training: bool = False,
    context: SimulationContext | None = None,
) -> tuple[LayoutPlan, MemoryFootprint]:
    """Plan layouts subject to the card's memory capacity.

    The unconstrained optimum may pick FFT convolutions whose frequency-
    domain workspace, *combined with the resident activations*, exceeds
    device memory (each kernel fits alone — the paper's per-layer OOM check
    passes — but a training run would still die).  When that happens the
    plan is re-derived without FFT implementations.
    """
    from ..core.pipeline import PipelineOptions, plan_network

    plan = plan_network(
        device, net.definition, PipelineOptions(strategy="optimal"), context=context
    ).plan
    footprint = network_footprint(net, plan, training=training)
    if not footprint.fits(device):
        plan = plan_network(
            device, net.definition,
            PipelineOptions(strategy="optimal", allow_fft=False),
            context=context,
        ).plan
        footprint = network_footprint(net, plan, training=training)
    return plan, footprint


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
