"""Network definitions: a Caffe-style layer-stack description.

"In the deep learning frameworks such as Caffe or cuda-convnet, each CNN
has a configuration file that defines a network structure by specifying a
stack of various layers" (Section IV.D).  :class:`NetworkDef` is that
configuration; :func:`parse_netdef` / :func:`format_netdef` read and write a
small prototxt-like text form.  The paper's data-layout support adds one
field per conv/pool layer — the chosen layout — which here lives in the
*plan* (``repro.core.planner``), keeping definitions layout-agnostic.

Wiring: every layer has an optional ``bottom`` naming the layer it reads
(Caffe's term); ``None`` means the previous layer in the stack (the
network input for the first layer), so chain definitions stay as terse as
before.  :class:`ConcatDef` joins several named layers along the channel
axis, which is what lets a definition describe branching
(Inception/ResNet-style) networks for the graph IR to plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union


@dataclass(frozen=True)
class ConvDef:
    """A convolution layer (output maps, square filter, stride, padding,
    channel groups).

    Hyperparameters are validated at construction time — a negative pad or a
    zero-extent filter is a definition error, and surfacing it here (with the
    layer's name) beats a shape failure deep inside an emulation kernel.
    """

    name: str
    co: int
    f: int
    stride: int = 1
    pad: int = 0
    relu: bool = True
    groups: int = 1
    bottom: str | None = None

    def __post_init__(self) -> None:
        if self.co <= 0 or self.f <= 0:
            raise ValueError(
                f"{self.name}: output maps and filter extent must be positive "
                f"(co={self.co}, f={self.f})"
            )
        if self.stride <= 0:
            raise ValueError(f"{self.name}: stride must be positive, got {self.stride}")
        if self.pad < 0:
            raise ValueError(f"{self.name}: pad cannot be negative, got {self.pad}")
        if self.groups <= 0:
            raise ValueError(f"{self.name}: groups must be positive, got {self.groups}")
        if self.co % self.groups:
            raise ValueError(
                f"{self.name}: groups={self.groups} must divide co={self.co}"
            )


@dataclass(frozen=True)
class PoolDef:
    """A pooling layer (square window)."""

    name: str
    window: int
    stride: int
    op: str = "max"
    bottom: str | None = None

    def __post_init__(self) -> None:
        if self.window <= 0 or self.stride <= 0:
            raise ValueError(
                f"{self.name}: pooling window and stride must be positive "
                f"(window={self.window}, stride={self.stride})"
            )
        if self.op not in ("max", "avg"):
            raise ValueError(
                f"{self.name}: pooling op must be 'max' or 'avg', got {self.op!r}"
            )


@dataclass(frozen=True)
class LRNDef:
    """AlexNet-style local response normalization."""

    name: str
    depth: int = 5
    bottom: str | None = None

    def __post_init__(self) -> None:
        if self.depth <= 0:
            raise ValueError(f"{self.name}: LRN depth must be positive, got {self.depth}")


@dataclass(frozen=True)
class FCDef:
    """A fully-connected layer; flattens 4-D input if needed."""

    name: str
    out_features: int
    relu: bool = True
    bottom: str | None = None

    def __post_init__(self) -> None:
        if self.out_features <= 0:
            raise ValueError(
                f"{self.name}: out_features must be positive, got {self.out_features}"
            )


@dataclass(frozen=True)
class SoftmaxDef:
    """The final classifier layer."""

    name: str
    bottom: str | None = None


@dataclass(frozen=True)
class ConcatDef:
    """Channel-axis join of several named layers (same N, H, W)."""

    name: str
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) < 2:
            raise ValueError(
                f"{self.name}: concat needs at least two inputs, "
                f"got {len(self.inputs)}"
            )
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError(f"{self.name}: duplicate concat inputs {self.inputs}")


LayerDef = Union[ConvDef, PoolDef, LRNDef, FCDef, SoftmaxDef, ConcatDef]


def _check_wiring(layer: LayerDef, seen: set[str], network: str) -> None:
    """Check that ``layer`` has a new name and reads only layers named in
    ``seen``, then add its name to ``seen``."""
    if layer.name in seen:
        raise ValueError(f"duplicate layer name {layer.name!r} in {network}")
    if isinstance(layer, ConcatDef):
        refs: tuple[str, ...] = layer.inputs
    else:
        refs = (layer.bottom,) if layer.bottom is not None else ()
    for ref in refs:
        if ref not in seen:
            raise ValueError(
                f"{layer.name}: bottom {ref!r} does not name an "
                f"earlier layer of {network}"
            )
    seen.add(layer.name)


@dataclass(frozen=True)
class NetworkDef:
    """A complete network: input geometry plus an ordered layer stack."""

    name: str
    batch: int
    in_channels: int
    in_h: int
    in_w: int
    layers: tuple[LayerDef, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if min(self.batch, self.in_channels, self.in_h, self.in_w) <= 0:
            raise ValueError("network input dims must be positive")
        seen: set[str] = set()
        for layer in self.layers:
            _check_wiring(layer, seen, self.name)

    def with_batch(self, batch: int) -> "NetworkDef":
        return NetworkDef(
            self.name, batch, self.in_channels, self.in_h, self.in_w, self.layers
        )


def format_netdef(net: NetworkDef) -> str:
    """Serialize to the text form accepted by :func:`parse_netdef`."""
    lines = [
        f"network {net.name} batch={net.batch} "
        f"input={net.in_channels}x{net.in_h}x{net.in_w}"
    ]
    for layer in net.layers:
        if isinstance(layer, ConvDef):
            line = (
                f"conv {layer.name} co={layer.co} f={layer.f} "
                f"stride={layer.stride} pad={layer.pad} relu={int(layer.relu)} "
                f"groups={layer.groups}"
            )
        elif isinstance(layer, PoolDef):
            line = (
                f"pool {layer.name} window={layer.window} stride={layer.stride} "
                f"op={layer.op}"
            )
        elif isinstance(layer, LRNDef):
            line = f"lrn {layer.name} depth={layer.depth}"
        elif isinstance(layer, FCDef):
            line = f"fc {layer.name} out={layer.out_features} relu={int(layer.relu)}"
        elif isinstance(layer, SoftmaxDef):
            line = f"softmax {layer.name}"
        elif isinstance(layer, ConcatDef):
            line = f"concat {layer.name} inputs={','.join(layer.inputs)}"
        else:  # pragma: no cover - union is closed
            raise TypeError(f"unknown layer type {type(layer)!r}")
        if not isinstance(layer, ConcatDef) and layer.bottom is not None:
            line += f" bottom={layer.bottom}"
        lines.append(line)
    return "\n".join(lines) + "\n"


#: the keys each line kind accepts; every layer but a concat also reads
#: ``bottom``
_KEYS: dict[str, tuple[str, ...]] = {
    "network": ("batch", "input"),
    "conv": ("co", "f", "stride", "pad", "relu", "groups", "bottom"),
    "pool": ("window", "stride", "op", "bottom"),
    "lrn": ("depth", "bottom"),
    "fc": ("out", "relu", "bottom"),
    "softmax": ("bottom",),
    "concat": ("inputs",),
}


def _fields(
    kind: str, rest: list[str], keys: tuple[str, ...]
) -> tuple[str, dict[str, str]]:
    """A line's name and its ``key=value`` fields, each one of ``keys``."""
    if not rest or "=" in rest[0]:
        raise ValueError(f"{kind} line needs a name before its keys")
    name, *tokens = rest
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key not in keys:
            raise ValueError(
                f"unknown key {key!r} for {kind}; expected one of {', '.join(keys)}"
            )
        out[key] = value
    return name, out


def _int(kv: dict[str, str], key: str, default: int | None = None) -> int:
    """``kv[key]`` as an int; a KeyError unless a default is given."""
    value = kv[key] if default is None else kv.get(key, default)
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _layer(kind: str, name: str, kv: dict[str, str]) -> LayerDef:
    bottom = kv.get("bottom")
    if kind == "conv":
        return ConvDef(
            name=name,
            co=_int(kv, "co"),
            f=_int(kv, "f"),
            stride=_int(kv, "stride", 1),
            pad=_int(kv, "pad", 0),
            relu=bool(_int(kv, "relu", 1)),
            groups=_int(kv, "groups", 1),
            bottom=bottom,
        )
    if kind == "pool":
        return PoolDef(
            name=name,
            window=_int(kv, "window"),
            stride=_int(kv, "stride"),
            op=kv.get("op", "max"),
            bottom=bottom,
        )
    if kind == "lrn":
        return LRNDef(name=name, depth=_int(kv, "depth", 5), bottom=bottom)
    if kind == "fc":
        return FCDef(
            name=name,
            out_features=_int(kv, "out"),
            relu=bool(_int(kv, "relu", 1)),
            bottom=bottom,
        )
    if kind == "softmax":
        return SoftmaxDef(name=name, bottom=bottom)
    return ConcatDef(name=name, inputs=tuple(kv["inputs"].split(",")))


def parse_netdef(text: str) -> NetworkDef:
    """Parse the text form.  A malformed line raises a ValueError whose
    message starts with ``line N:``."""
    header: NetworkDef | None = None
    layers: list[LayerDef] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *rest = line.split()
        try:
            if kind == "network":
                if header is not None:
                    raise ValueError("duplicate network header")
                name, kv = _fields(kind, rest, _KEYS[kind])
                try:
                    c, h, w = (int(d) for d in kv["input"].split("x"))
                except ValueError:
                    raise ValueError(f"input={kv['input']} is not CxHxW") from None
                header = NetworkDef(name, _int(kv, "batch"), c, h, w)
                continue
            if header is None:
                raise ValueError("layer before network header")
            if kind not in _KEYS:
                raise ValueError(f"unknown layer kind {kind!r}")
            layer = _layer(kind, *_fields(kind, rest, _KEYS[kind]))
            _check_wiring(layer, seen, header.name)
        except KeyError as exc:
            missing = f"missing required key {exc.args[0]}="
            raise ValueError(f"line {line_no}: {missing}") from None
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        layers.append(layer)
    if header is None:
        raise ValueError("missing network header line")
    return replace(header, layers=tuple(layers))
