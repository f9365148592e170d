"""Numeric training: manual backpropagation through a resolved network.

The paper evaluates execution time, not accuracy, but its data structures
"are used in both the forward pass and backward pass for testing and
training" (footnote 1).  This module closes the loop: a hand-rolled
backprop chain over the same layer implementations, an SGD optimizer, and a
training driver — used by the `train_lenet` example and by tests that
verify gradients end-to-end (loss decreases on separable synthetic data).

Activations flow as logical (N, C, H, W) arrays; layout planning is a pure
performance concern and provably value-preserving (see
``tests/framework/test_net.py``), so training runs on the logical view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.planner import NodeKind
from ..layers.backward import (
    conv_backward,
    cross_entropy_loss,
    fc_backward,
    lrn_backward,
    pool_backward,
    relu_backward,
)
from ..layers.base import ConvSpec, FCSpec, PoolSpec, SoftmaxSpec
from ..layers.conv import conv_direct
from ..layers.elementwise import LRNSpec, lrn_forward, relu_forward
from ..layers.fc import fc_forward, flatten_4d
from ..layers.pooling import pool_plain
from .net import Net
from .netdef import ConvDef, FCDef

_F = np.float32


@dataclass
class TrainStep:
    """Result of one forward-backward-update step."""

    loss: float
    accuracy: float
    grad_norm: float


@dataclass
class Trainer:
    """SGD trainer over a :class:`~repro.framework.net.Net`.

    Parameters are the net's ``init_weights`` dict: conv layers map to a
    filter array, FC layers to a ``(weights, bias)`` tuple.
    """

    net: Net
    lr: float = 0.05
    momentum: float = 0.0
    weights: dict = field(default_factory=dict)
    _velocity: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not self.net.graph.is_chain():
            raise ValueError(
                f"{self.net.name}: the backprop chain supports linear "
                "networks only (branching forward runs via Net.forward)"
            )
        if not self.weights:
            self.weights = self.net.init_weights()

    @staticmethod
    def _with_batch(spec, n: int):
        """Rebind a spec to the actual batch size (kernels bake N in, the
        numeric path does not need to)."""
        from dataclasses import replace

        return replace(spec, n=n)

    # -- forward with activation cache -------------------------------------
    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[dict]]:
        cache: list[dict] = []
        current: np.ndarray = np.asarray(x, dtype=_F)
        batch = current.shape[0]
        for layer in self.net.layers:
            entry: dict = {"layer": layer, "input": current}
            if layer.kind is NodeKind.CONV:
                assert isinstance(layer.spec, ConvSpec)
                entry["spec"] = self._with_batch(layer.spec, batch)
                pre = conv_direct(current, self.weights[layer.name], entry["spec"])
                entry["pre_act"] = pre
                relu = isinstance(layer.defn, ConvDef) and layer.defn.relu
                current = relu_forward(pre) if relu else pre
            elif layer.kind is NodeKind.POOL:
                assert isinstance(layer.spec, PoolSpec)
                entry["spec"] = self._with_batch(layer.spec, batch)
                current = pool_plain(current, entry["spec"])
            elif layer.kind is NodeKind.ELEMENTWISE:
                assert isinstance(layer.spec, LRNSpec)
                current = lrn_forward(current, layer.spec)
            elif isinstance(layer.spec, FCSpec):
                if current.ndim == 4:
                    entry["flattened_from"] = current.shape
                    current = flatten_4d(current)
                    entry["input"] = current
                w, b = self.weights[layer.name]
                pre = fc_forward(current, w, b)
                entry["pre_act"] = pre
                relu = isinstance(layer.defn, FCDef) and layer.defn.relu
                current = relu_forward(pre) if relu else pre
            else:  # softmax handled by the loss
                assert isinstance(layer.spec, SoftmaxSpec)
            cache.append(entry)
        return current, cache

    # -- backward -----------------------------------------------------------
    def _backward(
        self, cache: list[dict], dlogits: np.ndarray
    ) -> dict[str, object]:
        grads: dict[str, object] = {}
        dcurrent = np.asarray(dlogits, dtype=_F)
        for entry in reversed(cache):
            layer = entry["layer"]
            if layer.kind is NodeKind.CONV:
                relu = isinstance(layer.defn, ConvDef) and layer.defn.relu
                if relu:
                    dcurrent = relu_backward(entry["pre_act"], dcurrent)
                dcurrent, dw = conv_backward(
                    entry["input"], self.weights[layer.name], dcurrent, entry["spec"]
                )
                grads[layer.name] = dw
            elif layer.kind is NodeKind.POOL:
                dcurrent = pool_backward(entry["input"], dcurrent, entry["spec"])
            elif layer.kind is NodeKind.ELEMENTWISE:
                dcurrent = lrn_backward(entry["input"], dcurrent, layer.spec)
            elif isinstance(layer.spec, FCSpec):
                relu = isinstance(layer.defn, FCDef) and layer.defn.relu
                if relu:
                    dcurrent = relu_backward(entry["pre_act"], dcurrent)
                w, _b = self.weights[layer.name]
                dcurrent, dw, db = fc_backward(entry["input"], w, dcurrent)
                grads[layer.name] = (dw, db)
                if "flattened_from" in entry:
                    dcurrent = dcurrent.reshape(entry["flattened_from"])
            # softmax layer: gradient already folded into dlogits
        return grads

    # -- public API -----------------------------------------------------------
    def loss_and_grads(
        self, x: np.ndarray, labels: np.ndarray
    ) -> tuple[float, float, dict[str, object]]:
        """(loss, accuracy, parameter gradients) for one batch."""
        softmax_layers = [
            l for l in self.net.layers if isinstance(l.spec, SoftmaxSpec)
        ]
        if not softmax_layers:
            raise ValueError("training requires a softmax classifier layer")
        spec = softmax_layers[-1].spec
        batch_spec = SoftmaxSpec(n=int(np.asarray(x).shape[0]), categories=spec.categories)
        logits, cache = self._forward(x)
        loss, dlogits = cross_entropy_loss(logits, labels, batch_spec)
        accuracy = float((logits.argmax(axis=1) == labels).mean())
        grads = self._backward(cache, dlogits)
        return loss, accuracy, grads

    def step(self, x: np.ndarray, labels: np.ndarray) -> TrainStep:
        """One SGD(+momentum) update."""
        loss, accuracy, grads = self.loss_and_grads(x, labels)
        sq_norm = 0.0
        for name, grad in grads.items():
            parts = grad if isinstance(grad, tuple) else (grad,)
            for p in parts:
                sq_norm += float((np.asarray(p, dtype=np.float64) ** 2).sum())
            self._apply(name, grad)
        return TrainStep(loss=loss, accuracy=accuracy, grad_norm=sq_norm**0.5)

    def _apply(self, name: str, grad: object) -> None:
        current = self.weights[name]
        if isinstance(current, tuple):
            assert isinstance(grad, tuple)
            new = []
            for i, (p, g) in enumerate(zip(current, grad)):
                v = self._velocity.get((name, i), 0.0)
                v = self.momentum * v - self.lr * g
                self._velocity[(name, i)] = v
                new.append((p + v).astype(_F))
            self.weights[name] = tuple(new)
        else:
            v = self._velocity.get(name, 0.0)
            v = self.momentum * v - self.lr * np.asarray(grad)
            self._velocity[name] = v
            self.weights[name] = (current + v).astype(_F)

    def evaluate(self, x: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """(loss, accuracy) without updating parameters."""
        loss, accuracy, _ = self.loss_and_grads(x, labels)
        return loss, accuracy


def train(
    net: Net,
    x: np.ndarray,
    labels: np.ndarray,
    steps: int = 20,
    batch_size: int | None = None,
    lr: float = 0.05,
    momentum: float = 0.9,
    seed: int = 0,
) -> tuple[Trainer, list[TrainStep]]:
    """Convenience SGD driver over an in-memory dataset."""
    trainer = Trainer(net, lr=lr, momentum=momentum)
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    batch_size = batch_size or min(n, net.definition.batch)
    history: list[TrainStep] = []
    for _ in range(steps):
        idx = rng.choice(n, size=batch_size, replace=False)
        history.append(trainer.step(x[idx], labels[idx]))
    return trainer, history
