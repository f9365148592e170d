"""Train LeNet on a synthetic MNIST substitute, with layout-aware timing.

Ties the whole reproduction together:
1. numerically train the real LeNet definition (manual backprop, SGD) on
   the synthetic digit dataset until it clearly beats chance;
2. show what the paper's memory optimizations would buy for this training
   run: forward-backward timing under each library scheme (footnote 1 —
   the same data structures serve training).

Run with ``python examples/train_lenet.py`` (~30 s, pure NumPy).
"""

import numpy as np

from repro import Net, TITAN_BLACK, build_network, time_network
from repro.data import synthetic_digits
from repro.framework import train


def main() -> None:
    rng = np.random.default_rng(0)
    del rng

    print("== 1. Training LeNet (batch 16) on synthetic digits ==")
    dataset = synthetic_digits(n_samples=256, image=28, n_classes=10, seed=7)
    net = Net(build_network("lenet", batch=16))
    trainer, history = train(
        net, dataset.images, dataset.labels, steps=40, batch_size=16, lr=0.03
    )
    for i in (0, 9, 19, 29, 39):
        step = history[i]
        print(
            f"  step {i + 1:3d}: loss {step.loss:6.3f}  "
            f"batch accuracy {step.accuracy:5.1%}  |grad| {step.grad_norm:8.3f}"
        )
    loss, accuracy = trainer.evaluate(dataset.images, dataset.labels)
    print(f"  final: loss {loss:.3f}, accuracy {accuracy:.1%} (chance 10%)")

    print("\n== 2. What would this training run cost on a Titan Black? ==")
    timing_net = build_network("lenet")  # the paper's batch of 128
    print(f"  {'scheme':14s} {'fwd (ms)':>10s} {'fwd+bwd (ms)':>13s} {'speedup':>8s}")
    baseline = None
    for scheme in ("cudnn-mm", "cuda-convnet", "opt"):
        fwd = time_network(timing_net, TITAN_BLACK, scheme)
        trn = time_network(timing_net, TITAN_BLACK, scheme, training=True)
        if baseline is None:
            baseline = trn.total_ms
        print(
            f"  {scheme:14s} {fwd.total_ms:10.3f} {trn.total_ms:13.3f} "
            f"{baseline / trn.total_ms:7.2f}x"
        )
    print(
        "\n  (the layout plan, pooling coarsening and fused softmax apply to\n"
        "   the backward pass too — same data structures, paper footnote 1)"
    )


if __name__ == "__main__":
    main()
