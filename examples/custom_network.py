"""Define your own network, calibrate a device, plan it, and run it.

Demonstrates the full user workflow on a custom architecture written in the
prototxt-like text format, including cross-device threshold calibration
(the paper's Titan Black vs Titan X comparison).

Run with ``python examples/custom_network.py``.
"""

import numpy as np

from repro import (
    Net,
    TITAN_BLACK,
    TITAN_X,
    calibrate,
    parse_netdef,
    plan_optimal,
    time_network,
)

NETDEF = """
# A VGG-flavoured small network: shallow first block (CHWN territory),
# deep later blocks (NCHW territory) — exactly the mix that needs planning.
network custom batch=128 input=3x64x64
conv block1_conv co=32 f=5 pad=2
pool block1_pool window=3 stride=2
conv block2_conv co=128 f=3 pad=1
conv block2_conv2 co=128 f=3 pad=1
pool block2_pool window=3 stride=2
conv block3_conv co=256 f=3 pad=1
pool block3_pool window=2 stride=2
fc fc1 out=1024
fc fc2 out=100 relu=0
softmax prob
"""


def main() -> None:
    net = Net(parse_netdef(NETDEF))
    print(f"== Custom network '{net.name}' ==")
    for layer in net.layers:
        dims = layer.out_dims or ("-",)
        print(f"  {layer.name:14s} {layer.kind.value:12s} out={dims}")

    print("\n== Device calibration (one-time per GPU) ==")
    for device in (TITAN_BLACK, TITAN_X):
        result = calibrate(device)
        print(
            f"  {device.name}: Ct={result.thresholds.ct}, "
            f"Nt={result.thresholds.nt} "
            f"(simulated profiling: {result.profiling_ms:.0f} ms)"
        )

    print("\n== Plans differ across devices ==")
    for device in (TITAN_BLACK, TITAN_X):
        plan = plan_optimal(device, net.definition)
        layouts = {
            n.name: str(n.kernel_layout) for n in plan.graph if n.kernel_layout
        }
        print(f"  {device.name}: {layouts}")

    print("\n== Scheme comparison on the Titan Black ==")
    for scheme in ("cuda-convnet", "cudnn-best", "opt"):
        timing = time_network(net.definition, TITAN_BLACK, scheme)
        print(f"  {scheme:14s} {timing.total_ms:9.3f} ms")

    print("\n== Numeric forward at batch 4 ==")
    small = Net(parse_netdef(NETDEF).with_batch(4))
    out = small.forward(small.make_input(seed=1))
    print(f"  output shape {out.shape}, rows sum to 1: "
          f"{bool(np.allclose(out.sum(1), 1, atol=1e-5))}")


if __name__ == "__main__":
    main()
