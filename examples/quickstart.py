"""Quickstart: layouts matter, and the library picks them for you.

Runs in a few seconds::

    python examples/quickstart.py

Walks through the paper's story on one layer and one network:
1. time a convolution layer under both data layouts;
2. see the layout-selection heuristic agree with the measurements;
3. plan a whole network and compare against the library baselines.
"""

from repro import (
    CHWN,
    NCHW,
    CONV_LAYERS,
    SCHEMES,
    TITAN_BLACK,
    build_network,
    compare_schemes,
    default_context,
    preferred_conv_layout,
    thresholds_for,
)
from repro.core import best_conv_for_layout


def main() -> None:
    device = TITAN_BLACK
    ctx = default_context(device)

    print(f"== 1. One layer, two layouts (on a simulated {device.name}) ==")
    spec = CONV_LAYERS["CV1"]  # LeNet's first convolution
    for layout in (CHWN, NCHW):
        choice = best_conv_for_layout(ctx, spec, layout)
        print(f"  CV1 in {layout}: {choice.time_ms:7.3f} ms via {choice.implementation}")

    print("\n== 2. The heuristic's call ==")
    thresholds = thresholds_for(device)
    print(f"  device thresholds: Ct={thresholds.ct}, Nt={thresholds.nt}")
    for name in ("CV1", "CV7"):
        layout = preferred_conv_layout(CONV_LAYERS[name], thresholds)
        print(f"  {name}: prefer {layout}")

    print("\n== 3. Whole networks: Fig. 14 in one loop ==")
    for net_name in ("lenet", "alexnet"):
        results = compare_schemes(build_network(net_name), device)
        base = results["cudnn-mm"].total_ms
        print(f"  {net_name} (speedup over cuDNN-MM):")
        for scheme in SCHEMES:
            marker = " <- ours" if scheme == "opt" else ""
            print(
                f"    {scheme:14s} {results[scheme].total_ms:9.3f} ms  "
                f"{base / results[scheme].total_ms:5.2f}x{marker}"
            )


if __name__ == "__main__":
    main()
