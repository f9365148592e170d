"""AlexNet layout planning: the paper's Fig. 15 walkthrough.

Shows the full pipeline the integrated framework runs:
1. resolve AlexNet into layer specs;
2. plan layouts (heuristic preferences + profiled fine-tuning);
3. inspect the inserted transformations and their cost;
4. verify numerically (small batch) that the planned execution computes
   exactly what the plain one does — transforms included.

Run with ``python examples/alexnet_layout_planning.py``.
"""

import numpy as np

from repro import Net, TITAN_BLACK, build_network, plan_optimal, plan_single_layout
from repro.core import explain_conv_choice, thresholds_for
from repro.framework import annotations_from_plan
from repro.core.planner import NodeKind
from repro.tensors import CHWN, NCHW


def main() -> None:
    device = TITAN_BLACK
    net = Net(build_network("alexnet"))

    print("== Heuristic rationale per convolution ==")
    thresholds = thresholds_for(device)
    for layer in net.layers:
        if layer.kind is NodeKind.CONV:
            print(f"  {layer.name}: {explain_conv_choice(layer.spec, thresholds)}")

    print("\n== Fine-tuned plan (exact min cut over layouts + transform costs) ==")
    plan = plan_optimal(device, net.definition)
    print(plan.summary())
    print(
        f"\n  {plan.transform_count} transforms cost {plan.transform_ms:.3f} ms "
        f"of {plan.total_ms:.3f} ms total "
        f"({100 * plan.transform_ms / plan.total_ms:.1f}%)"
    )

    print("\n== Versus the single-layout worlds the libraries live in ==")
    for layout in (CHWN, NCHW):
        single = plan_single_layout(device, net.definition, layout, tune_pooling=True)
        print(
            f"  everything in {layout}: {single.total_ms:9.3f} ms "
            f"({single.total_ms / plan.total_ms:.2f}x slower than the plan)"
        )

    print("\n== Numeric verification at batch 4 (plan-invariant results) ==")
    small = Net(build_network("alexnet", batch=4))
    weights = small.init_weights()
    x = small.make_input(seed=0)
    reference = small.forward(x, weights)
    small_plan = plan_optimal(device, small.definition)
    planned = small.forward(
        x, weights, annotations=annotations_from_plan(small_plan.graph)
    )
    print(
        "  max |difference| =",
        float(np.abs(reference - planned).max()),
        "(layouts and transforms change nothing numerically)",
    )


if __name__ == "__main__":
    main()
