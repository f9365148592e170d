"""Memory microscope: watch the simulator's primitives explain the paper.

Uses the low-level gpusim API directly — coalescing, bank conflicts, L2,
occupancy — to reproduce the *mechanisms* behind each optimization, not
just the end-to-end numbers.

Run with ``python examples/memory_microscope.py``.
"""

import numpy as np

from repro import TITAN_BLACK
from repro.gpusim import (
    LaunchConfig,
    SetAssociativeCache,
    analyze_warps,
    compute_occupancy,
    conflict_degree,
    latency_hiding_factor,
    strided_pattern,
    tile_column_access,
)
from repro.tensors import CHWN, NCHW, TensorDesc


def main() -> None:
    device = TITAN_BLACK

    print("== 1. Coalescing: why CHWN pooling wins (Section IV.B) ==")
    desc_chwn = TensorDesc(128, 96, 55, 55, CHWN)
    desc_nchw = desc_chwn.with_layout(NCHW)
    # A pooling warp walks 32 consecutive outputs; its loads stride by the
    # layout's stride (in floats) along the dimension the warp spans.
    for label, stride in (
        ("CHWN (warp along N, stride 4 B)", desc_chwn.stride_bytes("N") // 4),
        ("NCHW (warp along W, stride = pool stride * 4 B)", 2 * desc_nchw.stride_bytes("W") // 4),
    ):
        report = analyze_warps(strided_pattern(64, stride, device), device)
        print(
            f"  {label:48s} -> {report.transactions_per_warp:4.1f} "
            f"transactions/warp, {report.overfetch:.1f}x over-fetch"
        )

    print("\n== 2. Shared-memory padding: the Fig. 7b trick ==")
    for pitch, label in ((32, "unpadded sh[32][32]"), (33, "padded sh[32][33]")):
        degree = conflict_degree(tile_column_access(32, pitch))[0]
        print(f"  {label}: column read serializes {degree}x")

    print("\n== 3. L2 and redundant pooling loads (Fig. 8) ==")
    l2 = SetAssociativeCache.l2_for(device)
    # 1-D pooling, window 4, stride 2 over 12 elements: 20 loads, 12 unique.
    addresses = np.array(
        [o * 2 * 4 + k * 4 for o in range(5) for k in range(4)], dtype=np.int64
    )
    hits = l2.access_stream(addresses)
    print(
        f"  20 loads over 12 elements: {int(hits.sum())} L2 hits "
        "(the register-tiled kernel avoids even issuing them)"
    )

    print("\n== 4. Occupancy: why the 128-thread softmax starves (Section V.B) ==")
    for label, launch in (
        ("baseline: 1 block x 128 threads", LaunchConfig(grid=(1, 1, 1), block=(128, 1, 1))),
        ("opt: 128 blocks x 256 threads", LaunchConfig(grid=(128, 1, 1), block=(256, 1, 1))),
    ):
        occ = compute_occupancy(device, launch)
        hiding = latency_hiding_factor(device, occ)
        print(
            f"  {label:34s} -> {occ.active_warps_per_sm:2d} warps/SM resident, "
            f"sustains {hiding:5.1%} of peak bandwidth"
        )

    print("\n== 5. The three transform kernels, from first principles ==")
    from repro.tensors import transform_stats

    desc = TensorDesc(64, 96, 55, 55, CHWN)
    for method in ("naive", "opt1", "opt2"):
        stats = transform_stats(device, desc, NCHW, method)
        print(
            f"  {method:6s}: {stats.time_ms:7.3f} ms, "
            f"{stats.effective_bandwidth_gbs:6.1f} GB/s, "
            f"DRAM traffic {stats.dram_bytes / 2**20:7.1f} MiB "
            f"(tensor is {2 * desc.nbytes / 2**20:.1f} MiB round-trip)"
        )


if __name__ == "__main__":
    main()
