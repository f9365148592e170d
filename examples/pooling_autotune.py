"""Pooling auto-tuner demo (paper Section V.A / Fig. 12).

For each Table-1 pooling layer, hill-climb the per-thread working-set
expansion (ux, uy) and show the traffic/occupancy trade-off the search
navigates.  Also validates numerically that coarsening never changes the
pooled values.

Run with ``python examples/pooling_autotune.py``.
"""

import numpy as np

from repro import TITAN_BLACK, autotune_pooling
from repro.gpusim import default_context
from repro.layers import PoolSpec, PoolingCoarsenedCHWN, pool_coarsened, pool_plain
from repro.networks import POOL_LAYERS


def main() -> None:
    device = TITAN_BLACK
    ctx = default_context(device)

    print(f"== Auto-tuning Table-1 pooling layers on {device.name} ==")
    print(f"{'layer':6s} {'window':>6s} {'tile':>6s} {'gain':>7s} {'evals':>6s}  search path")
    for name, spec in POOL_LAYERS.items():
        result = autotune_pooling(device, spec)
        path = " -> ".join(f"{ux}x{uy}:{t:.3f}" for ux, uy, t in result.evaluations[:5])
        kind = "overlap" if spec.overlapped else "plain"
        print(
            f"{name:6s} {f'{spec.window}/{spec.stride}':>6s} "
            f"{f'{result.ux}x{result.uy}':>6s} {100 * (result.speedup - 1):6.1f}% "
            f"{len(result.evaluations):6d}  [{kind}] {path}"
        )

    print("\n== Why the search stops: registers vs traffic on PL5 ==")
    spec = POOL_LAYERS["PL5"]
    for u in (1, 2, 3, 4, 6, 8):
        kernel = PoolingCoarsenedCHWN(spec, u, u)
        stats = ctx.run(kernel)
        launch = kernel.launch_config(device)
        print(
            f"  {u}x{u}: {stats.time_ms:7.3f} ms, "
            f"{stats.dram_bytes / 2**20:6.1f} MiB DRAM, "
            f"{launch.regs_per_thread:3d} regs/thread, "
            f"occupancy {stats.occupancy.fraction:.0%}"
        )

    print("\n== Numeric safety check ==")
    rng = np.random.default_rng(0)
    small = PoolSpec(n=2, c=3, h=13, w=13, window=3, stride=2)
    x = rng.standard_normal((2, 3, 13, 13)).astype(np.float32)
    for u in (2, 3, 5):
        assert np.allclose(pool_plain(x, small), pool_coarsened(x, small, u, u))
    print("  coarsened pooling is bit-compatible with the plain kernel ✓")


if __name__ == "__main__":
    main()
