"""Occupancy calculator and latency-hiding model."""

import pytest

from repro.gpusim import (
    LaunchConfig,
    compute_occupancy,
    latency_hiding_factor,
)


class TestOccupancy:
    def test_full_occupancy_small_footprint(self, device):
        occ = compute_occupancy(
            device, LaunchConfig(grid=(1000, 1, 1), block=(256, 1, 1), regs_per_thread=32)
        )
        assert occ.active_warps_per_sm == device.max_warps_per_sm
        assert occ.fraction == 1.0

    def test_register_limited(self, device):
        # 255 regs * 256 threads = 65280 regs/block -> 1 block/SM.
        occ = compute_occupancy(
            device, LaunchConfig(grid=(100, 1, 1), block=(256, 1, 1), regs_per_thread=255)
        )
        assert occ.blocks_per_sm == 1
        assert occ.limiter == "registers"

    def test_shared_memory_limited(self, device):
        occ = compute_occupancy(
            device,
            LaunchConfig(
                grid=(100, 1, 1), block=(64, 1, 1),
                regs_per_thread=16, smem_per_block=24 * 1024,
            ),
        )
        assert occ.blocks_per_sm == 2
        assert occ.limiter == "shared_memory"

    def test_block_count_limited_for_tiny_blocks(self, device):
        occ = compute_occupancy(
            device, LaunchConfig(grid=(10000, 1, 1), block=(32, 1, 1), regs_per_thread=16)
        )
        assert occ.blocks_per_sm == device.max_blocks_per_sm
        assert occ.limiter == "blocks"

    def test_warp_cap(self, device):
        # 1024-thread blocks = 32 warps; 2 blocks possible by threads but the
        # warp cap (64) allows exactly 2 — use registers to force the check.
        occ = compute_occupancy(
            device, LaunchConfig(grid=(10, 1, 1), block=(1024, 1, 1), regs_per_thread=16)
        )
        assert occ.active_warps_per_sm <= device.max_warps_per_sm

    def test_oversized_block_rejected(self, device):
        with pytest.raises(ValueError):
            compute_occupancy(device, LaunchConfig(grid=(1, 1, 1), block=(2048, 1, 1)))

    def test_oversized_smem_rejected(self, device):
        with pytest.raises(ValueError):
            compute_occupancy(
                device,
                LaunchConfig(grid=(1, 1, 1), block=(32, 1, 1), smem_per_block=64 * 1024),
            )

    @pytest.mark.parametrize(
        "launch,limiter",
        [
            # 2048 threads/SM at 256 threads/block: threads limit binds
            (LaunchConfig(grid=(512, 1), block=(256, 1)), "threads"),
            # tiny blocks: blocks/SM cap binds before the warp cap
            (LaunchConfig(grid=(512, 1), block=(32, 1)), "blocks"),
            # 255 regs/thread: register file limit binds
            (
                LaunchConfig(grid=(512, 1), block=(256, 1), regs_per_thread=255),
                "registers",
            ),
            # a full SM's shared memory per block: exactly one block fits
            (
                LaunchConfig(grid=(512, 1), block=(256, 1), smem_per_block=48 * 1024),
                "shared_memory",
            ),
        ],
        ids=["threads", "blocks", "registers", "shared_memory"],
    )
    def test_limiter_edges(self, device, launch, limiter):
        """Each launch sits on one limit; ties go to the earlier limiter."""
        assert compute_occupancy(device, launch).limiter == limiter

    def test_waves(self, device):
        occ = compute_occupancy(
            device, LaunchConfig(grid=(device.sm_count * 8, 1, 1), block=(256, 1, 1))
        )
        assert occ.waves == pytest.approx(1.0)


class TestLatencyHiding:
    def test_saturated_at_full_occupancy(self, device):
        occ = compute_occupancy(
            device, LaunchConfig(grid=(10000, 1, 1), block=(256, 1, 1), regs_per_thread=32)
        )
        assert latency_hiding_factor(device, occ) == 1.0

    def test_tiny_grid_underutilizes(self, device):
        occ = compute_occupancy(device, LaunchConfig(grid=(1, 1, 1), block=(128, 1, 1)))
        assert latency_hiding_factor(device, occ) < 0.1

    def test_partial_lanes_reduce_hiding(self, device):
        full = compute_occupancy(
            device, LaunchConfig(grid=(10000, 1, 1), block=(32, 1, 1))
        )
        partial = compute_occupancy(
            device,
            LaunchConfig(grid=(10000, 1, 1), block=(6, 1, 1), active_lane_fraction=6 / 32),
        )
        assert latency_hiding_factor(device, partial) < latency_hiding_factor(
            device, full
        )

    def test_monotone_in_block_count(self, device):
        factors = []
        for grid in (1, 4, 16, 64, 256):
            occ = compute_occupancy(device, LaunchConfig(grid=(grid, 1, 1), block=(64, 1, 1)))
            factors.append(latency_hiding_factor(device, occ))
        assert factors == sorted(factors)


class TestLaunchConfig:
    def test_dims_normalized(self):
        cfg = LaunchConfig(grid=(4,), block=(32,))
        assert cfg.grid == (4, 1, 1)
        assert cfg.block == (32, 1, 1)
        assert cfg.total_threads == 128

    def test_int_accepted(self):
        cfg = LaunchConfig(grid=7, block=64)
        assert cfg.total_blocks == 7
        assert cfg.threads_per_block == 64

    def test_invalid_lane_fraction(self):
        with pytest.raises(ValueError):
            LaunchConfig(grid=1, block=32, active_lane_fraction=0.0)

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            LaunchConfig(grid=(0, 1, 1), block=(32, 1, 1))


class TestLaunchValidation:
    """check_launch is the reusable limit predicate; compute_occupancy
    raises a structured error instead of reporting zero-block occupancy."""

    def test_clean_launch_has_no_violations(self, device):
        from repro.gpusim import check_launch

        cfg = LaunchConfig(grid=(100, 1, 1), block=(256, 1, 1))
        assert check_launch(device, cfg) == []

    def test_oversized_block_violation(self, device):
        from repro.gpusim import check_launch

        cfg = LaunchConfig(grid=(1, 1, 1), block=(2048, 1, 1))
        codes = {v.code for v in check_launch(device, cfg)}
        assert "threads_per_block" in codes

    def test_zero_occupancy_register_demand(self, device):
        from repro.gpusim import check_launch

        cfg = LaunchConfig(grid=(1, 1, 1), block=(1024, 1, 1), regs_per_thread=128)
        (v,) = check_launch(device, cfg)
        assert v.code == "regs_per_block"
        assert v.actual == 1024 * 128
        assert v.limit == device.regs_per_sm

    def test_compute_occupancy_raises_structured_error(self, device):
        from repro.gpusim import LaunchValidationError

        cfg = LaunchConfig(grid=(1, 1, 1), block=(1024, 1, 1), regs_per_thread=128)
        with pytest.raises(LaunchValidationError) as err:
            compute_occupancy(device, cfg)
        assert err.value.violations[0].code == "regs_per_block"
        assert "zero blocks fit" in str(err.value)

    def test_error_is_a_value_error(self, device):
        from repro.gpusim import LaunchValidationError

        assert issubclass(LaunchValidationError, ValueError)

    def test_message_names_the_limit(self, device):
        from repro.gpusim import LaunchValidationError

        cfg = LaunchConfig(grid=(1, 1, 1), block=(32, 1, 1), smem_per_block=64 * 1024)
        with pytest.raises(LaunchValidationError, match="shared memory"):
            compute_occupancy(device, cfg)
