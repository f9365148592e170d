"""Simulating through a context: sequencing, the fit check, memoization."""

import pytest

from repro.gpusim import (
    ComposedKernel,
    GpuOutOfMemoryError,
    KernelModel,
    LaunchConfig,
    MemoryProfile,
    TITAN_BLACK,
    SimulationContext,
    check_fit,
    default_context,
)
from repro.layers.conv_kernels import make_conv_kernel
from repro.networks import CONV_LAYERS


class ToyKernel(KernelModel):
    """Minimal concrete kernel for these tests."""

    def __init__(self, name="toy", flops=1e9, bytes_=1e8, workspace=0.0):
        self.name = name
        self._flops = flops
        self._bytes = bytes_
        self._workspace = workspace

    def launch_config(self, device):
        return LaunchConfig(grid=(1024, 1, 1), block=(256, 1, 1))

    def flop_count(self):
        return self._flops

    def memory_profile(self, device):
        return MemoryProfile.coalesced(self._bytes, self._bytes)

    def workspace_bytes(self):
        return self._workspace


class TestRun:
    def test_default_context_runs(self, device):
        stats = default_context(device).run(ToyKernel())
        assert stats.time_ms > 0
        assert stats.device == device.name

    def test_memoization_returns_same_stats(self, device):
        engine = default_context(device)
        k = ToyKernel()
        assert engine.run(k) is engine.run(k)

    def test_distinct_kernels_not_conflated(self, device):
        """Regression: id() reuse after GC must not poison the cache."""
        engine = default_context(device)
        times = set()
        for flops in (1e9, 1e11, 1e12):
            times.add(round(engine.run(ToyKernel(flops=flops)).time_ms, 9))
        assert len(times) == 3


class TestOom:
    def test_oversized_workspace_raises(self, device):
        with pytest.raises(GpuOutOfMemoryError) as err:
            check_fit(device, ToyKernel(workspace=7 * 2**30))
        assert err.value.required_bytes == 7 * 2**30


class TestSequences:
    def test_sequence_time_is_additive(self, device):
        engine = default_context(device)
        kernels = [ToyKernel(name=f"k{i}") for i in range(3)]
        seq = engine.run(ComposedKernel(kernels=kernels, name="pipeline"))
        assert seq.time_ms == pytest.approx(
            sum(engine.run(k).time_ms for k in kernels)
        )
        assert seq.flops == pytest.approx(3e9)

    def test_composed_kernel_collapses(self, device):
        engine = default_context(device)
        composed = ComposedKernel(
            kernels=[ToyKernel(name="a"), ToyKernel(name="b")], name="ab"
        )
        stats = engine.run(composed)
        assert stats.name == "ab"
        assert stats.n_launches == 2
        assert stats.time_ms == pytest.approx(2 * engine.run(ToyKernel()).time_ms)

    def test_composed_reports_the_dominant_stage_occupancy(self):
        # CV7 im2col on the Titan Black: the GEMM (8.04 of 8.59 ms) sets
        # occupancy and bound, not the unroll launched first (64 warps/SM
        # limited by threads, over 811.2 waves)
        kernel = make_conv_kernel(CONV_LAYERS["CV7"], "im2col")
        stats = SimulationContext(TITAN_BLACK).run(kernel)
        occ = stats.occupancy
        assert (occ.active_warps_per_sm, occ.max_warps_per_sm) == (40, 64)
        assert occ.limiter == "registers"
        assert occ.waves == pytest.approx(13.52)
        assert stats.bound == "compute"
        gemm = SimulationContext(TITAN_BLACK).run(kernel.kernels[-1])
        assert gemm.name == "conv-gemm" and gemm.occupancy == occ

    def test_composed_requires_kernels(self):
        with pytest.raises(ValueError):
            ComposedKernel(kernels=[])

    def test_sequence_bandwidth_properties(self, device):
        engine = default_context(device)
        seq = engine.run(ComposedKernel(kernels=[ToyKernel()], name="one"))
        assert seq.achieved_bandwidth_gbs > 0
        assert seq.effective_bandwidth_gbs > 0
        assert seq.achieved_gflops > 0

    def test_nested_composed_kernels_flatten(self):
        inner = ComposedKernel(kernels=[ToyKernel(name="a"), ToyKernel(name="b")])
        outer = ComposedKernel(kernels=[inner, ToyKernel(name="c")], name="abc")
        assert [k.name for k in outer.kernels] == ["a", "b", "c"]
        assert outer.n_launches == 3

    @pytest.mark.parametrize(
        "slot", ["launch_config", "flop_count", "memory_profile", "alu_efficiency"]
    )
    def test_composed_has_no_single_launch_description(self, device, slot):
        composed = ComposedKernel(kernels=[ToyKernel()], name="one")
        args = () if slot == "flop_count" else (device,)
        with pytest.raises(TypeError, match="stage by stage"):
            getattr(composed, slot)(*args)
