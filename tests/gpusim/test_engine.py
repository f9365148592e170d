"""Simulating through a context: sequencing, OOM checks, memoization."""

import pytest

from repro.gpusim import (
    ComposedKernel,
    GpuOutOfMemoryError,
    KernelModel,
    LaunchConfig,
    MemoryProfile,
    SimulationContext,
    default_context,
)


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
        engine = default_context(device)
        with pytest.raises(GpuOutOfMemoryError) as err:
            engine.run(ToyKernel(workspace=7 * 2**30))
        assert err.value.required_bytes == 7 * 2**30

    def test_resident_tensors_count_against_capacity(self, device):
        engine = SimulationContext(device, tensor_bytes_resident=5 * 2**30)
        with pytest.raises(GpuOutOfMemoryError):
            engine.run(ToyKernel(workspace=2 * 2**30))

    def test_check_can_be_disabled(self, device):
        engine = default_context(device)
        stats = engine.run(ToyKernel(workspace=7 * 2**30), check_memory=False)
        assert stats.time_ms > 0


class TestSequences:
    def test_sequence_time_is_additive(self, device):
        engine = default_context(device)
        kernels = [ToyKernel(name=f"k{i}") for i in range(3)]
        seq = engine.run_sequence(kernels, name="pipeline")
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

    def test_composed_requires_kernels(self):
        with pytest.raises(ValueError):
            ComposedKernel(kernels=[])

    def test_sequence_bandwidth_properties(self, device):
        engine = default_context(device)
        seq = engine.run_sequence([ToyKernel()])
        assert seq.achieved_bandwidth_gbs > 0
        assert seq.effective_bandwidth_gbs > 0
        assert seq.achieved_gflops > 0
