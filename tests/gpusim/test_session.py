"""Simulation sessions: structural cache, counters, persistence, OOM."""

import json
from dataclasses import fields, replace
from hashlib import sha256

import pytest

from repro.gpusim import (
    ComposedKernel,
    GpuOutOfMemoryError,
    KernelModel,
    LaunchConfig,
    MemoryProfile,
    SimStats,
    SimulationContext,
    default_context,
    reset_default_contexts,
    structural_key,
)
from repro.core.pipeline import PipelineOptions, plan_network
from repro.gpusim import exec as exec_module
from repro.gpusim import session as session_module
from repro.gpusim.device import TITAN_BLACK, TITAN_X, ArchProfile, DeviceSpec
from repro.gpusim.session import _describe
from repro.layers import PoolSpec
from repro.networks.definitions import NETWORK_BUILDERS, build_network
from repro.layers.pooling_kernels import make_pool_kernel


_VERSION = session_module._CACHE_FORMAT_VERSION


class ToyKernel(KernelModel):
    """Minimal concrete kernel for session tests."""

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


class TestStructuralKey:
    def test_equal_models_share_a_key(self, device):
        assert structural_key(ToyKernel(), device) == structural_key(
            ToyKernel(), device
        )

    def test_different_state_differs(self, device):
        assert structural_key(ToyKernel(flops=1e9), device) != structural_key(
            ToyKernel(flops=2e9), device
        )

    def test_different_device_differs(self):
        k = ToyKernel()
        assert structural_key(k, TITAN_BLACK) != structural_key(k, TITAN_X)

    def test_same_name_different_spec_differs(self):
        """Device identity is the full spec, not the display name."""
        slower = replace(TITAN_BLACK, mem_bandwidth_gbs=100.0)
        assert structural_key(ToyKernel(), TITAN_BLACK) != structural_key(
            ToyKernel(), slower
        )

    def test_every_device_field_changes_the_key(self):
        """Each field, the nested arch profile's included, reaches the key,
        and a changed spec never reuses a memoized device description."""
        kernel = ToyKernel()
        base = structural_key(kernel, TITAN_BLACK)
        seen = {base}
        for variant in _one_field_variants(TITAN_BLACK):
            key = structural_key(kernel, variant)
            assert key == _reference_key(kernel, variant)
            assert key not in seen
            seen.add(key)
        assert structural_key(kernel, TITAN_BLACK) == base

    def test_memo_attributes_are_excluded(self, device):
        """A kernel that has lazily populated its internal memo cache must
        hash identically to a freshly built twin (regression for the
        pooling kernels' ``_profile_cache``)."""
        spec = PoolSpec(n=4, c=6, h=13, w=13, window=3, stride=2)
        used = make_pool_kernel(spec, "chwn")
        used.memory_profile(device)  # populate the per-device memo
        fresh = make_pool_kernel(spec, "chwn")
        assert structural_key(used, device) == structural_key(fresh, device)


def _reference_key(model, device):
    """``structural_key`` as first written: one ``json.dumps`` over the
    device and kernel descriptions.  Persisted cache files hold these keys."""
    payload = json.dumps(
        {"device": _describe(device), "kernel": _describe(model)},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = sha256(payload.encode()).hexdigest()[:32]
    return f"{model.name}@{device.name}#{digest}"


def _changed(value):
    if isinstance(value, str):
        return value + "-variant"
    if isinstance(value, ArchProfile):
        first = fields(value)[0].name
        return replace(value, **{first: _changed(getattr(value, first))})
    return value * 2 if value else 1  # doubling keeps the warp size a power of two


def _one_field_variants(device: DeviceSpec):
    for f in fields(device):
        yield replace(device, **{f.name: _changed(getattr(device, f.name))})


class TestStructuralKeyBytes:
    """Keys must stay byte-identical to the original formula, or every
    persisted cache file silently turns into misses."""

    @pytest.fixture(scope="class")
    def planned(self):
        """Every (kernel, device) pair keyed while planning each bundled
        network on both devices."""
        pairs = []
        original = session_module.structural_key

        def recording(model, device):
            pairs.append((model, device))
            return original(model, device)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(session_module, "structural_key", recording)
            mp.setattr(exec_module, "structural_key", recording)
            for device in (TITAN_BLACK, TITAN_X):
                for name in NETWORK_BUILDERS:
                    plan_network(
                        device,
                        build_network(name),
                        PipelineOptions(),
                        context=SimulationContext(device),
                    )
        return pairs

    def test_planned_kernels_keep_their_keys(self, planned):
        assert {d.name for _, d in planned} == {TITAN_BLACK.name, TITAN_X.name}
        assert len(planned) > 500
        for model, device in planned:
            assert structural_key(model, device) == _reference_key(model, device)


class TestCache:
    def test_separately_built_equal_models_share_one_timing(self, device):
        """Regression for the dead ``id(model)`` memoization: two
        structurally-equal models built independently must share a single
        cache entry (and the very same stats object)."""
        ctx = SimulationContext(device)
        first = ctx.run(ToyKernel(flops=3e9))
        second = ctx.run(ToyKernel(flops=3e9))
        assert first is second
        assert ctx.cache_size == 1
        assert ctx.stats.misses == 1
        assert ctx.stats.hits == 1

    def test_hit_miss_accounting(self, device):
        ctx = SimulationContext(device)
        for _ in range(3):
            ctx.run(ToyKernel(name="conv-a"))
        ctx.run(ToyKernel(name="pool-b", flops=2e9))
        assert ctx.stats.queries == 4
        assert ctx.stats.misses == ctx.stats.kernels_timed == 2
        assert ctx.stats.hits == 2
        assert ctx.stats.hit_rate == pytest.approx(0.5)
        assert ctx.stats.by_kind["conv"].hits == 2
        assert ctx.stats.by_kind["conv"].misses == 1
        assert ctx.stats.by_kind["pool"].misses == 1
        assert ctx.stats.sim_wall_s >= 0.0

    def test_clear_cache(self, device):
        ctx = SimulationContext(device)
        ctx.run(ToyKernel())
        ctx.clear_cache()
        assert ctx.cache_size == 0
        ctx.run(ToyKernel())
        assert ctx.stats.misses == 2

    def test_composed_kernel_caches_stages(self, device):
        ctx = SimulationContext(device)
        composed = ComposedKernel(
            kernels=[ToyKernel(name="a"), ToyKernel(name="b", flops=2e9)],
            name="ab",
        )
        cold = ctx.run(composed)
        warm = ctx.run(
            ComposedKernel(
                kernels=[ToyKernel(name="a"), ToyKernel(name="b", flops=2e9)],
                name="ab",
            )
        )
        assert warm.time_ms == pytest.approx(cold.time_ms)
        assert ctx.stats.misses == 2  # the two stages, timed once each
        assert ctx.stats.hits == 2  # served from cache on the second pass


class TestPersistence:
    def test_round_trip(self, device, tmp_path):
        path = tmp_path / "cache.json"
        hot = SimulationContext(device, cache_path=path)
        original = hot.run(ToyKernel(flops=5e9))
        hot.save_cache()

        cold = SimulationContext(device, cache_path=path)
        assert cold.cache_size == 1
        assert cold.stats.loaded_from_disk == 1
        restored = cold.run(ToyKernel(flops=5e9))
        assert cold.stats.misses == 0  # nothing re-timed
        assert cold.stats.hits == 1
        assert restored.time_ms == pytest.approx(original.time_ms)
        assert restored.occupancy.limiter == original.occupancy.limiter
        assert restored.bound == original.bound

    def test_save_needs_a_path(self, device):
        with pytest.raises(ValueError):
            SimulationContext(device).save_cache()

    def test_unknown_version_ignored(self, device, tmp_path):
        path = tmp_path / "stale.json"
        path.write_text('{"version": 999, "entries": {"k": {}}}')
        ctx = SimulationContext(device)
        assert ctx.load_cache(path) == 0
        assert ctx.cache_size == 0

    def test_version_1_files_are_rejected(self, device, tmp_path):
        """Version-1 files carry a retired ``KernelStats`` field: they
        load nothing and the session re-times cold."""
        spec = PoolSpec(n=4, c=6, h=13, w=13, window=3, stride=2)
        hot = SimulationContext(device)
        hot.run(make_pool_kernel(spec, "nchw-linear"), check_memory=False)
        target = hot.save_cache(tmp_path / "cache.json")
        payload = json.loads(target.read_text())
        payload["version"] = 1
        for entry in payload["entries"].values():
            entry["traced_l2_hit_rate"] = 0.5
        target.write_text(json.dumps(payload))
        ctx = SimulationContext(device)
        assert ctx.load_cache(target) == 0
        ctx.run(make_pool_kernel(spec, "nchw-linear"), check_memory=False)
        assert ctx.stats.misses == 1
        assert ctx.stats.hits == 0

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json{",
            b"\xff\xfe not utf-8",
            b'{"version": %d, "entries": [1, 2]}' % _VERSION,
            b'{"version": %d, "entries": {"k": "not a record"}}' % _VERSION,
        ],
        ids=["damaged-json", "not-utf8", "entries-list", "entry-string"],
    )
    def test_damaged_file_is_never_fatal(self, device, tmp_path, payload):
        """A cache file is an accelerator, not an input: corruption must
        degrade to a cold cache, not an exception."""
        path = tmp_path / "corrupt.json"
        path.write_bytes(payload)
        assert SimulationContext(device).load_cache(path) == 0
        ctx = SimulationContext(device, cache_path=path)
        assert ctx.cache_size == 0
        ctx.run(ToyKernel())
        assert ctx.stats.misses == 1  # simply re-timed

    def test_malformed_entries_skipped(self, device, tmp_path):
        good = SimulationContext(device)
        good.run(ToyKernel())
        target = good.save_cache(tmp_path / "cache.json")
        payload = json.loads(target.read_text())
        payload["entries"]["bogus@dev#00"] = {"unexpected": "shape"}
        target.write_text(json.dumps(payload))
        ctx = SimulationContext(device)
        assert ctx.load_cache(target) == 1  # the good entry only

    def test_explicit_save_path_overrides(self, device, tmp_path):
        ctx = SimulationContext(device)
        ctx.run(ToyKernel())
        target = ctx.save_cache(tmp_path / "sub" / "cache.json")
        assert target.exists()
        assert SimulationContext(device, cache_path=target).cache_size == 1


class TestOom:
    def test_oversized_workspace_raises(self, device):
        ctx = SimulationContext(device)
        with pytest.raises(GpuOutOfMemoryError) as err:
            ctx.run(ToyKernel(workspace=7 * 2**30))
        assert err.value.required_bytes == 7 * 2**30

    def test_resident_tensors_count_against_capacity(self, device):
        ctx = SimulationContext(device, tensor_bytes_resident=5 * 2**30)
        with pytest.raises(GpuOutOfMemoryError):
            ctx.run(ToyKernel(workspace=2 * 2**30))

    def test_oom_fires_even_on_cache_hits(self, device):
        """Caching a timing must not cache away the capacity check."""
        ctx = SimulationContext(device, check_memory=False)
        ctx.run(ToyKernel(workspace=7 * 2**30))  # timed, unchecked
        with pytest.raises(GpuOutOfMemoryError):
            ctx.run(ToyKernel(workspace=7 * 2**30), check_memory=True)

    def test_per_call_resident_override(self, device):
        ctx = SimulationContext(device)
        ctx.run(ToyKernel(workspace=2 * 2**30))  # fits alone
        with pytest.raises(GpuOutOfMemoryError):
            ctx.run(
                ToyKernel(workspace=2 * 2**30),
                tensor_bytes_resident=5 * 2**30,
            )


class TestDefaultContexts:
    def test_engines_share_the_default_session(self, device):
        reset_default_contexts()
        try:
            a = default_context(device)
            b = default_context(device)
            assert a is b
            a.run(ToyKernel(flops=7e9))
            b.run(ToyKernel(flops=7e9))
            assert default_context(device).stats.hits == 1
        finally:
            reset_default_contexts()

    def test_value_equal_devices_share_a_session(self, device):
        from dataclasses import replace

        reset_default_contexts()
        try:
            assert default_context(device) is default_context(replace(device))
        finally:
            reset_default_contexts()


class TestSimStats:
    def test_merge_and_reset(self):
        a, b = SimStats(), SimStats()
        a.record_miss("conv", 0.25)
        b.record_hit("conv")
        b.record_miss("pool", 0.5)
        a.merge(b)
        assert a.queries == 3
        assert a.sim_wall_s == pytest.approx(0.75)
        assert a.by_kind["conv"].total == 2
        a.reset()
        assert a.queries == 0 and not a.by_kind

    def test_summary_mentions_counters(self):
        stats = SimStats()
        stats.record_miss("conv", 0.001)
        stats.record_hit("conv")
        text = stats.summary()
        assert "kernel queries : 2" in text
        assert "cache hits     : 1 (50.0%)" in text
        assert "kernels timed  : 1" in text
        assert "conv" in text
