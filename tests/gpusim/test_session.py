"""Simulation sessions: structural cache, counters, persistence, OOM."""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum, IntEnum
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from repro.gpusim import (
    ComposedKernel,
    GpuOutOfMemoryError,
    KernelModel,
    LaunchConfig,
    MemoryProfile,
    SimStats,
    SimulationContext,
    check_fit,
    default_context,
    reset_default_contexts,
    structural_key,
)
from repro.core.pipeline import PipelineOptions, plan_network
from repro.gpusim import session as session_module
from repro.gpusim.device import TITAN_BLACK, TITAN_X, ArchProfile, DeviceSpec
from repro.gpusim.occupancy import Occupancy
from repro.gpusim.session import _key_text
from repro.gpusim.timing import KernelStats
from repro.analysis import sweep_conv, sweep_pool
from repro.layers import PoolSpec
from repro.layers.conv_kernels import (
    CONV_IMPLEMENTATIONS,
    ConvUnsupportedError,
    make_conv_kernel,
)
from repro.layers.softmax_kernels import SOFTMAX_IMPLEMENTATIONS, make_softmax_kernel
from repro.networks.definitions import NETWORK_BUILDERS, build_network
from repro.networks.table1 import CLASS_LAYERS, CONV_LAYERS, POOL_LAYERS
from repro.layers.pooling_kernels import POOL_IMPLEMENTATIONS, make_pool_kernel
from repro.tensors import CHWN, NCHW, TensorDesc
from repro.tensors.transform_kernels import make_transform_kernel


_VERSION = session_module._CACHE_FORMAT_VERSION
_STATS_FIELDS = [f.name for f in fields(KernelStats)]
_OCCUPANCY_FIELDS = [f.name for f in fields(Occupancy)]


def _pythonpath():
    src = Path(__file__).resolve().parents[2] / "src"
    return os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))


def _model():
    return session_module._model_fingerprint()


def _stats_dict(stats):
    """A ``KernelStats`` as the dict-entry formats (versions 1 and 2) held it."""
    entry = {f: getattr(stats, f) for f in _STATS_FIELDS}
    entry["occupancy"] = {f: getattr(stats.occupancy, f) for f in _OCCUPANCY_FIELDS}
    return entry


def _entries(ctx):
    """Every timing-cache entry of ``ctx``, key to ``KernelStats``."""
    return dict(ctx._cache)


def _saved_toy_cache(device, tmp_path):
    ctx = SimulationContext(device)
    ctx.run(ToyKernel())
    return ctx.save_cache(tmp_path / "cache.json")


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


def _describe(obj):
    """The structural description the keys were first defined over,
    kept verbatim as the oracle for ``structural_key``'s direct writer."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)  # full precision, JSON-stable
    if isinstance(obj, KernelModel):
        cls = type(obj)
        state = {k: _describe(v) for k, v in sorted(obj.structural_state().items())}
        return {
            "__kernel__": f"{cls.__module__}.{cls.__qualname__}",
            "name": obj.name,
            "n_launches": obj.n_launches,
            "state": state,
        }
    if is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: _describe(getattr(obj, f.name)) for f in fields(obj)
            },
        }
    if isinstance(obj, Enum):
        return {"__enum__": f"{type(obj).__qualname__}.{obj.name}"}
    if isinstance(obj, (tuple, list)):
        return [_describe(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_describe(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): _describe(v) for k, v in sorted(obj.items())}
    # Layout objects, numpy scalars, ...: fall back to class-tagged repr.
    return {"__repr__": f"{type(obj).__qualname__}:{obj!r}"}


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


def _recorded_keys(build):
    """Every (kernel, device) pair keyed while ``build()`` runs, with the
    stages of composed kernels."""
    pairs = []
    original = session_module.structural_key

    def recording(model, device):
        pairs.append((model, device))
        return original(model, device)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(session_module, "structural_key", recording)
        build()
    return [(stage, device) for model, device in pairs for stage in _stages(model)]


def _stages(model):
    yield model
    if isinstance(model, ComposedKernel):
        for stage in model.kernels:
            yield from _stages(stage)


class _Mode(IntEnum):
    FAST = 2


class _OddStateKernel(ToyKernel):
    """A kernel whose state holds values no bundled kernel does: a NumPy
    float scalar, an ``IntEnum``, a set and an int-keyed dict."""

    def __init__(self):
        super().__init__(name="toy-odd-state")
        self.scale = np.float64(0.1)
        self.mode = _Mode.FAST
        self.tags = frozenset({10, 9, 2})  # text order is not value order
        self.by_size = {2: "b", 1: (1.5, None, True)}


class TestStructuralKeyBytes:
    """Keys must stay byte-identical to the original formula, or every
    persisted cache file silently turns into misses."""

    DEVICES = (TITAN_BLACK, TITAN_X)

    @pytest.fixture(scope="class")
    def planned(self):
        """Every (kernel, device) pair keyed while planning each bundled
        network on both devices."""

        def build():
            for device in self.DEVICES:
                for name in NETWORK_BUILDERS:
                    plan_network(
                        device,
                        build_network(name),
                        PipelineOptions(),
                        context=SimulationContext(device),
                    )

        return _recorded_keys(build)

    def test_planned_kernels_keep_their_keys(self, planned):
        assert {d.name for _, d in planned} == {TITAN_BLACK.name, TITAN_X.name}
        assert len(planned) > 500
        for model, device in planned:
            assert structural_key(model, device) == _reference_key(model, device)

    def test_conv_sweep_kernels_keep_their_keys(self):
        """Every conv implementation, composed FFT and im2col included."""

        def build():
            for device in self.DEVICES:
                sweep_conv(
                    device,
                    CONV_LAYERS["CV7"],
                    "n",
                    (1, 16, 128),
                    CONV_IMPLEMENTATIONS,
                    context=SimulationContext(device),
                )

        pairs = _recorded_keys(build)
        names = {m.name for m, _ in pairs}
        assert {"conv-mm-nchw", "conv-mm-nhwc", "conv-im2col-unroll"} <= names
        assert {"conv-fft-nchw", "conv-fft-tiled-nchw", "conv-winograd-nchw"} <= names
        for model, device in pairs:
            assert structural_key(model, device) == _reference_key(model, device)

    def test_pool_sweep_kernels_keep_their_keys(self):
        def build():
            for device in self.DEVICES:
                sweep_pool(
                    device,
                    POOL_LAYERS["PL5"],
                    "n",
                    (1, 32, 128),
                    POOL_IMPLEMENTATIONS,
                    context=SimulationContext(device),
                )

        pairs = _recorded_keys(build)
        assert len(pairs) == 2 * 3 * len(POOL_IMPLEMENTATIONS)
        for model, device in pairs:
            assert structural_key(model, device) == _reference_key(model, device)

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    def test_softmax_transform_and_toy_kernels_keep_their_keys(self, device):
        models = [
            stage
            for spec in CLASS_LAYERS.values()
            for impl in SOFTMAX_IMPLEMENTATIONS
            for stage in _stages(make_softmax_kernel(spec, impl))
        ]
        desc = TensorDesc(64, 96, 27, 27, NCHW)
        models += [
            make_transform_kernel(desc, CHWN, method)
            for method in ("naive", "opt1", "opt2")
        ]
        models.append(_OddStateKernel())
        for model in models:
            assert structural_key(model, device) == _reference_key(model, device)


class TestKeyWork:
    """What a key costs: derived attributes stay out of the description,
    and a spec's text is written once per value."""

    @staticmethod
    def _kernels():
        desc = TensorDesc(64, 96, 27, 27, NCHW)
        for spec in CONV_LAYERS.values():
            for impl in CONV_IMPLEMENTATIONS:
                try:
                    yield make_conv_kernel(spec, impl)
                except ConvUnsupportedError:
                    pass
        for method in ("naive", "opt1", "opt2"):
            yield make_transform_kernel(desc, CHWN, method)

    def test_excluded_attributes_are_derived(self):
        """A kernel rebuilt from its kept state alone (its constructor's
        arguments all live there) has equal excluded attributes."""
        rebuilt_classes = set()
        for kernel in self._kernels():
            cls = type(kernel)
            kept = kernel.structural_state()
            derived = set(vars(kernel)) - set(kept)
            assert derived <= cls.structural_exclude
            params = list(inspect.signature(cls.__init__).parameters)[1:]
            rebuilt = cls(**{p: kept[p] for p in params})
            for name in derived:
                assert _key_text(getattr(rebuilt, name)) == _key_text(
                    getattr(kernel, name)
                ), f"{cls.__name__}.{name}"
            if derived - KernelModel.structural_exclude:
                rebuilt_classes.add(cls.__name__)
        assert rebuilt_classes == {
            "Im2colGemmNCHW", "Im2colGemmNHWC", "FFTConvNCHW",
            "TiledTransformKernel", "VectorTransformKernel",
        }

    def test_memo_stays_within_its_cap(self):
        base = CONV_LAYERS["CV7"]
        for n in range(1, 2001):
            structural_key(make_conv_kernel(replace(base, n=n), "direct"), TITAN_BLACK)
            assert len(session_module._TEXT_MEMO) <= session_module._TEXT_MEMO_SIZE

    def test_unhashable_frozen_value_is_written_unmemoized(self, device):
        """A frozen dataclass holding a list cannot key the memo; it is
        written in full, byte for byte as the reference formula writes it."""

        @dataclass(frozen=True)
        class Shape:
            dims: list

        kernel = ToyKernel()
        kernel.shape = Shape([4, 8])
        assert structural_key(kernel, device) == _reference_key(kernel, device)
        assert all(type(k) is not Shape for k in session_module._TEXT_MEMO)

    def test_im2col_writes_its_spec_once(self, monkeypatch):
        """Keyed twice, an im2col kernel describes its ConvSpec's fields
        once, and never describes its stages (they derive from the spec)."""
        monkeypatch.setattr(session_module, "_TEXT_MEMO", {})
        monkeypatch.setattr(session_module, "_payload_head", (None, None))
        described = []
        real = session_module._key_text

        def recording(obj):
            described.append(obj)
            return real(obj)

        monkeypatch.setattr(session_module, "_key_text", recording)
        spec = CONV_LAYERS["CV7"]
        kernel = make_conv_kernel(spec, "im2col")
        first = structural_key(kernel, TITAN_BLACK)
        firsts, described[:] = described[:], []
        assert structural_key(kernel, TITAN_BLACK) == first
        assert [type(o) for o in described] == [type(kernel), type(spec)]
        assert sum(type(o) is type(spec) for o in firsts) == 1
        assert [o for o in firsts if isinstance(o, KernelModel)] == [kernel]


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

    def test_composed_kernel_is_one_entry(self, device):
        """A composed kernel is one memo entry under its own key: one
        miss, then one hit, and its stages are never entries of their own."""
        ctx = SimulationContext(device)

        def build():
            return ComposedKernel(
                kernels=[ToyKernel(name="a"), ToyKernel(name="b", flops=2e9)],
                name="ab",
            )

        cold = ctx.run(build())
        assert (ctx.stats.misses, ctx.stats.hits) == (1, 0)
        warm = ctx.run(build())
        assert warm is cold
        assert (ctx.stats.misses, ctx.stats.hits) == (1, 1)
        assert ctx.cache_size == 1
        stages = [ctx.run(stage) for stage in build().kernels]
        assert ctx.stats.misses == 3  # the stages were not cached by the run
        assert cold.time_ms == sum(s.time_ms for s in stages)


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
        path.write_text(
            json.dumps({"version": 999, "model": _model(), "entries": {"k": {}}})
        )
        ctx = SimulationContext(device)
        assert ctx.load_cache(path) == 0
        assert ctx.cache_size == 0

    def test_version_1_files_are_rejected(self, device, tmp_path):
        """Version-1 files (dict entries carrying a retired ``KernelStats``
        field) load nothing, even stamped by this model, and the session
        re-times cold."""
        spec = PoolSpec(n=4, c=6, h=13, w=13, window=3, stride=2)
        hot = SimulationContext(device)
        hot.run(make_pool_kernel(spec, "nchw-linear"))
        entries = {}
        for key, stats in _entries(hot).items():
            entry = _stats_dict(stats)
            entry["traced_l2_hit_rate"] = 0.5
            entries[key] = entry
        target = tmp_path / "cache.json"
        target.write_text(
            json.dumps({"version": 1, "model": _model(), "entries": entries})
        )
        ctx = SimulationContext(device)
        assert ctx.load_cache(target) == 0
        ctx.run(make_pool_kernel(spec, "nchw-linear"))
        assert ctx.stats.misses == 1
        assert ctx.stats.hits == 0

    def test_version_2_dict_files_load_nothing(self, device, tmp_path):
        """A file as version 2 wrote it (dict entries, no model stamp) is
        stale: nothing loads and the session re-times cold."""
        hot = SimulationContext(device)
        hot.run(ToyKernel())
        entries = {k: _stats_dict(v) for k, v in _entries(hot).items()}
        target = tmp_path / "cache.json"
        target.write_text(
            json.dumps({"version": 2, "entries": entries}, indent=1, sort_keys=True)
        )
        ctx = SimulationContext(device, cache_path=target)
        assert ctx.cache_size == 0
        assert ctx.stats.stale_rejected == 1
        ctx.run(ToyKernel())
        assert ctx.stats.misses == 1

    def test_wrong_fingerprint_loads_nothing(self, device, tmp_path):
        target = _saved_toy_cache(device, tmp_path)
        payload = json.loads(target.read_text())
        payload["model"] = "0" * 64
        target.write_text(json.dumps(payload))
        ctx = SimulationContext(device)
        assert ctx.load_cache(target) == 0
        assert ctx.stats.stale_rejected == 1
        assert ctx.metrics.value("sim.cache.stale_rejected") == 1
        ctx.run(ToyKernel())
        assert ctx.stats.misses == 1

    def test_unreadable_model_source_loads_nothing(
        self, device, tmp_path, monkeypatch
    ):
        """Without a fingerprint no file can be trusted."""
        target = _saved_toy_cache(device, tmp_path)
        real = Path.read_bytes

        def read_bytes(path):
            if path.name == "timing.py":
                raise PermissionError(13, "Permission denied", str(path))
            return real(path)

        session_module._model_fingerprint.cache_clear()
        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        try:
            ctx = SimulationContext(device)
            assert ctx.load_cache(target) == 0
            assert ctx.stats.stale_rejected == 1
        finally:
            monkeypatch.undo()
            session_module._model_fingerprint.cache_clear()
        assert SimulationContext(device).load_cache(target) == 1

    def test_fingerprint_is_not_computed_at_import(self):
        code = (
            "import repro.gpusim.session as s; "
            "print(s._model_fingerprint.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": _pythonpath()},
        )
        assert out.stdout.strip() == "0"

    def test_keys_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Two interpreters with different hash seeds key one alexnet
        plan's kernels alike, and each loads every entry the other saved."""
        script = (
            "import json, sys\n"
            "from repro.core.pipeline import PipelineOptions, plan_network\n"
            "from repro.gpusim import SimulationContext, session\n"
            "from repro.gpusim.device import TITAN_BLACK\n"
            "from repro.networks.definitions import build_network\n"
            "keys = []\n"
            "real = session.structural_key\n"
            "session.structural_key = lambda m, d: keys.append(real(m, d)) or keys[-1]\n"
            "ctx = SimulationContext(TITAN_BLACK)\n"
            "loaded = ctx.load_cache(sys.argv[1]) if sys.argv[2] == 'load' else 0\n"
            "plan_network(TITAN_BLACK, build_network('alexnet'), PipelineOptions(),"
            " context=ctx)\n"
            "ctx.save_cache(sys.argv[1] + '.' + sys.argv[2])\n"
            "print(json.dumps({'keys': keys, 'loaded': loaded,"
            " 'misses': ctx.stats.misses, 'entries': ctx.cache_size}))\n"
        )

        def run(seed, mode, path):
            out = subprocess.run(
                [sys.executable, "-c", script, str(path), mode],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": _pythonpath(), "PYTHONHASHSEED": seed},
            )
            return json.loads(out.stdout.splitlines()[-1])

        path = tmp_path / "cache.json"
        first = run("1", "save", path)
        (tmp_path / "cache.json.save").rename(path)
        second = run("2", "load", path)
        assert len(first["keys"]) > 50
        assert second["keys"] == first["keys"]
        assert second["loaded"] == first["entries"] == second["entries"]
        assert second["misses"] == 0
        back = run("3", "load", tmp_path / "cache.json.load")
        assert back["loaded"] == first["entries"] and back["misses"] == 0

    def test_truncated_file_loads_nothing(self, device, tmp_path):
        target = _saved_toy_cache(device, tmp_path)
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        ctx = SimulationContext(device, cache_path=target)
        assert ctx.cache_size == 0
        ctx.run(ToyKernel())
        assert ctx.stats.misses == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time_ms", "abc"),
            ("flops", None),
            ("n_launches", True),
            ("name", 3),
            ("device", None),
            ("bound", 1.0),
            ("limiter", 4),
            ("waves", "1"),
        ],
    )
    def test_mistyped_row_is_skipped(self, device, tmp_path, field, value):
        """A row with a value of the wrong JSON type loads as nothing,
        never as a result (a string ``time_ms`` used to reach callers)."""
        target = _saved_toy_cache(device, tmp_path)
        payload = json.loads(target.read_text())
        (row,) = payload["entries"].values()
        occupancy_at = _STATS_FIELDS.index("occupancy")
        if field in _STATS_FIELDS:
            row[_STATS_FIELDS.index(field)] = value
        else:
            row[occupancy_at][_OCCUPANCY_FIELDS.index(field)] = value
        target.write_text(json.dumps(payload))
        ctx = SimulationContext(device)
        assert ctx.load_cache(target) == 0
        stats = ctx.run(ToyKernel())
        assert isinstance(stats.time_ms, float)
        assert ctx.stats.misses == 1

    @pytest.mark.parametrize(
        "cut", ["row-short", "row-long", "occupancy-short", "occupancy-dict"]
    )
    def test_wrong_arity_row_is_skipped(self, device, tmp_path, cut):
        target = _saved_toy_cache(device, tmp_path)
        payload = json.loads(target.read_text())
        (row,) = payload["entries"].values()
        occupancy_at = _STATS_FIELDS.index("occupancy")
        if cut == "row-short":
            row.pop()
        elif cut == "row-long":
            row.append(1)
        elif cut == "occupancy-short":
            row[occupancy_at].pop()
        else:
            row[occupancy_at] = dict(zip(_OCCUPANCY_FIELDS, row[occupancy_at]))
        target.write_text(json.dumps(payload))
        assert SimulationContext(device).load_cache(target) == 0

    def test_conv_grid_round_trip_is_exact(self, tmp_path):
        """Every timing of a real sweep grid loads back equal, and saving
        the loaded session again writes the same bytes."""
        hot = SimulationContext(TITAN_BLACK)
        sweep_conv(
            TITAN_BLACK,
            CONV_LAYERS["CV7"],
            "ci",
            (1, 3, 96, 256),
            CONV_IMPLEMENTATIONS,
            context=hot,
        )
        first = hot.save_cache(tmp_path / "first.json")
        cold = SimulationContext(TITAN_BLACK, cache_path=first)
        assert cold.cache_size == hot.cache_size > 20
        assert _entries(cold) == _entries(hot)
        second = cold.save_cache(tmp_path / "second.json")
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json{",
            b"\xff\xfe not utf-8",
            b'{"version": %d, "model": "@MODEL@", "entries": [1, 2]}' % _VERSION,
            b'{"version": %d, "model": "@MODEL@", "entries": {"k": "not a record"}}'
            % _VERSION,
        ],
        ids=["damaged-json", "not-utf8", "entries-list", "entry-string"],
    )
    def test_damaged_file_is_never_fatal(self, device, tmp_path, payload):
        """A cache file is an accelerator, not an input: corruption must
        degrade to a cold cache, not an exception."""
        path = tmp_path / "corrupt.json"
        path.write_bytes(payload.replace(b"@MODEL@", _model().encode()))
        assert SimulationContext(device).load_cache(path) == 0
        ctx = SimulationContext(device, cache_path=path)
        assert ctx.cache_size == 0
        ctx.run(ToyKernel())
        assert ctx.stats.misses == 1  # simply re-timed
        assert ctx.stats.stale_rejected == 0

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
        with pytest.raises(GpuOutOfMemoryError) as err:
            check_fit(device, ToyKernel(workspace=7 * 2**30))
        assert err.value.required_bytes == 7 * 2**30
        assert err.value.available_bytes == device.dram_bytes

    def test_workspace_at_capacity_fits(self, device):
        check_fit(device, ToyKernel(workspace=device.dram_bytes))

    def test_oom_fires_even_on_cache_hits(self, device):
        """Caching a timing must not cache away the capacity check."""
        ctx = SimulationContext(device)
        ctx.run(ToyKernel(workspace=7 * 2**30))  # run only times
        ctx.run(ToyKernel(workspace=7 * 2**30))
        assert ctx.stats.hits == 1
        with pytest.raises(GpuOutOfMemoryError):
            check_fit(device, ToyKernel(workspace=7 * 2**30))


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
