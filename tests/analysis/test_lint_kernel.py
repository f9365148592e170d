"""K0xx rules: kernel models against device limits and bandwidth patterns."""

from repro.analysis import Severity, lint_kernel
from repro.gpusim import TITAN_BLACK
from repro.gpusim.kernel import KernelModel, LaunchConfig, MemoryProfile


class StubKernel(KernelModel):
    """A kernel whose launch geometry and memory profile are dictated."""

    name = "stub"

    def __init__(self, launch: LaunchConfig, profile: MemoryProfile | None = None):
        self._launch = launch
        self._profile = profile or MemoryProfile(
            load_bytes=1e6,
            store_bytes=1e6,
            load_transactions=1e6 / 32,
            store_transactions=1e6 / 32,
        )

    def launch_config(self, device):
        return self._launch

    def flop_count(self):
        return 1e6

    def memory_profile(self, device):
        return self._profile


def launch(threads=256, blocks=4096, regs=32, smem=0):
    return LaunchConfig(
        grid=(blocks, 1, 1),
        block=(threads, 1, 1),
        regs_per_thread=regs,
        smem_per_block=smem,
    )


def profile(**overrides):
    base = dict(
        load_bytes=1e6,
        store_bytes=1e6,
        load_transactions=1e6 / 32,
        store_transactions=1e6 / 32,
    )
    base.update(overrides)
    return MemoryProfile(**base)


def lint(kernel, device=TITAN_BLACK):
    return lint_kernel(device, kernel, owner="stub")


def ids_of(diagnostics):
    return {d.rule_id for d in diagnostics}


class TestHardLimits:
    def test_clean_kernel_no_diagnostics(self):
        assert lint(StubKernel(launch())) == []

    def test_k001_oversized_block(self):
        diags = lint(StubKernel(launch(threads=2048)))
        errors = [d for d in diags if d.rule_id == "K001"]
        (d,) = errors
        assert d.severity is Severity.ERROR
        assert d.detail["limit"] == TITAN_BLACK.max_threads_per_block

    def test_k002_oversized_shared_memory(self):
        diags = lint(StubKernel(launch(smem=64 * 1024)))
        assert "K002" in ids_of(diags)
        (d,) = [d for d in diags if d.rule_id == "K002"]
        assert d.severity is Severity.ERROR

    def test_k003_impossible_register_demand(self):
        assert "K003" in ids_of(lint(StubKernel(launch(regs=300))))

    def test_k004_zero_occupancy_register_file(self):
        # 1024 threads x 128 regs = 131072 regs/block > 65536 regs/SM.
        diags = lint(StubKernel(launch(threads=1024, regs=128)))
        (d,) = [d for d in diags if d.rule_id == "K004"]
        assert d.severity is Severity.ERROR
        assert d.detail["code"] == "regs_per_block"

    def test_hard_error_suppresses_occupancy_warning(self):
        diags = lint(StubKernel(launch(threads=1024, regs=128)))
        assert "K005" not in ids_of(diags)


class TestSoftRules:
    def test_k005_low_occupancy(self):
        # One 30 KiB block per SM: 8 of 64 resident warps = 12.5%.
        diags = lint(StubKernel(launch(threads=256, smem=30 * 1024)))
        (d,) = [d for d in diags if d.rule_id == "K005"]
        assert d.severity is Severity.WARNING
        assert d.detail["limiter"] == "shared_memory"

    def test_k006_uncoalesced_access(self):
        bad = profile(load_transactions=1e6, store_transactions=1e6)  # 32x
        diags = lint(StubKernel(launch(), bad))
        (d,) = [d for d in diags if d.rule_id == "K006"]
        assert d.detail["inflation"] > 4.0

    def test_k007_bank_conflicts(self):
        diags = lint(StubKernel(launch(), profile(smem_conflict_degree=16.0)))
        (d,) = [d for d in diags if d.rule_id == "K007"]
        assert d.severity is Severity.WARNING

    def test_k008_partial_warp(self):
        assert "K008" in ids_of(lint(StubKernel(launch(threads=100))))

    def test_k009_grid_underfills_device(self):
        diags = lint(StubKernel(launch(blocks=5)))
        (d,) = [d for d in diags if d.rule_id == "K009"]
        assert d.severity is Severity.INFO
        assert d.detail["sm_count"] == TITAN_BLACK.sm_count

    def test_k010_unaligned_access_width(self):
        assert "K010" in ids_of(lint(StubKernel(launch(), profile(access_bytes=6))))

    def test_aligned_widths_clean(self):
        for width in (4, 8, 16):
            diags = lint(StubKernel(launch(), profile(access_bytes=width)))
            assert "K010" not in ids_of(diags)


class TestNetworkTransformKernels:
    """``lint_network`` lints one kernel per edge transform, sized from the
    tensor that edge relays (its producer's output), not the consumer's
    joined input."""

    @staticmethod
    def linted_transforms(monkeypatch, device, strategy):
        import repro.analysis.lint as lint
        from repro.networks import build_network

        seen = []
        lint_kernel_through = lint.lint_kernel

        def record(device, kernel, owner="", **kwargs):
            if kernel.name.startswith("transform-"):
                desc = kernel.desc
                seen.append((owner, desc.dims, str(desc.layout), str(kernel.target)))
            return lint_kernel_through(device, kernel, owner=owner, **kwargs)

        monkeypatch.setattr(lint, "lint_kernel", record)
        lint.lint_network(device, build_network("inception"), strategy=strategy)
        return seen

    def test_heuristic_inception_concat_lints_every_branch(self, monkeypatch, device):
        kernel = "transform-opt2"
        assert self.linted_transforms(monkeypatch, device, "heuristic") == [
            (f"conv2[{kernel}]", (64, 64, 56, 56), "CHWN", "NCHW"),
            (f"b3a[{kernel}]", (64, 192, 28, 28), "NCHW", "CHWN"),
            # the concat's three transforms, one per relayouted branch
            (f"concat[{kernel}]", (64, 64, 28, 28), "NCHW", "CHWN"),
            (f"concat[{kernel}]", (64, 128, 28, 28), "NCHW", "CHWN"),
            (f"concat[{kernel}]", (64, 32, 28, 28), "NCHW", "CHWN"),
        ]

    def test_optimal_inception_concat_sized_by_its_branch(self, monkeypatch, device):
        kernel = "transform-opt2"
        assert self.linted_transforms(monkeypatch, device, "optimal") == [
            (f"conv3[{kernel}]", (64, 64, 56, 56), "CHWN", "NCHW"),
            (f"pool2[{kernel}]", (64, 192, 56, 56), "NCHW", "CHWN"),
            (f"b2b[{kernel}]", (64, 96, 28, 28), "CHWN", "NCHW"),
            # b2b's output (128 channels), not the 256-channel joined tensor
            (f"concat[{kernel}]", (64, 128, 28, 28), "NCHW", "CHWN"),
        ]


class TestComposedKernelStages:
    """A composed kernel is linted launch by launch: each stage is checked
    against the device on its own geometry and profile."""

    def test_heuristic_inception_lints_every_im2col_stage(self, monkeypatch, device):
        import repro.analysis.lint as lint
        from repro.networks import build_network

        seen = []
        lint_kernel_through = lint.lint_kernel

        def record(device, kernel, owner="", **kwargs):
            seen.append((owner, kernel.name))
            return lint_kernel_through(device, kernel, owner=owner, **kwargs)

        monkeypatch.setattr(lint, "lint_kernel", record)
        lint.lint_network(device, build_network("inception"), strategy="heuristic")
        im2col = sorted(owner for owner, name in seen if name == "conv-mm-nchw")
        assert im2col == ["b1[im2col]", "b2a[im2col]", "b4[im2col]", "conv2[im2col]"]
        for node in ("conv2", "b1", "b2a", "b4"):
            for stage in ("conv-im2col-unroll", "conv-gemm"):
                assert (f"{node}[im2col/{stage}]", stage) in seen

    def test_stage_diagnostics_name_the_stage(self, device):
        from repro.gpusim.kernel import ComposedKernel

        wide = StubKernel(launch(threads=2048))
        wide.name = "wide"
        composed = ComposedKernel(kernels=[StubKernel(launch()), wide], name="pair")
        diags = lint_kernel(device, composed, owner="conv9[pair]")
        assert {d.subject for d in diags if d.rule_id == "K001"} == {
            "conv9[pair/wide]"
        }
