"""CLI commands (smoke-level, via main())."""

import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GTX Titan Black" in out
        assert "alexnet" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--device", "titan-x"]) == 0
        out = capsys.readouterr().out
        assert "Ct=128" in out and "Nt=64" in out

    def test_plan(self, capsys):
        assert main(["plan", "--network", "lenet"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "transforms:" in out

    def test_plan_heuristic_strategy(self, capsys):
        assert main(["plan", "--network", "cifar", "--strategy", "heuristic"]) == 0
        assert "heuristic" in capsys.readouterr().out

    def test_plan_json_format(self, capsys):
        import json

        assert main(["plan", "--network", "lenet", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"] == "lenet"
        assert payload["steps"][0]["name"] == "conv1"
        assert [p["name"] for p in payload["passes"]][:2] == [
            "ResolveShapes",
            "AssignLayouts",
        ]
        assert "nodes" in payload["graph"]

    def test_plan_explain_prints_pass_table(self, capsys):
        assert main(["plan", "--network", "cifar", "--explain"]) == 0
        out = capsys.readouterr().out
        for name in (
            "ResolveShapes", "AssignLayouts", "InsertTransforms",
            "SelectImplementations",
        ):
            assert name in out
        assert "FuseKernels" not in out

    def test_plan_branching_network(self, capsys):
        assert main(["plan", "--network", "inception"]) == 0
        out = capsys.readouterr().out
        assert "concat" in out and "b3b" in out

    def test_bench_network(self, capsys):
        assert main(["bench", "--network", "lenet"]) == 0
        out = capsys.readouterr().out
        assert "opt" in out and "cudnn-mm" in out

    def test_bench_conv_layers(self, capsys):
        assert main(["bench", "--layers", "conv"]) == 0
        out = capsys.readouterr().out
        assert "CV1" in out and "FAIL" in out  # CV5/CV6 FFT failures visible

    def test_bench_softmax_layers(self, capsys):
        assert main(["bench", "--layers", "softmax"]) == 0
        assert "128/10000" in capsys.readouterr().out

    def test_transform(self, capsys):
        assert main(["transform", "--n", "64", "--c", "32", "--hw", "14"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out and "opt2" in out

    def test_transform_small_batch_skips_opt2(self, capsys):
        assert main(["transform", "--n", "32", "--c", "32", "--hw", "14"]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_inspect_conv_layer(self, capsys):
        assert main(["inspect", "--layer", "cv7"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out and "fft" in out and "bound" in out

    def test_inspect_conv_layer_verbose(self, capsys):
        assert main(["inspect", "--layer", "CV1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "roofline" in out and "occupancy" in out

    def test_inspect_pool_layer(self, capsys):
        assert main(["inspect", "--layer", "PL5"]) == 0
        out = capsys.readouterr().out
        assert "chwn" in out and "nchw-rowblock" in out

    def test_inspect_shows_fft_failures(self, capsys):
        assert main(["inspect", "--layer", "CV5"]) == 0
        assert "unavailable" in capsys.readouterr().out

    def test_inspect_unknown_layer(self, capsys):
        assert main(["inspect", "--layer", "CV99"]) == 2

    def test_footprint(self, capsys):
        assert main(["footprint", "--network", "alexnet", "--training"]) == 0
        out = capsys.readouterr().out
        assert "fits" in out and "MiB" in out

    def test_footprint_vgg_training_does_not_fit(self, capsys):
        assert main(["footprint", "--network", "vgg", "--training"]) == 0
        assert "fits: False" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--layer", "CV7", "--dim", "n",
                     "--values", "32,64,128"]) == 0
        out = capsys.readouterr().out
        assert "winner" in out and "crossover" in out

    def test_sweep_unknown_layer(self, capsys):
        assert main(["sweep", "--layer", "PL1"]) == 2

    def test_attribute(self, capsys):
        assert main(["attribute", "--network", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "layout" in out and "off-chip" in out and "72%" in out

    def test_sweep_with_fft_na(self, capsys):
        assert main(["sweep", "--layer", "CV6", "--dim", "n",
                     "--values", "32,64", "--impls", "im2col,fft"]) == 0
        assert "n/a" in capsys.readouterr().out


class TestSimStats:
    def test_plan_prints_counters(self, capsys):
        assert main(["plan", "--network", "lenet", "--sim-stats"]) == 0
        out = capsys.readouterr().out
        assert "simulation stats:" in out
        assert "kernel queries" in out
        assert "kernels timed" in out

    def test_off_by_default(self, capsys):
        assert main(["plan", "--network", "lenet"]) == 0
        assert "simulation stats:" not in capsys.readouterr().out
