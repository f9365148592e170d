"""The ``repro lint`` subcommand: output formats, rule selection, exits."""

import json

from repro.cli import main


class TestExitCodes:
    def test_bundled_networks_report_zero_errors(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_strict_promotes_warnings(self, capsys):
        # cifar's conv2 sits exactly on the Nt threshold -> L003 warning.
        assert main(["lint", "--network", "cifar"]) == 0
        assert main(["lint", "--network", "cifar", "--strict"]) == 1

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--select", "Q999"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestRuleSelection:
    def test_disable_silences_a_rule(self, capsys):
        main(["lint", "--network", "cifar"])
        assert "L003" in capsys.readouterr().out
        main(["lint", "--network", "cifar", "--disable", "L003"])
        assert "L003" not in capsys.readouterr().out

    def test_select_runs_only_those_rules(self, capsys):
        main(["lint", "--network", "zfnet", "--select", "L002"])
        out = capsys.readouterr().out
        assert "L002" in out
        assert "L003" not in out

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("N001", "L002", "K001"):
            assert rule_id in out


class TestJsonFormat:
    def test_json_payload_shape(self, capsys):
        assert main(["lint", "--network", "lenet", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is False
        (report,) = payload["reports"]
        assert report["target"] == "lenet"
        assert set(report["counts"]) == {"error", "warning", "info"}
        for diag in report["diagnostics"]:
            assert {"rule", "severity", "subject", "message"} <= set(diag)

    def test_json_covers_all_networks_by_default(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        targets = {r["target"] for r in payload["reports"]}
        assert {"lenet", "alexnet", "vgg", "zfnet", "cifar"} <= targets


class TestNetdefFile:
    def test_broken_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.netdef"
        bad.write_text(
            "network bad batch=64 input=3x32x32\nconv c1 co=8 f=3 stride=0\n"
        )
        assert main(["lint", "--netdef", str(bad)]) == 1
        assert "N000" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "ok.netdef"
        good.write_text(
            "network ok batch=64 input=3x32x32\n"
            "conv conv1 co=32 f=5 pad=2\n"
            "fc fc1 out=10\n"
            "softmax softmax\n"
        )
        assert main(["lint", "--netdef", str(good)]) == 0

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["lint", "--netdef", "/nonexistent/x.netdef"]) == 2
