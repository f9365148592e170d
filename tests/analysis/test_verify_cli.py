"""``repro verify`` and ``repro plan --verify`` (via main())."""

import json

import pytest

from repro.cli import main


class TestVerifyNetworks:
    def test_single_network_passes(self, capsys):
        assert main(["verify", "lenet"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "liveness peak" in out

    def test_heuristic_strategy(self, capsys):
        assert main(["verify", "cifar", "--strategy", "heuristic"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_branching_network(self, capsys):
        assert main(["verify", "inception"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_json_format_includes_footprint(self, capsys):
        assert main(["verify", "lenet", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is False
        report = payload["reports"][0]
        assert report["target"] == "lenet"
        fp = report["footprint"]
        assert fp["peak_bytes"] > 0
        assert [p["step"] for p in fp["curve"]][0] == "conv1"

    def test_training_footprint_is_larger(self, capsys):
        assert main(["verify", "lenet", "--format", "json"]) == 0
        infer = json.loads(capsys.readouterr().out)
        assert main(["verify", "lenet", "--training", "--format", "json"]) == 0
        train = json.loads(capsys.readouterr().out)
        assert (
            train["reports"][0]["footprint"]["peak_bytes"]
            > infer["reports"][0]["footprint"]["peak_bytes"]
        )

    def test_list_rules_shows_only_d_rules(self, capsys):
        assert main(["verify", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "D001" in out and "D007" in out
        assert "N001" not in out and "L002" not in out

    def test_unknown_rule_id_is_usage_error(self, capsys):
        assert main(["verify", "lenet", "--select", "D999"]) == 2


class TestVerifyGraphFile:
    @pytest.fixture()
    def plan_payload(self, capsys):
        assert main(["plan", "--network", "lenet", "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_clean_plan_payload_verifies(self, tmp_path, capsys, plan_payload):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_payload))
        assert main(["verify", "--graph", str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_corrupted_graph_fails_with_named_rule(
        self, tmp_path, capsys, plan_payload
    ):
        graph = plan_payload["graph"]
        for node in graph["nodes"]:
            if node["name"] == "conv2":
                node["out_dims"] = [9, 9, 9, 9]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(graph))
        assert main(["verify", "--graph", str(path)]) == 1
        out = capsys.readouterr().out
        assert "D001" in out

    def test_graph_with_fused_annotation_still_loads(
        self, tmp_path, capsys, plan_payload
    ):
        """Graphs written before nodes lost their ``fused`` annotation
        carry a ``"fused"`` key on every node; it is ignored."""
        graph = plan_payload["graph"]
        for node in graph["nodes"]:
            node["fused"] = "softmax-fuse" if node["name"] == "prob" else None
        path = tmp_path / "old.json"
        path.write_text(json.dumps(graph))
        assert main(["verify", "--graph", str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_unreadable_file_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", "--graph", str(tmp_path / "missing.json")]) == 2

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "--graph", str(path)]) == 2


class TestPlanVerifyFlag:
    def test_plan_verify_output_is_byte_identical(self, capsys):
        assert main(["plan", "--network", "lenet"]) == 0
        plain = capsys.readouterr().out
        assert main(["plan", "--network", "lenet", "--verify"]) == 0
        verified = capsys.readouterr().out
        assert plain == verified
