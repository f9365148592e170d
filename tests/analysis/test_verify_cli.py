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

    def test_corrupted_spec_fails_d001(self, tmp_path, capsys, plan_payload):
        """Specs round-trip, so a spec edited against its edge is caught."""
        graph = plan_payload["graph"]
        conv2 = next(n for n in graph["nodes"] if n["name"] == "conv2")
        conv2["spec"]["ci"] *= 2
        path = tmp_path / "bad_spec.json"
        path.write_text(json.dumps(graph))
        assert main(["verify", "--graph", str(path)]) == 1
        out = capsys.readouterr().out
        assert "D001" in out and "conv2" in out

    def test_conv_without_layout_fails_d008(self, tmp_path, capsys, plan_payload):
        graph = plan_payload["graph"]
        conv = next(n for n in graph["nodes"] if n["kind"] == "conv")
        conv["layout"] = None
        path = tmp_path / "no_layout.json"
        path.write_text(json.dumps(graph))
        assert main(["verify", "--graph", str(path)]) == 1
        assert "D008" in capsys.readouterr().out

    def test_conv_without_spec_fails_d009(self, tmp_path, capsys, plan_payload):
        """A null spec would drop the conv's weights from the footprint."""
        graph = plan_payload["graph"]
        for node in graph["nodes"]:
            if node["kind"] == "conv":
                node["spec"] = None
        path = tmp_path / "no_spec.json"
        path.write_text(json.dumps(graph))
        assert main(["verify", "--graph", str(path)]) == 1
        assert "D009" in capsys.readouterr().out

    def test_unknown_conv_implementation_is_malformed(
        self, tmp_path, capsys, plan_payload
    ):
        """No D-rule reads the implementation; the footprint's workspace
        sizing refuses it, naming the node, and the command exits 2."""
        graph = plan_payload["graph"]
        conv = next(n for n in graph["nodes"] if n["kind"] == "conv")
        conv["implementation"] = "bogus"
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(graph))
        assert main(["verify", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"malformed graph {path}: node {conv['name']!r}: " in err
        assert "unknown implementation 'bogus'" in err

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

    @pytest.mark.parametrize(
        "payload,reason",
        [
            ([1, 2], "a graph is a JSON object, not list"),
            ("lenet", "a graph is a JSON object, not str"),
            ({"name": "g", "nodes": [5]}, "node 0 is not a JSON object"),
            ({"name": "g", "nodes": {}}, 'a graph needs a "nodes" list'),
            ({"name": "g"}, 'a graph needs a "nodes" list'),
            ({"graph": [1]}, "a graph is a JSON object, not list"),
            ({"name": "g", "nodes": [], "input": []}, '"input" must be an object'),
        ],
        ids=(
            "list", "string", "node", "nodes-object", "no-nodes", "graph-list", "input"
        ),
    )
    def test_wrongly_shaped_graph_is_usage_error(
        self, tmp_path, capsys, payload, reason
    ):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"malformed graph {path}: " in err
        assert reason in err

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("kind", 5, "'kind' must be a string, not int 5"),
            ("kind", "conv3d", "'kind': 'conv3d' is not a valid NodeKind"),
            ("inputs", 5, "'inputs' must be a list of node names"),
            ("inputs", "data", "'inputs' must be a list of node names, not str"),
            ("spec", "x", "'spec' must be an object, not str 'x'"),
            ("in_dims", 5, "'in_dims' must be a list of 4 ints, not int 5"),
            ("out_dims", [1, 2], "'out_dims' must be a list of 4 ints"),
            ("out_features", "x", "'out_features' must be an int"),
            ("fixed_ms", "1.5", "'fixed_ms' must be a number, not str"),
            ("layout", 5, "'layout' must be a layout, not int 5"),
            ("layout", "zzz", "'layout': layout must be a permutation"),
            ("implementation", 5, "'implementation' must be a string"),
            ("layer_ms", [1], "'layer_ms' must be a number, not list"),
            ("coarsening", 5, "'coarsening' must be a list of 2 ints"),
            ("transforms", 5, "'transforms' must be a list, not int 5"),
            ("transforms", [5], "'transforms': transform 0 is not a JSON object"),
            (
                "transforms",
                [{"src": "", "to": "NCHW", "ms": 0.0}],
                "'transforms': transform 0: no 'from'",
            ),
            (
                "transforms",
                [{"src": "", "from": "CHWN", "to": "NCHW", "ms": "0"}],
                "'transforms': transform 0: 'ms' must be a number",
            ),
        ],
    )
    def test_wrongly_typed_node_field_is_named(
        self, tmp_path, capsys, plan_payload, key, value, reason
    ):
        """A retyped field exits 2 with a message naming node and field."""
        graph = plan_payload["graph"]
        conv = next(n for n in graph["nodes"] if n["kind"] == "conv")
        conv[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(graph))
        assert main(["verify", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"malformed graph {path}: node {conv['name']!r}: {reason}" in err

    def test_node_without_a_string_name_is_malformed(
        self, tmp_path, capsys, plan_payload
    ):
        graph = plan_payload["graph"]
        graph["nodes"][0]["name"] = 5
        path = tmp_path / "name.json"
        path.write_text(json.dumps(graph))
        assert main(["verify", "--graph", str(path)]) == 2
        assert "'name' must be a string, not int 5" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_non_integer_spec_dimension_is_malformed(
        self, tmp_path, capsys, plan_payload, bad
    ):
        """Loading used to accept ``"n": 2.5`` and report it as D001."""
        graph = plan_payload["graph"]
        conv = next(n for n in graph["nodes"] if n["kind"] == "conv")
        conv["spec"]["n"] = bad
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(graph))
        assert main(["verify", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"node {conv['name']!r}: 'spec': ConvSpec.n must be an int" in err

    def test_explicitly_empty_graph_verifies(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "g", "nodes": []}))
        assert main(["verify", "--graph", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        # no nodes and no "input" key: not even an input buffer is live
        assert "liveness peak 0.0 MiB" in out


class TestPlanVerifyFlag:
    def test_plan_verify_output_is_byte_identical(self, capsys):
        assert main(["plan", "--network", "lenet"]) == 0
        plain = capsys.readouterr().out
        assert main(["plan", "--network", "lenet", "--verify"]) == 0
        verified = capsys.readouterr().out
        assert plain == verified
