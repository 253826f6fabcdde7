"""CLI subcommands: gen, compress, eval, contrib, pca, all."""

import json
import os

import pytest

from semkv.allocator import PolicyKind
from semkv.cli import main
from semkv.trace import read_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GEN_ARGS = [
    "gen",
    "--profile", "clustered-heads",
    "--shape", "1,8,96,8",
    "--planted", "2",
    "--seed", "5",
]

PIPE_ARGS = [
    "--policy", "task-kv,streaming",
    "--budget", "0.5",
    "--beta", "0.375",
    "--m-top", "3",
    "--top-t", "96",
    "--window", "16",
    "--kernel", "3",
    "--sinks", "4",
    "--recents", "8",
    "--decode-queries", "8",
]


@pytest.fixture
def trace_file(tmp_path, capsys):
    path = tmp_path / "t.tkv"
    code, _, err = run_cli(capsys, *GEN_ARGS, "--out", str(path))
    assert code == 0, err
    return path


class TestGen:
    def test_writes_readable_trace(self, trace_file):
        trace = read_trace(trace_file)
        assert (trace.num_layers, trace.num_heads) == (1, 8)
        assert trace_file.stat().st_size == trace.header.file_bytes

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.tkv", tmp_path / "b.tkv"
        assert run_cli(capsys, *GEN_ARGS, "--out", str(a))[0] == 0
        assert run_cli(capsys, *GEN_ARGS, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_shape_fails_with_json_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--profile", "uniform-random", "--out", str(tmp_path / "x.tkv")
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"


class TestCompress:
    def test_emits_plans_and_memory(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "compress", "--trace", str(trace_file), *PIPE_ARGS, "--out", str(out)
        )
        assert code == 0, err
        plans = json.loads((out / "plans_task-kv_0.5.json").read_text())
        assert plans["policy"] == "task-kv"
        assert len(plans["layers"]) == 1
        memory = json.loads((out / "memory.json").read_text())
        assert {row["policy"] for row in memory["memory"]} == {"task-kv", "streaming"}
        for row in memory["memory"]:
            assert row["ratio_vs_full"] <= 0.5 + 1e-9

    def test_plans_file_is_one_line_of_json(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "compress", "--trace", str(trace_file), *PIPE_ARGS, "--out", str(out))
        for name in ("plans_task-kv_0.5.json", "memory.json"):
            text = (out / name).read_text()
            assert text.endswith("\n") and text.count("\n") == 1
            assert json.loads(text)


class TestEval:
    def test_replays_saved_plans(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "compress", "--trace", str(trace_file), *PIPE_ARGS, "--out", str(out))
        code, _, err = run_cli(
            capsys,
            "eval",
            "--trace", str(trace_file),
            "--plans", str(out / "plans_task-kv_0.5.json"),
            "--decode-queries", "8",
            "--out", str(out),
        )
        assert code == 0, err
        fidelity = json.loads((out / "fidelity.json").read_text())
        row = fidelity["fidelity"][0]
        assert row["policy"] == "task-kv"
        assert row["mean_l2"] >= 0.0
        assert len(row["per_head_l2"][0]) == 8

    def test_short_plans_file_fails_with_json_error(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "compress", "--trace", str(trace_file), *PIPE_ARGS, "--out", str(out))
        plans_path = out / "plans_task-kv_0.5.json"
        payload = json.loads(plans_path.read_text())
        payload["layers"][0]["per_head_retained"].pop()
        plans_path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(trace_file), "--plans", str(plans_path),
            "--out", str(out),
        )
        assert code == 1
        assert json.loads(err)["error"] == "CacheConsistencyError"

    def eval_edited_plans(self, trace_file, tmp_path, capsys, edit):
        out = tmp_path / "out"
        run_cli(capsys, "compress", "--trace", str(trace_file), *PIPE_ARGS, "--out", str(out))
        plans_path = out / "plans_task-kv_0.5.json"
        payload = json.loads(plans_path.read_text())
        edit(payload["layers"][0])
        plans_path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(trace_file), "--plans", str(plans_path),
            "--out", str(out),
        )
        assert code == 1
        return json.loads(err)

    def test_unknown_policy_in_plans_fails_with_json_error(self, trace_file, tmp_path, capsys):
        error = self.eval_edited_plans(
            trace_file, tmp_path, capsys, lambda layer: layer.update(policy="magic")
        )
        assert error["error"] == "PlanFormatError"
        assert "magic" in error["message"]

    def test_unknown_head_class_in_plans_fails_with_json_error(
        self, trace_file, tmp_path, capsys
    ):
        def edit(layer):
            layer["head_classes"][0] = "chaotic"

        error = self.eval_edited_plans(trace_file, tmp_path, capsys, edit)
        assert error["error"] == "PlanFormatError"
        assert "chaotic" in error["message"]

    def test_missing_plan_key_fails_with_json_error(self, trace_file, tmp_path, capsys):
        error = self.eval_edited_plans(
            trace_file, tmp_path, capsys, lambda layer: layer.pop("sinks")
        )
        assert error["error"] == "PlanFormatError"
        assert "sinks" in error["message"]


class TestContrib:
    def test_writes_bound_report(self, tmp_path, capsys):
        out = tmp_path / "c"
        code, _, err = run_cli(
            capsys, "contrib", "--seed", "3", "--trials", "5", "--out", str(out)
        )
        assert code == 0, err
        report = json.loads((out / "contribution.json").read_text())
        assert report["violations"] == 0
        assert report["trials"] == 5

    def test_prints_json_without_out(self, capsys):
        code, out, _ = run_cli(capsys, "contrib", "--seed", "3", "--trials", "2")
        assert code == 0
        assert json.loads(out)["trials"] == 2


class TestPca:
    def test_writes_coordinates_csv(self, trace_file, tmp_path, capsys):
        out = tmp_path / "p"
        code, _, err = run_cli(
            capsys, "pca", "--trace", str(trace_file), *PIPE_ARGS, "--out", str(out)
        )
        assert code == 0, err
        lines = (out / "pca.csv").read_text().splitlines()
        assert lines[0] == "layer,head,x,y,class"
        assert len(lines) == 1 + 8


class TestAll:
    def test_writes_reports_and_plans(self, trace_file, tmp_path, capsys):
        out = tmp_path / "all"
        code, _, err = run_cli(
            capsys, "all", "--trace", str(trace_file), *PIPE_ARGS, "--out", str(out)
        )
        assert code == 0, err
        for name in ("report.json", "report.csv", "pca.csv",
                     "plans_task-kv_0.5.json", "plans_streaming_0.5.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["schedule"]["per_layer_counts"] == [3]

    def test_synthetic_source_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "all_syn"
        code, _, err = run_cli(
            capsys, "all",
            "--profile", "clustered-heads", "--shape", "1,8,96,8",
            "--planted", "2", "--seed", "5",
            *PIPE_ARGS, "--out", str(out),
        )
        assert code == 0, err
        assert (out / "trace.tkv").exists()

    def test_format_flag_is_gone(self, trace_file, tmp_path, capsys):
        # every run writes report.json and report.csv; the flag chose nothing
        with pytest.raises(SystemExit):
            main(["all", "--trace", str(trace_file), "--format", "json", "--out", str(tmp_path)])

    def test_identical_runs_are_byte_identical(self, trace_file, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, _, err = run_cli(
                capsys, "all", "--trace", str(trace_file), *PIPE_ARGS, "--out", str(out)
            )
            assert code == 0, err
            outs.append(out)
        files = sorted(os.listdir(outs[0]))
        assert files == sorted(os.listdir(outs[1]))
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_infeasible_cells_do_not_abort_the_run(self, tmp_path, capsys):
        # beta 0.25 and m 4 put 4 of 8 heads in layer 1 into the full cache,
        # which a 0.4 budget cannot hold under the head-aware policies
        out = tmp_path / "needle"
        code, stdout, err = run_cli(
            capsys, "all",
            "--profile", "planted-needle", "--shape", "2,8,1024,32", "--seed", "3",
            "--policy", ",".join(p.value for p in PolicyKind),
            "--budget", "0.4,0.8", "--decode-queries", "5", "--out", str(out),
        )
        assert code == 0, err
        assert "3 infeasible cell(s) listed in report.json" in stdout
        report = json.loads((out / "report.json").read_text())
        head_aware = ("task-kv", "no-cache", "compressed-cache")
        assert [(c["policy"], c["budget_ratio"]) for c in report["infeasible"]] == [
            (p, 0.4) for p in head_aware
        ]
        for cell in report["infeasible"]:
            assert cell["message"] == "layer 1: budget 3276 < 4096 needed by 4 heterogeneous heads"
        cells = {(c["policy"], c["budget_ratio"]) for c in report["policies"]}
        expected = {(p.value, 0.8) for p in PolicyKind}
        expected |= {(p.value, 0.4) for p in PolicyKind if p.value not in head_aware}
        assert cells == expected
        for policy, ratio in expected:
            assert (out / f"plans_{policy}_{ratio:g}.json").exists()
        for policy in head_aware:
            assert not (out / f"plans_{policy}_0.4.json").exists()

    def test_compress_lists_infeasible_cells_in_memory_json(self, trace_file, tmp_path, capsys):
        out = tmp_path / "o"
        code, _, err = run_cli(
            capsys, "compress", "--trace", str(trace_file),
            "--policy", "task-kv,streaming", "--budget", "0.2,0.6",
            "--beta", "0.5", "--m-top", "4",
            "--sinks", "4", "--recents", "8", "--window", "16",
            "--out", str(out),
        )
        assert code == 0, err
        memory = json.loads((out / "memory.json").read_text())
        assert [(m["policy"], m["budget_ratio"]) for m in memory["memory"]] == [
            ("streaming", 0.2), ("streaming", 0.6), ("task-kv", 0.6)
        ]
        assert [(c["policy"], c["budget_ratio"]) for c in memory["infeasible"]] == [
            ("task-kv", 0.2)
        ]
        feasible = tmp_path / "f"
        assert run_cli(
            capsys, "compress", "--trace", str(trace_file), *PIPE_ARGS, "--out", str(feasible)
        )[0] == 0
        assert "infeasible" not in json.loads((feasible / "memory.json").read_text())


class TestConfigFile:
    def test_flags_override_config(self, trace_file, tmp_path, capsys):
        config = {
            "trace_path": str(trace_file),
            "policies": ["streaming"],
            "budget_ratios": [0.5],
            "beta": 0.375,
            "top_m": 3,
            "top_t": 96,
            "window_len": 16,
            "kernel": 3,
            "sinks": 4,
            "recents": 8,
            "decode_queries": 8,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "compress", "--config", str(cfg_path),
            "--policy", "task-kv", "--out", str(out),
        )
        assert code == 0, err
        assert (out / "plans_task-kv_0.5.json").exists()
        assert not (out / "plans_streaming_0.5.json").exists()


    @pytest.mark.parametrize(
        "extra, bad",
        [({"windw_len": 16}, "windw_len"), ({"profile": {"kind": "uniform-random", "sed": 1}},
                                             "profile.sed")],
    )
    def test_unknown_key_is_a_json_error(self, trace_file, tmp_path, capsys, extra, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trace_path": str(trace_file), **extra}))
        code, _, err = run_cli(
            capsys, "compress", "--config", str(cfg_path), "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert bad in payload["message"]
        assert not (tmp_path / "o").exists()

    def test_non_object_config_is_a_json_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "compress", "--config", str(cfg_path))
        assert code == 1
        assert json.loads(err)["error"] == "ParameterError"

    def test_report_config_block_is_a_valid_config(self, tmp_path, capsys):
        out = tmp_path / "first"
        code, _, err = run_cli(
            capsys, "all", "--profile", "clustered-heads", "--shape", "1,8,96,8",
            "--planted", "2", "--seed", "5", *PIPE_ARGS, "--out", str(out),
        )
        assert code == 0, err
        report = json.loads((out / "report.json").read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(report["config"]))
        again = tmp_path / "again"
        code, _, err = run_cli(capsys, "all", "--config", str(cfg_path), "--out", str(again))
        assert code == 0, err
        assert (again / "report.json").read_bytes() == (out / "report.json").read_bytes()


class TestErrorReporting:
    def test_missing_trace_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "compress", "--trace", str(tmp_path / "nope.tkv"),
            *PIPE_ARGS, "--out", str(tmp_path / "o"),
        )
        assert code == 1
        payload = json.loads(err)
        assert "error" in payload and "message" in payload

    def test_unknown_policy(self, trace_file, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "compress", "--trace", str(trace_file),
            "--policy", "magic", "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "ParameterError"

    def test_infeasible_budget_is_reported(self, trace_file, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "compress", "--trace", str(trace_file),
            "--policy", "task-kv", "--budget", "0.2",
            "--beta", "0.5", "--m-top", "4",
            "--sinks", "4", "--recents", "8", "--window", "16",
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "InfeasibleBudgetError"

    def test_unknown_trace_version_is_a_json_error(self, trace_file, tmp_path, capsys):
        data = bytearray(trace_file.read_bytes())
        data[4:6] = (9).to_bytes(2, "little")
        bad = tmp_path / "v9.tkv"
        bad.write_bytes(bytes(data))
        code, _, err = run_cli(
            capsys, "all", "--trace", str(bad), *PIPE_ARGS, "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "TraceFormatError"
        assert "version 9" in payload["message"]
