"""CLI subcommands: gen, compress, eval, contrib, pca, all."""

import argparse
import dataclasses
import errno
import io
import json
import os
import re
import tempfile
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from semkv import harness
from semkv import linalg as linalg_module
from semkv import trace as trace_module
from semkv.allocator import BudgetPlan, MemoryFootprint, PolicyKind, expand_runs, footprint
from semkv.cli import _FLAGS, _config_from, build_parser, main
from semkv.contribution import BoundSuiteReport, verify_bound_suite
from semkv.errors import ParameterError, TraceFormatError
from semkv.linalg import _KEY_BLOCK
from semkv.harness import (
    FidelityReport,
    RunConfig,
    _per_head,
    compress_run,
    decode_count,
    export_pca_csv,
    export_report,
    fidelity_eval,
    run_all,
)
from semkv.separator import HeadClass, heterogeneous_schedule
from semkv.trace import (
    HEADER_BYTES,
    SyntheticProfile,
    SyntheticSource,
    TraceHeader,
    TraceReader,
    gen_synthetic_trace,
    read_trace,
    seeded_rng,
    write_trace,
)

# the mapped-page probe and its slack, as `TestPageGiveBack` uses them
from test_trace import PAGE_SLACK_PER_HEAD, mapped_rss


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

# the flags that classify heads, which `pca` reads
CLASSIFY_ARGS = [
    "--beta", "0.375",
    "--m-top", "3",
    "--top-t", "96",
    "--window", "16",
]
# and the flags that plan each cell, which `compress` reads too
PLAN_ARGS = [
    "--policy", "task-kv,streaming",
    "--budget", "0.5",
    *CLASSIFY_ARGS,
    "--kernel", "3",
    "--sinks", "4",
    "--recents", "8",
]
# and the decode rows fidelity is scored on, which `all` reads too
PIPE_ARGS = [*PLAN_ARGS, "--decode-queries", "8"]


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
            capsys, "compress", "--trace", str(trace_file), *PLAN_ARGS, "--out", str(out)
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
        run_cli(capsys, "compress", "--trace", str(trace_file), *PLAN_ARGS, "--out", str(out))
        for name in ("plans_task-kv_0.5.json", "memory.json"):
            text = (out / name).read_text()
            assert text.endswith("\n") and text.count("\n") == 1
            assert json.loads(text)


class TestEval:
    def test_replays_saved_plans(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "compress", "--trace", str(trace_file), *PLAN_ARGS, "--out", str(out))
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

    @pytest.mark.parametrize("decode", [[], ["--decode-queries", "64"]], ids=["window", "64"])
    def test_eval_of_all_plans_gives_the_reports_bits(self, tmp_path, capsys, decode):
        # `all` scores each head in its one visit, `eval` each saved plan
        # with the same per-head scorer, one keep per plan
        out, scored = tmp_path / "out", tmp_path / "eval"
        code, _, err = run_cli(
            capsys, "all", *LAYERED, *LAYERED_ARGS, *decode, "--out", str(out)
        )
        assert code == 0, err
        report = json.loads((out / "report.json").read_text())
        # every policy, compressed-cache's groups too (head-aware cells at 0.3 are infeasible)
        assert {entry["policy"] for entry in report["policies"]} == set(ALL_POLICIES.split(","))
        for entry in report["policies"]:
            plans = out / f"plans_{entry['policy']}_{entry['budget_ratio']:g}.json"
            code, _, err = run_cli(
                capsys, "eval", "--trace", str(out / "trace.tkv"), "--plans", str(plans),
                *(decode or ["--window", "16"]), "--out", str(scored),
            )
            assert code == 0, err
            row = json.loads((scored / "fidelity.json").read_text())["fidelity"][0]
            per_head = entry["fidelity"]["per_head"]
            assert row["per_head_l2"] == [[c["l2_error"] for c in layer] for layer in per_head]
            assert row["per_head_cosine"] == [
                [c["cosine_similarity"] for c in layer] for layer in per_head
            ]

    def test_short_plans_file_fails_with_json_error(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "compress", "--trace", str(trace_file), *PLAN_ARGS, "--out", str(out))
        plans_path = out / "plans_task-kv_0.5.json"
        payload = json.loads(plans_path.read_text())
        payload["layers"][0]["per_head_runs"].pop()
        plans_path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(trace_file), "--plans", str(plans_path),
            "--out", str(out),
        )
        assert code == 1
        assert json.loads(err)["error"] == "CacheConsistencyError"

    def test_a_bad_run_in_the_last_layer_fails_before_any_layer_is_scored(
        self, tmp_path, capsys, monkeypatch
    ):
        trace = tmp_path / "t2.tkv"
        gen = [*GEN_ARGS[:4], "2,8,96,8", *GEN_ARGS[5:]]
        assert run_cli(capsys, *gen, "--out", str(trace))[0] == 0
        out = tmp_path / "out"
        run_cli(capsys, "compress", "--trace", str(trace), *PLAN_ARGS, "--out", str(out))
        plans_path = out / "plans_task-kv_0.5.json"
        payload = json.loads(plans_path.read_text())
        payload["layers"][-1]["per_head_runs"][3] = [[0, 5], [5, 96]]
        plans_path.write_text(json.dumps(payload))
        scored, score_head = [], harness._score_head

        def counting(*args, **kwargs):
            scored.append(args)
            return score_head(*args, **kwargs)

        monkeypatch.setattr(harness, "_score_head", counting)
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(trace), "--plans", str(plans_path), "--out", str(out),
        )
        assert code == 1
        message = "layer 1 head 3: run [5, 96) touches the run before it"
        assert err == json.dumps({"error": "CacheConsistencyError", "message": message}) + "\n"
        assert scored == []
        assert not (out / "fidelity.json").exists()

    @pytest.mark.parametrize("other_shape", ["1,8,512,16", "1,8,256,8"], ids=["N", "d"])
    def test_plans_for_another_trace_shape_fail_with_json_error(
        self, tmp_path, capsys, other_shape
    ):
        traces = {}
        for name, shape in (("planned", "1,8,256,16"), ("other", other_shape)):
            traces[name] = tmp_path / f"{name}.tkv"
            gen = ["gen", "--profile", "uniform-random", "--shape", shape]
            assert run_cli(capsys, *gen, "--out", str(traces[name]))[0] == 0
        plans_dir = tmp_path / "plans"
        assert run_cli(
            capsys, "compress", "--trace", str(traces["planned"]), "--policy", "full",
            "--budget", "1", "--out", str(plans_dir),
        )[0] == 0
        plans = plans_dir / "plans_full_1.json"
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(traces["other"]), "--plans", str(plans),
            "--out", str(out),
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "CacheConsistencyError"
        assert not (out / "fidelity.json").exists()
        payload = json.loads(plans.read_text())
        del payload["trace"]
        plans.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(traces["planned"]), "--plans", str(plans),
            "--out", str(out),
        )
        assert code == 1
        assert json.loads(err)["error"] == "PlanFormatError"

    def eval_edited_plans(self, trace_file, tmp_path, capsys, edit):
        out = tmp_path / "out"
        run_cli(capsys, "compress", "--trace", str(trace_file), *PLAN_ARGS, "--out", str(out))
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

    @pytest.mark.parametrize(
        "misspell, message",
        [
            (lambda p: p["layers"][0].update(per_head_group=p["layers"][0].pop("per_head_groups")),
             "plan has unknown key(s) per_head_group"),
            (lambda p: p.update(budget=p.pop("budget_ratio"), layer=0), None),
            (lambda p: p.update(layer=0, trace_dims=p["trace"]),
             "unknown key(s) layer, trace_dims"),
        ],
        ids=["layer-key", "missing-top-level-key", "top-level-keys"],
    )
    def test_misspelt_plans_keys_fail_naming_them(
        self, trace_file, tmp_path, capsys, misspell, message
    ):
        # a plan without its groups, or a file with a stray key, is not scored
        out = tmp_path / "out"
        argv = ["--policy", "compressed-cache", "--budget", "0.6", "--sinks", "2", "--recents", "4"]
        code, _, err = run_cli(
            capsys, "compress", "--trace", str(trace_file), *argv, "--m-top", "1",
            "--out", str(out),
        )
        assert code == 0, err
        plans_path = out / "plans_compressed-cache_0.6.json"
        payload = json.loads(plans_path.read_text())
        misspell(payload)
        plans_path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(trace_file), "--plans", str(plans_path),
            "--out", str(out),
        )
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "PlanFormatError"
        if message is None:  # a missing key is named before an unknown one
            assert "not a plans file (KeyError('budget_ratio'))" in error["message"]
        else:
            assert error["message"].endswith(message)
        assert not (out / "fidelity.json").exists()

    @staticmethod
    def _to_index_lists(layer):
        # the plans format before runs: each head's positions spelled out
        runs = layer.pop("per_head_runs")
        layer["per_head_retained"] = [[p for a, b in head for p in range(a, b)] for head in runs]

    @pytest.mark.parametrize(
        "edit, error, needle",
        [
            (lambda p: p.update(layers=5), "PlanFormatError", "layers must be a list"),
            (lambda p: p["layers"][0]["per_head_runs"].__setitem__(0, [[[1, 2]]]),
             "PlanFormatError", "per_head_runs must hold"),
            (lambda p: p["layers"][0]["per_head_runs"].__setitem__(0, [[1.5, 3]]),
             "PlanFormatError", "per_head_runs must hold"),
            (lambda p: p["layers"][0]["per_head_runs"].__setitem__(0, [[True, 3]]),
             "PlanFormatError", "per_head_runs must hold"),
            (lambda p: p["layers"][0]["per_head_runs"].__setitem__(0, [1, 2, 3]),
             "PlanFormatError", "per_head_runs must hold"),
            (lambda p: p["layers"][0]["head_classes"].pop(),
             "CacheConsistencyError", "head classes cover 7 heads"),
            (lambda p: p["layers"][0].update(layer=1),
             "CacheConsistencyError", "plan 0 is for layer 1"),
            (lambda p: p["layers"][0].update(policy="streaming"),
             "PlanFormatError", "policy 'streaming', file has 'task-kv'"),
            (lambda p: TestEval._to_index_lists(p["layers"][0]),
             "PlanFormatError", "missing key 'per_head_runs'"),
            *[
                (lambda p, ratio=ratio: p.update(budget_ratio=ratio),
                 "PlanFormatError", "budget_ratio must be a number in (0, 1]")
                for ratio in ("abc", -3, {"x": 1}, None, True, 0, 1.5)
            ],
            *[
                (lambda p, edit=edit: p["layers"][0].update(edit), "PlanFormatError", needle)
                for edit, needle in [
                    ({"total_budget": "lots"}, "total_budget must be a non-negative integer"),
                    ({"middle_k": -5}, "middle_k must be a non-negative integer"),
                    ({"sinks": -1}, "sinks must be a non-negative integer"),
                    ({"recents": 2.0}, "recents must be a non-negative integer"),
                    ({"layer": False}, "layer must be a non-negative integer"),
                    ({"clamped": "maybe"}, "clamped must be true or false"),
                ]
            ],
        ],
        ids=["layers-not-a-list", "nested-runs", "float-runs", "bool-runs", "flat-runs",
             "short-head-classes", "wrong-layer-index", "other-policy", "index-lists",
             "ratio-text", "ratio-negative", "ratio-object", "ratio-null", "ratio-bool",
             "ratio-zero", "ratio-above-one", "budget-text", "negative-k", "negative-sinks",
             "float-recents", "bool-layer", "clamped-text"],
    )
    def test_malformed_plans_file_is_one_json_error(
        self, trace_file, tmp_path, capsys, edit, error, needle
    ):
        out = tmp_path / "out"
        run_cli(capsys, "compress", "--trace", str(trace_file), *PLAN_ARGS, "--out", str(out))
        plans_path = out / "plans_task-kv_0.5.json"
        payload = json.loads(plans_path.read_text())
        edit(payload)
        plans_path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(trace_file), "--plans", str(plans_path),
            "--out", str(out),
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == error
        assert needle in json.loads(err)["message"]
        assert not (out / "fidelity.json").exists()


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

    @pytest.mark.parametrize("name", [None, "suite.json"])
    def test_a_failed_write_keeps_the_report_already_at_out(
        self, tmp_path, capsys, monkeypatch, name
    ):
        out = tmp_path / "c"
        out.mkdir()
        target = out / (name or "contribution.json")
        argv = ["contrib", "--seed", "3", "--trials", "2", "--out", str(target if name else out)]
        assert run_cli(capsys, *argv)[0] == 0
        good = target.read_bytes()
        real_open = open

        def full_disk(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            if "w" in mode:  # fails once the file is open, and so truncated
                f.close()
                raise OSError(28, "No space left on device")
            return f

        # every output is opened by the one text writer, `harness.TextOutput`
        monkeypatch.setattr("semkv.harness.open", full_disk, raising=False)
        code, _, err = run_cli(capsys, *argv[:2], "4", *argv[3:])
        assert code == 1
        assert json.loads(err)["error"] == "OSError"
        assert target.read_bytes() == good
        assert os.listdir(out) == [target.name]

    def test_prints_json_without_out(self, capsys):
        code, out, _ = run_cli(capsys, "contrib", "--seed", "3", "--trials", "2")
        assert code == 0
        assert json.loads(out)["trials"] == 2


class TestPca:
    def test_writes_coordinates_csv(self, trace_file, tmp_path, capsys):
        out = tmp_path / "p"
        code, _, err = run_cli(
            capsys, "pca", "--trace", str(trace_file), *CLASSIFY_ARGS, "--out", str(out)
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
        out = tmp_path / "o"
        code, _, err = run_cli(
            capsys, "all", "--trace", str(trace_file), "--format", "json", "--out", str(out)
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ParameterError" and "--format" in payload["message"]
        assert not out.exists()

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
            capsys, "compress", "--trace", str(trace_file), *PLAN_ARGS, "--out", str(feasible)
        )[0] == 0
        assert "infeasible" not in json.loads((feasible / "memory.json").read_text())

    def test_a_repeated_infeasible_cell_is_listed_once(self, trace_file, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, err = run_cli(
            capsys, "compress", "--trace", str(trace_file), "--policy", "task-kv",
            "--budget", "0.05,0.05,0.5,0.5", *CLASSIFY_ARGS,
            "--kernel", "3", "--sinks", "4", "--recents", "8", "--out", str(out),
        )
        assert code == 0, err
        assert "wrote 1 plan file(s)" in stdout
        assert "; 1 infeasible cell(s) listed in memory.json" in stdout
        memory = json.loads((out / "memory.json").read_text())
        assert [(m["policy"], m["budget_ratio"]) for m in memory["memory"]] == [("task-kv", 0.5)]
        assert [(c["policy"], c["budget_ratio"]) for c in memory["infeasible"]] == [
            ("task-kv", 0.05)
        ]

    @pytest.mark.parametrize("command", ["compress", "all"])
    def test_budgets_that_share_a_plans_file_fail(self, trace_file, tmp_path, capsys, command):
        # both budgets print as 0.5, so one cell's plans would overwrite the other's
        out = tmp_path / "o"
        code, _, err = run_cli(
            capsys, command, "--trace", str(trace_file), "--policy", "task-kv",
            "--budget", "0.5000001,0.5000002", *CLASSIFY_ARGS,
            "--kernel", "3", "--sinks", "4", "--recents", "8", "--out", str(out),
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "ParameterError",
            "message": "budgets 0.5000001 and 0.5000002 would share the plans file "
            "plans_task-kv_0.5.json",
        }
        assert not out.exists()

    @pytest.mark.parametrize("m_top, budget", [(0, "0.1"), (2, "0.3")])
    def test_a_clamped_head_aware_cell_keeps_more_than_its_budget(
        self, tmp_path, capsys, m_top, budget
    ):
        # the default 16 sinks and 256 recents outrun each head's share of
        # B, so k clamps at 0 and every non-heterogeneous head keeps them all
        n, seq_len, f = 8, 1024, m_top  # one layer: f(0) = m
        out = tmp_path / "o"
        code, _, err = run_cli(
            capsys, "all", "--profile", "clustered-heads", "--shape", f"1,{n},{seq_len},32",
            "--policy", "task-kv,no-cache,compressed-cache", "--budget", budget,
            "--m-top", str(m_top), "--out", str(out),
        )
        assert code == 0, err
        budget_tokens = int(np.floor(float(budget) * seq_len * n))
        kept = seq_len * f + (n - f) * min(seq_len, 16 + 256)
        assert kept > budget_tokens
        report = json.loads((out / "report.json").read_text())
        assert sorted(entry["policy"] for entry in report["policies"]) == [
            "compressed-cache", "no-cache", "task-kv"
        ]
        for entry in report["policies"]:
            assert entry["memory"]["tokens_retained"] == kept
            plans = json.loads((out / f"plans_{entry['policy']}_{budget}.json").read_text())
            [layer] = plans["layers"]
            assert layer["total_budget"] == budget_tokens
            assert (layer["middle_k"], layer["clamped"]) == (0, True)


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

    def test_gen_reads_seed_beside_a_config_trace_path(self, trace_file, tmp_path, capsys):
        # a shared config file's trace path does not make gen's --seed unread
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trace_path": str(trace_file)}))
        seeded = []
        for seed in ("3", "4"):
            out = tmp_path / f"g{seed}.tkv"
            code, _, err = run_cli(
                capsys, "gen", "--config", str(cfg_path), "--profile", "uniform-random",
                "--shape", "1,2,8,4", "--seed", seed, "--out", str(out),
            )
            assert code == 0, err
            seeded.append(out.read_bytes())
        assert seeded[0] != seeded[1]

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


# a value other than the default for every config field; a field added
# without one here fails the round-trip tests
RUN_FIELD_VALUES = {
    "trace_path": "other.tkv",
    "profile": SyntheticProfile("planted-needle", seed=3, tail_len=8),
    "shape": (2, 4, 64, 8),
    "policies": (PolicyKind.FULL, PolicyKind.UNIFORM_TOPK),
    "budget_ratios": (0.25, 0.75),
    "beta": 0.5,
    "top_m": 2,
    "top_t": 8,
    "window_len": 4,
    "kernel": 5,
    "sinks": 2,
    "recents": 3,
    "decode_queries": 6,
    "seed": 9,
    "contrib_trials": 7,
}
PROFILE_FIELD_VALUES = {
    "kind": "planted-needle",
    "seed": 4,
    "planted": 3,
    "spread": 0.5,
    "needle_position": 2,
    "needle_strength": 2.5,
    "tail_len": 5,
}


def _subparser(command: str) -> argparse.ArgumentParser:
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return commands.choices[command]


def _flag_for(dest: str) -> str | None:
    """The `all` command's flag that sets config field `dest`, if any."""
    actions = _subparser("all")._actions
    return next((a.option_strings[0] for a in actions if a.dest == dest), None)


def _flag_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(getattr(v, "value", str(v)) for v in value)
    return str(value)


class TestConfigSchema:
    """Every `RunConfig` and `SyntheticProfile` field is a config file key
    and, where a flag sets it, the flag's argparse dest."""

    def through_file(self, tmp_path, cfg: RunConfig) -> RunConfig:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        return _config_from(build_parser().parse_args(["all", "--config", str(path)]))

    def through_flag(self, name: str, value, *extra) -> RunConfig:
        argv = ["all", *extra, _flag_for(name), _flag_text(value)]
        return _config_from(build_parser().parse_args(argv))

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
    def test_run_field_round_trips(self, tmp_path, name):
        value = RUN_FIELD_VALUES[name]
        cfg = RunConfig(**{name: value})
        assert cfg != RunConfig()
        assert self.through_file(tmp_path, cfg) == cfg
        if _flag_for(name) is not None:
            assert self.through_flag(name, value) == cfg

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SyntheticProfile)])
    def test_profile_field_round_trips(self, tmp_path, name):
        value = PROFILE_FIELD_VALUES[name]
        # a flag is read only under the profile kind that reads its field
        needle = name in ("needle_position", "needle_strength", "tail_len")
        base = SyntheticProfile("planted-needle" if needle else "clustered-heads")
        cfg = RunConfig(profile=dataclasses.replace(base, **{name: value}))
        assert cfg.profile != base
        assert self.through_file(tmp_path, cfg) == cfg
        # a flag sets every field its dest names, the run's seed too
        run_fields = {f.name for f in dataclasses.fields(RunConfig)}
        expected = dataclasses.replace(cfg, **{name: value} if name in run_fields else {})
        assert self.through_flag(name, value, "--profile", base.kind) == expected


README = Path(__file__).resolve().parents[1] / "README.md"


class TestFlagTable:
    """The CLI's flag table against README's flag/config-key table and each
    command's -h."""

    def readme_flag_keys(self) -> dict:
        """Each flag in README §CLI's flag/config-key table, by its key cell."""
        section = README.read_text().split("\n## CLI\n")[1].split("\n## ")[0]
        keys = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[0].startswith("`--"):
                for flag, key in (cells[:2], cells[2:]):
                    keys[re.match(r"`(--[a-z-]+)`", flag)[1]] = key
        return keys

    def test_readme_flag_table_lists_the_cli_tables_config_flags(self):
        # a flag's key: its dest under each config object that has the field
        objects = [("", RunConfig), ("profile.", SyntheticProfile)]
        expected = {}
        for dest, (flag, _, _) in _FLAGS.items():
            keys = [
                f"`{prefix}{dest}`" for prefix, cls in objects
                if dest in {f.name for f in dataclasses.fields(cls)}
            ]
            if keys:
                expected[flag] = " and ".join(keys)
        assert expected["--seed"] == "`seed` and `profile.seed`"
        assert self.readme_flag_keys() == expected

    # the flags each command never reads, as README §CLI names them
    NEVER_READ = {
        "compress": {"--decode-queries"},
        "eval": {
            "--policy", "--budget", "--beta", "--m-top", "--top-t", "--kernel", "--sinks",
            "--recents",
        },
        "pca": {"--policy", "--budget", "--kernel", "--sinks", "--recents", "--decode-queries"},
        "all": set(),
    }

    VALUES = {
        "--policy": "full", "--budget": "0.5", "--beta": "0.5", "--m-top": "1",
        "--top-t": "8", "--kernel": "3", "--sinks": "2", "--recents": "3",
        "--decode-queries": "4",
    }

    @pytest.mark.parametrize("command", list(NEVER_READ))
    def test_help_lists_only_the_flags_a_command_reads(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        parsed = {f for a in _subparser(command)._actions for f in a.option_strings}
        assert listed == parsed - {"-h"} - self.NEVER_READ[command]

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in NEVER_READ.items() for flag in sorted(flags)],
    )
    def test_a_flag_left_out_of_help_still_parses_and_fails_by_name(self, command, flag):
        argv = [command, "--profile", "uniform-random", "--shape", "1,4,64,8", flag]
        if command == "eval":
            argv = ["eval", "--trace", "t.tkv", "--plans", "p.json", flag]
        args = build_parser().parse_args([*argv, self.VALUES[flag]])
        with pytest.raises(ParameterError, match=f"^{command} does not read {flag}$"):
            _config_from(args)


class TestErrorReporting:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["all", "--kernel", "abc"], "--kernel"),
            (["all", "--no-such-flag"], "--no-such-flag"),
            (["gen", "--profile", "uniform-random", "--shape", "1,1,4,2"], "--out"),
            (["compress", "--profile", "no-such-kind"], "--profile"),
            ([], "command"),
        ],
        ids=["bad-int", "unknown-flag", "missing-out", "bad-choice", "no-command"],
    )
    def test_usage_errors_are_one_json_line(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ParameterError" and needle in payload["message"]

    @pytest.mark.parametrize("argv", [["-h"], ["all", "-h"]])
    def test_help_still_prints_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: semkv" in capsys.readouterr().out

    def test_missing_trace_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "compress", "--trace", str(tmp_path / "nope.tkv"),
            *PLAN_ARGS, "--out", str(tmp_path / "o"),
        )
        assert code == 1
        payload = json.loads(err)
        assert "error" in payload and "message" in payload

    @pytest.mark.parametrize("command, flag", [("eval", "--plans"), ("all", "--config")])
    def test_json_file_that_is_not_utf8_is_one_json_error(
        self, trace_file, tmp_path, capsys, command, flag
    ):
        # the trace itself where a JSON file goes: its float32 payload is not UTF-8
        with pytest.raises(UnicodeDecodeError):
            trace_file.read_bytes().decode()
        out = tmp_path / "o"
        code, _, err = run_cli(
            capsys, command, "--trace", str(trace_file), flag, str(trace_file), "--out", str(out)
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "UnicodeDecodeError"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "policy, flag", [("streaming", "--sinks"), ("uniform-topk", "--recents"), ("full", "--sinks")]
    )
    def test_negative_sinks_or_recents_fail_before_any_layer_is_read(
        self, tmp_path, capsys, policy, flag
    ):
        trace = tmp_path / "t.tkv"
        assert run_cli(
            capsys, "gen", "--profile", "uniform-random", "--shape", "1,4,64,4", "--out", str(trace)
        )[0] == 0
        nan_layer = tmp_path / "nan.tkv"
        data = bytearray(trace.read_bytes())
        data[-4:] = np.float32(np.nan).tobytes()
        nan_layer.write_bytes(bytes(data))
        for source in (trace, nan_layer):
            out = tmp_path / "out"
            code, _, err = run_cli(
                capsys, "compress", "--trace", str(source), "--policy", policy,
                "--budget", "0.5", flag, "-3", "--out", str(out),
            )
            assert code == 1
            assert len(err.splitlines()) == 1
            payload = json.loads(err)
            assert payload["error"] == "ParameterError"
            assert "sinks and recents must be >= 0" in payload["message"]
            assert not out.exists()

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

    SMALL = ["--profile", "clustered-heads", "--shape", "1,4,64,8"]

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["compress", "--profile", "clustered-heads", "--shape", "a,b,c,d"], None, "--shape"),
            (["compress", *SMALL, "--budget", "abc"], None, "'abc'"),
            (["compress", "--profile", "clustered-heads"], {"shape": [1, 2]}, "shape"),
            (["compress", "--profile", "clustered-heads"], {"shape": [1, 4, 64, "x"]}, "shape"),
            (["compress", *SMALL], {"beta": "x"}, "beta"),
            (["compress", *SMALL], {"window_len": 8.5}, "window_len"),
            (["compress"], {"trace_path": 5}, "trace_path"),
            (["contrib", "--heads", "0"], None, "heads"),
            (["contrib", "--heads", "-2"], None, "heads"),
            (["all", *SMALL, "--contrib-trials", "-2"], None, "contrib_trials"),
            (["all", *SMALL, "--window", "0"], None, "window_len"),
            (["all", *SMALL], {"window_len": -3}, "window_len"),
            (["all", *SMALL, "--kernel", "4"], None, "kernel"),
            (["pca", *SMALL, "--kernel", "0"], None, "kernel"),
            (["all", *SMALL, "--top-t", "0"], None, "top_t"),
            (["all", "--profile", "uniform-random", "--shape", "1,2,64,8"], None,
             "top_m 4 outside [0, 2]"),
            (["pca", *SMALL], {"top_m": -1}, "top_m -1 outside [0, "),
            (["compress", *SMALL], {"profile": 5}, "profile"),
            (["compress", *SMALL], {"policies": "task-kv"}, "policies"),
            (["compress", *SMALL, "--policy", ""], None, "policies must not be empty"),
            (["all", *SMALL, "--budget", ","], None, "budget_ratios must not be empty"),
            (["compress", *SMALL], {"policies": []}, "policies must not be empty"),
            (["all", *SMALL], {"budget_ratios": []}, "budget_ratios must not be empty"),
            (["gen", *SMALL, "--seed", str(2**63)], None, f"seed {2**63} outside [0, 2^63)"),
            (["gen", *SMALL, "--seed", str(2**64)], None, f"seed {2**64} outside [0, 2^63)"),
            (["all", *SMALL, "--seed", str(2**63)], None, f"seed {2**63} outside [0, 2^63)"),
            (["contrib", "--seed", str(2**64)], None, f"seed {2**64} outside [0, 2^63)"),
            (["contrib", "--seed", "-1"], None, "seed -1 outside [0, 2^63)"),
            (["gen", "--profile", "uniform-random", "--shape", "1,1,4294967296,1"], None,
             "seq_len must be in [1, 2^32 - 1]"),
            (["all", "--profile", "uniform-random", "--shape", "4294967296,1,8,1"], None,
             "num_layers must be in [1, 2^32 - 1]"),
            (["contrib", "--heads", str(10**20)], None, "exceed the address space"),
            (["contrib", "--dim", str(10**20)], None, "exceed the address space"),
            (["contrib", "--out-dim", str(10**20)], None, "exceed the address space"),
        ],
    )
    def test_malformed_numbers_are_json_errors(self, tmp_path, capsys, argv, config, message):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert message in payload["message"]
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--policy", "bogus"], None, "'bogus' is not a valid PolicyKind"),
            ([], {"policies": [[1]]}, "[1] is not a valid PolicyKind"),
        ],
        ids=["flag", "config"],
    )
    def test_unknown_policy_is_one_json_line(self, tmp_path, capsys, flags, config, message):
        argv = ["compress", *self.SMALL, *flags]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert err == json.dumps({"error": "ParameterError", "message": message}) + "\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config, seed",
        [(["--seed", "-1"], None, -1), ([], {"seed": -4}, -4), ([], {"seed": 2**63}, 2**63)],
    )
    def test_out_of_range_seed_fails_on_a_trace_run(
        self, trace_file, tmp_path, capsys, flags, config, seed
    ):
        # with --trace and no bound suite nothing is drawn from the seed,
        # but report.json would record it
        argv = ["all", "--trace", str(trace_file), "--policy", "streaming", "--budget", "0.5"]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            flags = [*flags, "--config", str(path)]
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, *flags, "--out", str(out))
        assert code == 1
        assert json.loads(err) == {
            "error": "ParameterError", "message": f"seed {seed} outside [0, 2^63)"
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--window", "0", "window_len"), ("--kernel", "4", "kernel"), ("--top-t", "0", "top_t")],
    )
    @pytest.mark.parametrize("command", ["all", "pca"])
    def test_window_kernel_and_top_t_fail_before_any_layer_is_read(
        self, trace_file, tmp_path, capsys, command, flag, value, name
    ):
        # a NaN in the first layer would fail the run as soon as it was read
        data = bytearray(trace_file.read_bytes())
        data[HEADER_BYTES : HEADER_BYTES + 4] = np.float32(np.nan).tobytes()
        bad = tmp_path / "nan.tkv"
        bad.write_bytes(bytes(data))
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, command, "--trace", str(bad), flag, value, "--out", str(out)
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        if (command, flag) == ("pca", "--kernel"):
            # pca pools nothing, so it rejects the kernel flag unread
            assert payload["message"] == "pca does not read --kernel"
        else:
            assert payload["message"].startswith(name)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["compress", *SMALL, "--spread", "nan"], "ParameterError"),
            (["all", *SMALL, "--spread", "inf"], "ParameterError"),
            (["all", "--profile", "planted-needle", "--shape", "1,4,64,8",
              "--needle-strength", "nan"], "ParameterError"),
            (["compress", *SMALL, "--spread", "1e300"], "TraceFormatError"),
            (["all", *SMALL, "--spread", "1e300"], "TraceFormatError"),
            (["all", "--profile", "planted-needle", "--shape", "1,4,64,8",
              "--needle-strength", "1e39"], "TraceFormatError"),
            (["gen", *SMALL, "--spread", "1e300"], "TraceFormatError"),
            (["gen", "--profile", "planted-needle", "--shape", "1,4,64,8",
              "--needle-strength", "1e39"], "TraceFormatError"),
            # near the float64 maximum, the spread product itself overflows
            (["gen", *SMALL, "--spread", "1e308"], "TraceFormatError"),
            (["all", *SMALL, "--spread", "1e308"], "TraceFormatError"),
            (["compress", *SMALL, "--spread", "1e308"], "TraceFormatError"),
        ],
    )
    def test_non_finite_synthetic_values_are_json_errors(self, tmp_path, capsys, argv, error):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == error
        assert not out.exists() or os.listdir(out) == []


def _bytes_of(export, *args):
    buf = io.BytesIO()
    export(*args, buf)
    return buf.getvalue()


def _json_line(payload) -> bytes:
    return (json.dumps(payload) + "\n").encode()


def _plans_file(trace, policy, ratio, plans) -> bytes:
    """A plans file as one `json.dumps` of the whole payload."""
    return _json_line(
        {
            "policy": policy,
            "budget_ratio": ratio,
            "trace": {
                "num_layers": trace.num_layers,
                "num_heads": trace.num_heads,
                "seq_len": trace.seq_len,
                "head_dim": trace.head_dim,
            },
            "layers": [plan.to_json_dict() for plan in plans],
        }
    )


def in_memory_outputs(command, argv, trace, plans_files=()):
    """What `command` writes, computed by the library over the whole trace in memory."""
    cfg = _config_from(build_parser().parse_args([command, *argv, "--out", "unused"]))
    dq = decode_count(cfg, trace.header)
    if command == "eval":
        rows = []
        for path in plans_files:
            payload = json.loads(Path(path).read_text())
            fid = fidelity_eval(trace, [BudgetPlan.from_json_dict(d) for d in payload["layers"]], dq)
            rows.append({
                "plans": os.path.basename(path), "policy": payload["policy"],
                "budget_ratio": payload["budget_ratio"], **fid.to_json_dict(),
            })
        return {"fidelity.json": _json_line({"fidelity": rows})}
    if command == "pca":
        pca_cfg = dataclasses.replace(
            cfg, policies=(PolicyKind.FULL,), budget_ratios=(1.0,), decode_queries=1
        )
        return {"pca.csv": _bytes_of(export_pca_csv, run_all(pca_cfg, trace))}
    result = compress_run(cfg, trace)
    files = {
        f"plans_{policy}_{ratio:g}.json": _plans_file(trace, policy, ratio, plans)
        for (policy, ratio), plans in result.plans.items()
    }
    if command == "compress":
        memory = []
        for (policy, ratio), plans in sorted(result.plans.items()):
            mem = result.memory((policy, ratio))
            memory.append({
                "policy": policy, "budget_ratio": ratio, "tokens_retained": mem.tokens_retained,
                "bytes": mem.bytes, "ratio_vs_full": mem.ratio_vs_full,
            })
        payload = {"memory": memory}
        if result.infeasible:
            payload["infeasible"] = result.infeasible
        files["memory.json"] = _json_line(payload)
        return files
    report = run_all(cfg, trace)
    files["report.json"] = _bytes_of(export_report, report, "json")
    files["report.csv"] = _bytes_of(export_report, report, "csv")
    files["pca.csv"] = _bytes_of(export_pca_csv, report)
    if cfg.trace_path is None:
        files["trace.tkv"] = _bytes_of(write_trace, trace)
    return files


def assert_outputs(out, expected):
    assert sorted(os.listdir(out)) == sorted(expected)
    for name, data in expected.items():
        assert (out / name).read_bytes() == data, name


ALL_POLICIES = ",".join(p.value for p in PolicyKind)
LAYERED = ["--profile", "clustered-heads", "--shape", "3,8,128,8", "--planted", "2",
           "--spread", "0.1", "--seed", "6"]
LAYERED_CLASSIFY = ["--beta", "0.375", "--m-top", "2", "--top-t", "64", "--window", "16"]
LAYERED_ARGS = [
    "--policy", ALL_POLICIES, "--budget", "0.3,0.6", *LAYERED_CLASSIFY, "--kernel", "3",
    "--sinks", "4", "--recents", "8",
]
# `pca` reads only the flags that classify heads
LAYERED_FOR = {"pca": LAYERED_CLASSIFY}
ALL_ONLY = {"all": ["--contrib-trials", "5"]}
# planted-needle at (2, 8, 1024, 32): every head-aware cell at 0.4 is infeasible
NEEDLE = ["--profile", "planted-needle", "--shape", "2,8,1024,32", "--seed", "3"]
NEEDLE_PLAN = ["--policy", ALL_POLICIES, "--budget", "0.4,0.8"]
NEEDLE_ARGS = [*NEEDLE_PLAN, "--decode-queries", "5"]


class TestLayerStreaming:
    """Commands read, draw and score a trace one layer at a time; their
    outputs are the bytes the library writes from the whole trace in memory."""

    @pytest.fixture
    def layered(self, tmp_path, capsys):
        path = tmp_path / "layered.tkv"
        assert run_cli(capsys, "gen", *LAYERED, "--out", str(path))[0] == 0
        return path

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("all", []),
            ("all", ["--decode-queries", "5"]),
            ("all", ["--decode-queries", "40"]),
            ("compress", []),
            ("pca", []),
        ],
    )
    def test_trace_file_outputs_equal_in_memory_path(
        self, layered, tmp_path, capsys, command, extra
    ):
        args = LAYERED_FOR.get(command, LAYERED_ARGS)
        argv = ["--trace", str(layered), *args, *ALL_ONLY.get(command, []), *extra]
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
        assert code == 0, err
        assert_outputs(out, in_memory_outputs(command, argv, read_trace(layered)))

    def test_eval_outputs_equal_in_memory_path(self, layered, tmp_path, capsys):
        plans_dir = tmp_path / "plans"
        argv = ["--trace", str(layered), *LAYERED_ARGS]
        assert run_cli(capsys, "compress", *argv, "--out", str(plans_dir))[0] == 0
        plans = sorted(str(p) for p in plans_dir.glob("plans_*.json"))
        assert len(plans) == 9
        flags = [f for path in plans for f in ("--plans", path)]
        out = tmp_path / "out"
        eval_argv = ["--trace", str(layered), "--decode-queries", "7", *flags]
        code, _, err = run_cli(capsys, "eval", *eval_argv, "--out", str(out))
        assert code == 0, err
        expected = in_memory_outputs("eval", eval_argv, read_trace(layered), plans)
        assert_outputs(out, expected)

    @pytest.mark.parametrize(
        "command, source, args",
        [
            ("all", LAYERED, LAYERED_ARGS + ALL_ONLY["all"]),
            ("all", NEEDLE, NEEDLE_ARGS),
            ("compress", LAYERED, LAYERED_ARGS),
            ("compress", NEEDLE, NEEDLE_PLAN),
            ("pca", LAYERED, LAYERED_CLASSIFY),
            ("pca", NEEDLE, []),
        ],
    )
    def test_profile_source_outputs_equal_in_memory_path(
        self, tmp_path, capsys, command, source, args
    ):
        # only `all` saves the generated trace as trace.tkv
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, command, *source, *args, "--out", str(out))
        assert code == 0, err
        cfg = _config_from(build_parser().parse_args([command, *source]))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        assert_outputs(out, in_memory_outputs(command, [*source, *args], trace))

    @pytest.mark.parametrize(
        "source, args", [(LAYERED, LAYERED_ARGS), (NEEDLE, NEEDLE_PLAN)], ids=["layered", "needle"]
    )
    def test_eval_of_a_config_profile_equals_in_memory_path(
        self, tmp_path, capsys, source, args
    ):
        # `eval` has no profile flags: its drawn trace comes from --config
        plans_dir = tmp_path / "plans"
        assert run_cli(capsys, "compress", *source, *args, "--out", str(plans_dir))[0] == 0
        plans = sorted(str(p) for p in plans_dir.glob("plans_*.json"))
        flags = [f for path in plans for f in ("--plans", path)]
        argv = ["--config", str(profile_config(tmp_path, source)), "--decode-queries", "7", *flags]
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "eval", *argv, "--out", str(out))
        assert code == 0, err
        cfg = _config_from(build_parser().parse_args(["compress", *source]))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        assert_outputs(out, in_memory_outputs("eval", argv, trace, plans))

    def test_non_seekable_stream_outputs_equal_in_memory_path(self, layered, tmp_path, capsys):
        fifo = tmp_path / "pipe.tkv"
        os.mkfifo(fifo)
        data = layered.read_bytes()

        def feed():
            with open(fifo, "wb") as f:
                f.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        out = tmp_path / "out"
        argv = ["--trace", str(fifo), *LAYERED_ARGS, *ALL_ONLY["all"]]
        code, _, err = run_cli(capsys, "all", *argv, "--out", str(out))
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert code == 0, err
        assert_outputs(out, in_memory_outputs("all", argv, read_trace(data)))

    @pytest.mark.parametrize("command", ["all", "compress", "pca"])
    def test_nan_in_last_layer_leaves_no_outputs(self, layered, tmp_path, capsys, command):
        trace = read_trace(layered)
        data = trace.data.copy()
        data[-1, -1, 2, -1, -1] = np.nan
        bad = tmp_path / "bad.tkv"
        bad.write_bytes(trace.header.pack() + data.tobytes())
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--trace", str(bad), *LAYERED_FOR.get(command, LAYERED_ARGS)]
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "TraceFormatError", "message": "trace contains NaN/Inf entries"
        }
        assert os.listdir(out) == []


class TestPlansFiles:
    """Plans files are written one head's ranges at a time, each distinct
    range list encoded once; a file's bytes are still one `json.dumps` of
    its whole payload, each layer as `to_json_dict` gives it
    (`in_memory_outputs`), for every policy."""

    SLOTS = ["--sinks", "4", "--recents", "8", "--window", "16", "--kernel", "3"]
    CASES = {
        # 18 and 20 of 24 heads share one compressed-cache groups list, and
        # the planted heterogeneous heads keep [[0, N]]
        "shared": ["--profile", "clustered-heads", "--shape", "2,24,512,8", "--planted", "4",
                   "--seed", "6", *SLOTS],
        "infeasible": NEEDLE,  # every head-aware cell at 0.4
        "one-head": ["--profile", "uniform-random", "--shape", "2,1,256,8", "--seed", "6",
                     "--beta", "0.4", "--m-top", "0", *SLOTS],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_a_plans_file_is_one_json_dumps_of_its_payload(self, tmp_path, capsys, case):
        argv = [*self.CASES[case], "--policy", ALL_POLICIES, "--budget", "0.4,0.8"]
        cfg = _config_from(build_parser().parse_args(["compress", *argv]))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        for command in ("compress", "all"):
            out = tmp_path / command
            code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
            assert code == 0, err
            assert_outputs(out, in_memory_outputs(command, argv, trace))

        result = compress_run(cfg, trace)
        assert {policy for policy, _ in result.plans} == {p.value for p in PolicyKind}
        plans = [plan for layers in result.plans.values() for plan in layers]
        if case == "shared":
            shared = max(
                max(Counter(g.tobytes() for g in plan.per_head_groups if len(g)).values())
                for plan in plans if plan.per_head_groups is not None and plan.middle_k
            )
            assert shared >= 16
            everything = [[0, trace.seq_len]]
            assert any(
                head_class == HeadClass.HETEROGENEOUS and runs.tolist() == everything
                for plan in plans if plan.policy == PolicyKind.TASK_KV
                for head_class, runs in zip(plan.head_classes, plan.per_head_runs)
            )
        elif case == "infeasible":
            assert {(c["policy"], c["budget_ratio"]) for c in result.infeasible} == {
                ("task-kv", 0.4), ("no-cache", 0.4), ("compressed-cache", 0.4)
            }
        else:
            assert {len(plan.per_head_runs) for plan in plans} == {1}


def _traced_peak(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def profile_config(tmp_path, source):
    """A config file that names the profile and shape of the flags `source`."""
    cfg = _config_from(build_parser().parse_args(["compress", *source]))
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"profile": dataclasses.asdict(cfg.profile), "shape": cfg.shape}))
    return path


class TestDrawnTrace:
    """A `--profile` run writes its trace to a temporary file, or `all` to
    its staged trace.tkv, and maps it like any trace file: its peak is
    never a layer's payload."""

    SHAPE = (2, 16, 4096, 64)  # a 48 MiB layer; each head block is 3 MiB
    R, N_HEADS, SEQ, DIM = SHAPE
    WINDOW = 32
    PROFILE = ["--profile", "clustered-heads", "--planted", "1", "--seed", "8", "--m-top", "1"]
    PLAN = ["--policy", "task-kv,streaming,compressed-cache", "--budget", "0.5"]

    @pytest.fixture
    def warm(self, tmp_path, capsys):
        # a small run first, so modules numpy imports on first use are not counted
        assert main(["all", *self.PROFILE, "--shape", "2,4,64,8", "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["compress", "pca", "all"])
    def test_peak_is_one_head_block_not_a_layer(self, warm, tmp_path, capsys, command):
        shape = ",".join(map(str, self.SHAPE))
        plan = [] if command == "pca" else self.PLAN
        code, peak = _traced_peak([
            command, *self.PROFILE, "--shape", shape, *plan, "--out", str(tmp_path / "out"),
        ])
        assert code == 0, capsys.readouterr().err
        # drawing holds a 1 MiB float32 piece of rows, its float64 scratch,
        # a clustered head's (N,) magnitudes and small change; the head
        # visits that follow hold one head's float64 K and V and the window
        # softmax's temporaries, `all`'s too: it scores each head in its
        # visit, holding no layer's window numerators
        block = 3 * self.SEQ * self.DIM * 4
        draw = 3 * trace_module._STREAM_CHUNK + 8 * self.SEQ + 256 * 1024
        head = 2 * self.SEQ * self.DIM * 8 + 8 * self.WINDOW * self.SEQ * 8
        assert peak <= max(draw, head)
        # which is less than one layer's payload
        assert max(draw, head) < self.N_HEADS * block

    @pytest.mark.parametrize("command", ["compress", "pca", "eval"])
    def test_unwritable_temporary_file_is_a_json_error(
        self, tmp_path, capsys, monkeypatch, command
    ):
        class FullDisk(io.BytesIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        argv = [*LAYERED, *LAYERED_FOR.get(command, LAYERED_ARGS)]
        if command == "eval":
            assert run_cli(capsys, "compress", *argv, "--out", str(tmp_path / "plans"))[0] == 0
            plans = tmp_path / "plans" / "plans_streaming_0.3.json"
            argv = ["--config", str(profile_config(tmp_path, LAYERED)), "--plans", str(plans)]
        monkeypatch.setattr(tempfile, "TemporaryFile", FullDisk)
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "OSError", "message": f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        }
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "command, flag, value, name",
        [
            ("compress", "--kernel", "4", "kernel"),
            ("all", "--kernel", "4", "kernel"),
            ("compress", "--top-t", "0", "top_t"),
            ("pca", "--top-t", "0", "top_t"),
            ("all", "--top-t", "0", "top_t"),
        ],
    )
    def test_bad_kernel_and_top_t_fail_before_any_head_is_drawn(
        self, tmp_path, capsys, monkeypatch, command, flag, value, name
    ):
        def drawn(source):
            raise AssertionError("a piece was drawn")

        monkeypatch.setattr(SyntheticSource, "pieces", drawn)
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, command, *LAYERED, flag, value, "--out", str(out))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert payload["message"].startswith(name)
        assert not out.exists()


class TestNeedlePieces:
    """A planted-needle head's needle axis is drawn after its V, so its Q
    tail rows and K needle row are written over rows already drawn: every
    writer gives the bytes of one whole (N, d) draw per array, wherever
    those rows fall among the 1 MiB pieces."""

    # each (5000, 64) array is drawn as a 4096-row piece and a 904-row one
    SHAPE = (1, 2, 5000, 64)
    FLAGS = ["--profile", "planted-needle", "--shape", "1,2,5000,64", "--seed", "9"]

    @staticmethod
    def whole_array_bytes(profile, shape):
        """The trace file of `profile`, each Q, K and V drawn whole."""
        header = TraceHeader(*shape)
        _, _, seq_len, head_dim = shape
        rng = seeded_rng(profile.seed, 1)
        data = np.empty(header.shape, dtype=np.float32)
        for q, k, v in data.reshape(-1, 3, seq_len, head_dim):
            for array in (q, k, v):
                array[...] = rng.standard_normal((seq_len, head_dim))
            axis = rng.standard_normal(head_dim)
            axis /= np.linalg.norm(axis)
            q[seq_len - min(profile.tail_len, seq_len) :] = np.sqrt(head_dim) * axis
            k[profile.needle_position] = profile.needle_strength * np.sqrt(head_dim) * axis
        return header.pack() + data.tobytes()

    @pytest.mark.parametrize(
        "tail, position",
        [(1000, 3), (5000, 0), (1, 4999)],
        # the tail crosses Q's piece edge and the needle sits in K's first
        # piece; the tail is all of Q; both are one row of a last piece
        ids=["tail-across-an-edge", "tail-is-every-row", "last-rows"],
    )
    def test_every_writer_gives_the_whole_array_bytes(self, tmp_path, capsys, tail, position):
        profile = SyntheticProfile(
            "planted-needle", seed=9, needle_position=position, tail_len=tail
        )
        expected = self.whole_array_bytes(profile, self.SHAPE)
        flags = [*self.FLAGS, "--needle-pos", str(position), "--tail", str(tail)]
        assert run_cli(capsys, "gen", *flags, "--out", str(tmp_path / "gen.tkv"))[0] == 0
        assert (tmp_path / "gen.tkv").read_bytes() == expected
        out = tmp_path / "all"
        code, _, err = run_cli(
            capsys, "all", *flags, "--m-top", "1", "--policy", "streaming", "--budget", "0.5",
            "--contrib-trials", "0", "--out", str(out),
        )
        assert code == 0, err
        assert (out / "trace.tkv").read_bytes() == expected
        buf = io.BytesIO()
        assert write_trace(SyntheticSource(profile, self.SHAPE), buf) == len(expected)
        assert buf.getvalue() == expected
        assert _bytes_of(write_trace, gen_synthetic_trace(profile, self.SHAPE)) == expected

    def test_a_needle_past_float32_fails_and_gen_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        flags = [*self.FLAGS, "--needle-strength", "1e39"]
        code, _, err = run_cli(capsys, "gen", *flags, "--out", str(out / "t.tkv"))
        assert code == 1
        assert json.loads(err) == {
            "error": "TraceFormatError", "message": "trace contains NaN/Inf entries"
        }
        assert os.listdir(out) == []
        profile = SyntheticProfile("planted-needle", seed=9, needle_strength=1e39)
        with pytest.raises(TraceFormatError, match="NaN/Inf"):
            gen_synthetic_trace(profile, self.SHAPE)
        with pytest.raises(TraceFormatError, match="NaN/Inf"):
            write_trace(SyntheticSource(profile, self.SHAPE), io.BytesIO())


class TestLayerMemory:
    """Peaks of the arrays a command allocates, as tracemalloc counts them.
    A mapped trace's pages are not among them: `TestMappedResidency` bounds
    those."""

    SHAPE = (8, 4, 4096, 32)
    R, N_HEADS, SEQ, DIM = SHAPE
    PAYLOAD_BYTES = R * N_HEADS * 3 * SEQ * DIM * 4
    WINDOW = 32

    @pytest.fixture
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "t.tkv"
        gen = ["gen", "--profile", "clustered-heads", "--planted", "1", "--seed", "8"]
        # a small run first, so modules numpy imports on first use are not counted
        assert main([*gen, "--shape", "2,4,64,8", "--out", str(path)]) == 0
        assert main(["all", "--trace", str(path), "--m-top", "1", "--out", str(tmp_path)]) == 0
        assert main([*gen, "--shape", ",".join(map(str, self.SHAPE)), "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_all_peak_is_one_layer_plus_one_heads_temporaries(self, trace_path, tmp_path, capsys):
        code, peak = _traced_peak([
            "all", "--trace", str(trace_path), "--policy", "task-kv,streaming,compressed-cache",
            "--budget", "0.5", "--m-top", "1", "--out", str(tmp_path / "out"),
        ])
        assert code == 0, capsys.readouterr().err
        # one head's visit: its window numerators and the gather of their
        # group means' scores, two (N, W) float64 arrays, then the gather
        # of its V rows' group means, at most its float64 K and V; no
        # layer's window numerators are held for fidelity scoring
        head = 2 * self.SEQ * self.DIM * 8 + 2 * self.WINDOW * self.SEQ * 8
        assert peak <= head
        # which is far below the payload a whole-trace read would hold
        assert head < self.PAYLOAD_BYTES / 2

    def test_plans_are_written_one_heads_ranges_at_a_time(self, trace_path, tmp_path, capsys):
        # many heads over a short d, so the plans outweigh a head's visit;
        # trace_path has warmed the modules up
        shape, window = (1, 32, 4096, 8), self.WINDOW
        many = tmp_path / "many.tkv"
        gen = ["gen", "--profile", "clustered-heads", "--planted", "1", "--seed", "8"]
        assert main([*gen, "--shape", ",".join(map(str, shape)), "--out", str(many)]) == 0
        argv = ["--trace", str(many), "--policy", "compressed-cache,uniform-topk", "--budget", "0.7"]
        code, peak = _traced_peak(["compress", *argv, "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        cfg = _config_from(build_parser().parse_args(["compress", *argv]))
        cells = compress_run(cfg, read_trace(many)).plans
        plan_bytes = sum(
            ranges.nbytes
            for (plan,) in cells.values()
            for ranges in [*plan.per_head_runs, *(plan.per_head_groups or [])]
        )
        _, _, seq, dim = shape
        # one head's visit, the layer's plans as arrays, and a MiB for the
        # encoded text of one plan's distinct range lists and small change;
        # not each plan's whole payload as lists before it is encoded
        head = 2 * seq * dim * 8 + 2 * window * seq * 8
        assert peak <= head + plan_bytes + 2**20
        # compressed-cache's 32 heads share one groups list of most of the sequence
        groups = cells[("compressed-cache", 0.7)][0].per_head_groups
        assert len({g.tobytes() for g in groups}) <= 2 and len(groups[-1]) > seq // 2

    def test_gen_peak_is_one_head_block_plus_its_scratch(self, trace_path, tmp_path, capsys):
        code, peak = _traced_peak([
            "gen", "--profile", "clustered-heads", "--planted", "1", "--seed", "9",
            "--shape", ",".join(map(str, self.SHAPE)), "--out", str(tmp_path / "g.tkv"),
        ])
        assert code == 0
        # a float32 head block, two N x d float64 scratch blocks, and small change
        block, scratch = 3 * self.SEQ * self.DIM * 4, 2 * self.SEQ * self.DIM * 8
        assert peak <= block + scratch + 256 * 1024


class TestMappedResidency:
    """A command over a mapped trace holds the pages of one of a head's
    (N, d) arrays at a time: the reader checks Q, K and V one at a time,
    and a head's visit, or its scoring, forms its numerators and group
    scores over K and gives Q and K back before it reads V. Sampled after
    each of those steps and after `_score_head`, the trace's resident
    bytes never exceed one (N, d) array plus the page slack of each head's
    block edge. Within a walk over K or V a block of keys at a time, and
    within the reader's check of an array, the rows already read are given
    back every `_GIVE_BACK_BYTES`."""

    SHAPE = (2, 4, 16384, 128)  # each head's Q, K and V are 8 MiB, a head block 24 MiB
    # each sampled function and the module that holds the name the command calls
    SAMPLED = {
        "_require_finite": trace_module,
        "_HeadNumerators": harness,
        "approx_semantic_vector": harness,
        "_visit_head": harness,
        "_score_head": harness,
    }
    # cells whose plans have groups, whose scores are taken from S
    PLAN = ["--policy", "streaming,compressed-cache", "--m-top", "1"]

    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("mapped")
        assert main([
            "gen", "--profile", "clustered-heads", "--seed", "8",
            "--shape", ",".join(map(str, self.SHAPE)), "--out", str(out / "t.tkv"),
        ]) == 0
        assert main(["compress", "--trace", str(out / "t.tkv"), *self.PLAN, "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("command", ["all", "compress", "eval"])
    def test_peak_is_one_head_block(self, trace_dir, tmp_path, monkeypatch, capsys, command):
        path = trace_dir / "t.tkv"
        samples = {}

        def sampled(call, name):
            def wrapper(*args, **kwargs):
                out = call(*args, **kwargs)
                samples.setdefault(name, []).append(mapped_rss(path))
                return out
            return wrapper

        for name, module in self.SAMPLED.items():
            monkeypatch.setattr(module, name, sampled(getattr(module, name), name))
        argv = [command, "--trace", str(path), "--out", str(tmp_path)]
        if command == "eval":
            argv += ["--plans", str(trace_dir / "plans_compressed-cache_0.4.json")]
        else:
            argv += self.PLAN
        assert main(argv) == 0, capsys.readouterr().err
        uncalled = {
            "all": ("_score_head",),
            "compress": ("_score_head",),
            "eval": ("_visit_head", "approx_semantic_vector"),
        }[command]
        assert set(samples) == set(self.SAMPLED) - set(uncalled)
        _, n, seq_len, dim = self.SHAPE
        array, slack = seq_len * dim * 4, n * PAGE_SLACK_PER_HEAD
        assert max(max(rss) for rss in samples.values()) <= array + slack
        # which a head's K and V, with the huge page its window's query rows
        # fault in, exceed
        assert array + slack < 2 * array + PAGE_SLACK_PER_HEAD

    @pytest.mark.parametrize("command", ["all", "compress", "eval"])
    def test_key_block_walks_hold_two_mib(
        self, trace_dir, tmp_path, monkeypatch, capsys, command
    ):
        path = trace_dir / "t.tkv"
        samples, key_blocks = [], linalg_module._key_blocks

        def sampled(rows):
            for at, block in key_blocks(rows):
                samples.append(mapped_rss(path))
                yield at, block

        for module in (linalg_module, harness):
            monkeypatch.setattr(module, "_key_blocks", sampled)
        argv = [command, "--trace", str(path), "--out", str(tmp_path)]
        if command == "eval":
            argv += ["--plans", str(trace_dir / "plans_compressed-cache_0.4.json")]
        else:
            argv += self.PLAN
        assert main(argv) == 0, capsys.readouterr().err
        _, n, seq_len, dim = self.SHAPE
        # at most 2 MiB of rows read and not yet given back and the block
        # just read, plus two huge pages of slack: the one the window's
        # query rows fault in, and the rest of the one the block was read
        # from, which a read maps whole
        bound = linalg_module._GIVE_BACK_BYTES + _KEY_BLOCK * dim * 4 + 2 * PAGE_SLACK_PER_HEAD
        assert len(samples) >= 2 * n * seq_len // _KEY_BLOCK  # K and V of every head
        assert max(samples) <= bound
        # which the whole of one (N, d) array exceeds
        assert bound < seq_len * dim * 4

    def test_the_reader_gives_back_each_array_it_checks(self, trace_dir, monkeypatch):
        given = []
        monkeypatch.setattr(trace_module, "give_back_pages", given.append)
        r, n, seq_len, dim = self.SHAPE
        stretch = linalg_module._GIVE_BACK_BYTES // (dim * 4)  # rows
        with TraceReader(trace_dir / "t.tkv") as reader:
            for layer, head in np.ndindex(r, n):
                block = reader.head(layer, head)
                # Q, K and V in payload order, each given back from its first
                # row on as each 2 MiB stretch of its rows is checked
                ends = range(stretch, seq_len + 1, stretch)
                assert [view.shape for view in given] == [(end, dim) for end in ends] * 3
                starts = [view.ctypes.data - block.ctypes.data for view in given]
                assert starts == [a * seq_len * dim * 4 for a in range(3) for _ in ends]
                given.clear()

    def test_the_reader_checks_an_array_one_stretch_at_a_time(self, trace_dir, monkeypatch):
        path = trace_dir / "t.tkv"
        samples, check = [], trace_module._require_finite

        def sampled(a, *args):
            check(a, *args)
            samples.append(mapped_rss(path))  # before the stretch is given back

        monkeypatch.setattr(trace_module, "_require_finite", sampled)
        r, n, seq_len, dim = self.SHAPE
        with TraceReader(path) as reader:
            for layer, head in np.ndindex(r, n):
                reader.head(layer, head)
        # one stretch of rows, plus two huge pages of slack: the rest of the
        # one the stretch was read from, and the one across its edge
        bound = linalg_module._GIVE_BACK_BYTES + 2 * PAGE_SLACK_PER_HEAD
        assert max(samples) <= bound
        # which a whole (N, d) array exceeds
        array = seq_len * dim * 4
        assert bound < array
        assert len(samples) == r * n * 3 * array // linalg_module._GIVE_BACK_BYTES


class TestCheckedOnce:
    """Each trace value is checked for NaN/Inf once, by the code that first
    receives it, counted as the values `trace._require_finite` reads per
    payload value. `all --profile` checks its values as they are drawn and
    maps the trace.tkv it saves them to unchecked."""

    SOURCE = ["--profile", "clustered-heads", "--seed", "4", "--shape", "2,4,64,8"]
    PROFILE, SHAPE = SyntheticProfile("clustered-heads", seed=4), (2, 4, 64, 8)

    @pytest.fixture
    def counted(self, tmp_path, monkeypatch):
        """Writes t.tkv, its plans and a config file naming SOURCE's profile,
        then counts; returns the checks per payload value since its last call."""
        assert main(["gen", *self.SOURCE, "--out", str(tmp_path / "t.tkv")]) == 0
        assert main(["compress", "--trace", str(tmp_path / "t.tkv"), "--out", str(tmp_path)]) == 0
        profile_config(tmp_path, self.SOURCE)
        values = []
        check = trace_module._require_finite

        def counting(a, *args):
            values.append(a.size)
            return check(a, *args)

        monkeypatch.setattr(trace_module, "_require_finite", counting)

        def checks_per_value():
            total = sum(values)
            values.clear()
            return total / np.prod(TraceHeader(*self.SHAPE).shape)

        return checks_per_value

    @pytest.mark.parametrize("read", ["read_trace", "gen_synthetic_trace"])
    def test_library_traces(self, tmp_path, counted, read):
        if read == "read_trace":
            read_trace(tmp_path / "t.tkv")
        else:
            gen_synthetic_trace(self.PROFILE, self.SHAPE)
        assert counted() == 1

    @pytest.mark.parametrize(
        "argv, checks",
        [
            (["gen", *SOURCE, "--out", "{dir}/again.tkv"], 1),
            (["compress", *SOURCE], 1),
            (["pca", *SOURCE], 1),
            (["eval", "--config", "{dir}/profile.json",
              "--plans", "{dir}/plans_streaming_0.4.json"], 1),
            (["all", "--trace", "{dir}/t.tkv"], 1),
            (["all", *SOURCE], 1),
        ],
        ids=["gen", "compress-profile", "pca-profile", "eval-profile", "all-trace", "all-profile"],
    )
    def test_commands(self, tmp_path, capsys, counted, argv, checks):
        argv = [arg.format(dir=tmp_path) for arg in argv]
        if argv[0] != "gen":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 0, capsys.readouterr().err
        assert counted() == checks


def _as_json(value):
    """`value` as a command writes it and a reader reads it back."""
    return json.loads(json.dumps(value))


def _reference_scores(trace, plans, decode_queries):
    """Per-head mean decode L2 and cosine, row by row in plain numpy: a row
    that sees no retained key has a zero retained output."""
    shape = (trace.num_layers, trace.num_heads)
    l2, cos = np.empty(shape), np.empty(shape)
    n_seq, dim = trace.seq_len, trace.head_dim

    def attend(q, k, v):
        scores = k @ q / np.sqrt(dim)
        weights = np.exp(scores - scores.max())
        return weights / weights.sum() @ v

    for r, plan in enumerate(plans):
        for h in range(trace.num_heads):
            q, k, v = np.asarray(trace.data[r, h], dtype=np.float64)
            kept = expand_runs(plan.per_head_runs[h])
            errors, cosines = [], []
            for p in range(n_seq - decode_queries, n_seq):
                full = attend(q[p], k[: p + 1], v[: p + 1])
                seen = kept[kept <= p]
                if seen.size:
                    retained = attend(q[p], k[seen], v[seen])
                    norms = np.linalg.norm(full) * np.linalg.norm(retained)
                    cosines.append(full @ retained / norms)
                else:
                    retained = np.zeros(dim)
                    cosines.append(0.0)
                errors.append(np.linalg.norm(full - retained))
            l2[r, h], cos[r, h] = np.mean(errors), np.mean(cosines)
    return l2, cos


def _plans_of(path):
    return [BudgetPlan.from_json_dict(d) for d in json.loads(path.read_text())["layers"]]


class TestBlindDecodeRows:
    """Plans that keep fewer positions than the decode rows span leave the
    earlier rows no retained key; those rows score against a zero output."""

    @pytest.fixture
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "t.tkv"
        argv = ["gen", "--profile", "clustered-heads", "--shape", "2,8,128,16", "--out", str(path)]
        assert run_cli(capsys, *argv)[0] == 0
        return path

    @pytest.mark.parametrize(
        "policy, budget, kept",
        [
            # 6 positions per head, the last 6: 26 of the 32 decode rows see none
            ("uniform-topk", "0.05", list(range(122, 128))),
            # no position at all: every decode row is blind
            ("streaming", "0.005", []),
        ],
    )
    def test_all_scores_blind_rows_and_keeps_every_cell(
        self, trace_path, tmp_path, capsys, policy, budget, kept
    ):
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "all", "--trace", str(trace_path), "--policy", f"{policy},full",
            "--budget", f"{budget},0.5", "--out", str(out),
        )
        assert code == 0, err
        report = json.loads((out / "report.json").read_text())
        entries = {(e["policy"], e["budget_ratio"]): e for e in report["policies"]}
        ratio = float(budget)
        assert sorted(entries) == sorted(
            [("full", ratio), ("full", 0.5), (policy, ratio), (policy, 0.5)]
        )
        trace = read_trace(trace_path)
        plans = _plans_of(out / f"plans_{policy}_{budget}.json")
        assert all(
            expand_runs(runs).tolist() == kept for plan in plans for runs in plan.per_head_runs
        )
        l2, cos = _reference_scores(trace, plans, 32)
        per_head = entries[(policy, ratio)]["fidelity"]["per_head"]
        got_l2 = [[c["l2_error"] for c in layer] for layer in per_head]
        got_cos = [[c["cosine_similarity"] for c in layer] for layer in per_head]
        np.testing.assert_allclose(got_l2, l2, rtol=1e-12)
        np.testing.assert_allclose(got_cos, cos, rtol=1e-12)
        assert entries[("full", ratio)]["fidelity"]["mean_l2"] == 0.0

    def test_eval_scores_blind_rows_of_saved_plans(self, trace_path, tmp_path, capsys):
        plans_dir = tmp_path / "plans"
        code, _, err = run_cli(
            capsys, "compress", "--trace", str(trace_path), "--policy", "streaming",
            "--sinks", "0", "--budget", "0.1", "--out", str(plans_dir),
        )
        assert code == 0, err
        path = plans_dir / "plans_streaming_0.1.json"
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(trace_path), "--plans", str(path), "--out", str(out)
        )
        assert code == 0, err
        row = json.loads((out / "fidelity.json").read_text())["fidelity"][0]
        l2, cos = _reference_scores(read_trace(trace_path), _plans_of(path), 32)
        np.testing.assert_allclose(row["per_head_l2"], l2, rtol=1e-12)
        np.testing.assert_allclose(row["per_head_cosine"], cos, rtol=1e-12)
        assert (cos < 1).all()


class TestInputLimits:
    def test_largest_seed_is_accepted(self, capsys):
        code, out, err = run_cli(capsys, "contrib", "--trials", "2", "--seed", str(2**63 - 1))
        assert code == 0, err
        assert json.loads(out)["seed"] == 2**63 - 1

    GEN_TINY = ["gen", "--profile", "uniform-random", "--shape", "1,1,8,2"]

    @staticmethod
    def fail_mid_write(monkeypatch, error):
        """`gen`'s writer starts the trace, then raises `error`."""

        def exhausted(source, destination):
            Path(destination).write_bytes(b"TKV1")
            raise error

        monkeypatch.setattr("semkv.cli.write_trace", exhausted)

    @pytest.mark.parametrize(
        "error",
        [MemoryError(), OSError(28, "No space left on device")],
        ids=lambda e: type(e).__name__,
    )
    def test_memory_error_is_a_json_error_and_leaves_no_trace(
        self, tmp_path, capsys, monkeypatch, error
    ):
        self.fail_mid_write(monkeypatch, error)
        code, _, err = run_cli(capsys, *self.GEN_TINY, "--out", str(tmp_path / "g.tkv"))
        assert code == 1
        assert json.loads(err) == {"error": type(error).__name__, "message": str(error)}
        assert os.listdir(tmp_path) == []

    def test_a_failed_gen_keeps_the_trace_already_at_out(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.tkv"
        assert run_cli(capsys, *self.GEN_TINY, "--out", str(path))[0] == 0
        good = path.read_bytes()
        self.fail_mid_write(monkeypatch, OSError(28, "No space left on device"))
        code, _, err = run_cli(capsys, *self.GEN_TINY, "--seed", "9", "--out", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "OSError"
        assert path.read_bytes() == good
        assert os.listdir(tmp_path) == ["g.tkv"]

    ALL_TINY = [
        "all", "--profile", "uniform-random", "--shape", "1,8,16,4", "--policy", "full",
        "--budget", "0.5", "--contrib-trials", "0",
    ]

    def test_a_directory_at_an_output_name_fails_before_any_rename(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "report.json").mkdir(parents=True)
        code, _, err = run_cli(capsys, *self.ALL_TINY, "--out", str(out))
        assert code == 1
        assert json.loads(err)["error"] == "IsADirectoryError"
        assert os.listdir(out) == ["report.json"]
        assert os.listdir(out / "report.json") == []

    @pytest.mark.parametrize("failing", [1, 3, 5])
    def test_a_failed_rename_puts_back_the_outputs_it_replaced(
        self, tmp_path, capsys, monkeypatch, failing
    ):
        out = tmp_path / "o"
        assert run_cli(capsys, *self.ALL_TINY, "--out", str(out))[0] == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 5
        replace, renamed = os.replace, []

        def fail_one(src, dst):
            if str(src).endswith(".partial"):
                renamed.append(src)
                if len(renamed) == failing:
                    raise OSError(5, "Input/output error")
            replace(src, dst)

        monkeypatch.setattr("semkv.cli.os.replace", fail_one)
        code, _, err = run_cli(capsys, *self.ALL_TINY, "--seed", "1", "--out", str(out))
        assert code == 1
        assert json.loads(err)["error"] == "OSError"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_gen_into_a_directory_fails_and_writes_nothing(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, *self.GEN_TINY, "--out", str(tmp_path))
        assert code == 1
        assert json.loads(err)["error"] == "ParameterError"
        assert os.listdir(tmp_path) == []

    def test_gen_into_a_missing_directory_is_a_directory_error(self, tmp_path, capsys):
        out = f"{tmp_path / 'nd'}{os.sep}"
        code, _, err = run_cli(capsys, *self.GEN_TINY, "--out", out)
        assert code == 1
        message = f"gen --out {out} is a directory, not a trace file"
        assert json.loads(err) == {"error": "ParameterError", "message": message}
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, name", [(GEN_TINY, "x.tkv"), (["contrib", "--trials", "2"], "c.json")]
    )
    @pytest.mark.parametrize("parent", ["missing", "a-file"])
    def test_an_output_file_in_no_directory_names_the_output(
        self, tmp_path, capsys, argv, name, parent
    ):
        # not the temporary file the output is staged in
        if parent == "a-file":
            (tmp_path / parent).write_text("")
        out = str(tmp_path / parent / name)
        code, _, err = run_cli(capsys, *argv, "--out", out)
        assert code == 1
        error = json.loads(err)
        expected = "NotADirectoryError" if parent == "a-file" else "FileNotFoundError"
        assert error["error"] == expected
        assert error["message"].endswith(f": {out!r}")
        assert os.listdir(tmp_path) == ([parent] if parent == "a-file" else [])

    def test_a_kernel_past_the_sequence_plans_like_kernel_2n_plus_1(
        self, trace_file, tmp_path, capsys
    ):
        # every pooling window of kernel >= 2N + 1 already spans [0, N)
        plans = {}
        for kernel in (2 * 96 + 1, 10**20 + 1):
            out = tmp_path / str(kernel)
            code, _, err = run_cli(
                capsys, "all", "--trace", str(trace_file), *PIPE_ARGS, "--kernel", str(kernel),
                "--out", str(out),
            )
            assert code == 0, err
            plans[kernel] = {p.name: p.read_bytes() for p in sorted(out.glob("plans_*.json"))}
        assert len(plans[193]) == 2
        assert plans[193] == plans[10**20 + 1]

    @pytest.mark.parametrize("window", ["0", "-4"])
    def test_eval_window_is_checked_as_the_window(self, trace_file, tmp_path, capsys, window):
        plans = tmp_path / "plans"
        argv = ["--trace", str(trace_file), *PLAN_ARGS]
        assert run_cli(capsys, "compress", *argv, "--out", str(plans))[0] == 0
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(trace_file), "--window", window,
            "--plans", str(plans / "plans_task-kv_0.5.json"), "--out", str(out),
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "ParameterError", "message": f"window_len {window} outside [1, 96]"
        }

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--policy", "full"), ("--budget", "0.7"), ("--beta", "0.5"), ("--m-top", "2"),
            ("--top-t", "8"), ("--kernel", "5"), ("--sinks", "99"), ("--recents", "3"),
            ("--seed", "4"), ("--window", "8"),
        ],
    )
    def test_eval_rejects_flags_it_does_not_read(
        self, trace_file, tmp_path, capsys, flag, value
    ):
        # --seed seeds only a synthetic trace, and --window only sets the
        # default decode rows, which --decode-queries overrides here
        plans = tmp_path / "plans"
        argv = ["--trace", str(trace_file), *PLAN_ARGS]
        assert run_cli(capsys, "compress", *argv, "--out", str(plans))[0] == 0
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "eval", "--trace", str(trace_file), "--decode-queries", "8", flag, value,
            "--plans", str(plans / "plans_task-kv_0.5.json"), "--out", str(out),
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "ParameterError", "message": f"eval does not read {flag}"
        }
        assert not (out / "fidelity.json").exists()

    def test_eval_accepts_a_shared_config_file(self, trace_file, tmp_path, capsys):
        plans = tmp_path / "plans"
        argv = ["--trace", str(trace_file), *PLAN_ARGS]
        assert run_cli(capsys, "compress", *argv, "--out", str(plans))[0] == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "policies": ["task-kv"], "budget_ratios": [0.5], "beta": 0.375, "top_m": 3,
            "top_t": 96, "window_len": 16, "kernel": 3, "sinks": 4, "recents": 8, "seed": 1,
            "decode_queries": 8,
        }))
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "eval", "--config", str(config), "--trace", str(trace_file),
            "--plans", str(plans / "plans_task-kv_0.5.json"), "--out", str(out),
        )
        assert code == 0, err
        assert (out / "fidelity.json").exists()


    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("compress", "--decode-queries", "5"),
            ("compress", "--seed", "4"),
            ("pca", "--seed", "4"),
            ("pca", "--policy", "no-cache"),
            ("pca", "--budget", "0.1"),
            ("pca", "--sinks", "999"),
            ("pca", "--recents", "-5"),
            ("pca", "--decode-queries", "7"),
            ("pca", "--kernel", "5"),
            # a trace file is not drawn, so the synthetic-trace flags go unread
            ("compress", "--shape", "9,9,9,9"),
            ("compress", "--needle-pos", "3"),
            ("pca", "--planted", "1"),
            ("pca", "--needle-strength", "2"),
            ("all", "--profile", "uniform-random"),
            ("all", "--shape", "1,8,1024,32"),
            ("all", "--spread", "0.5"),
            ("all", "--tail", "4"),
        ],
    )
    def test_compress_and_pca_reject_flags_they_do_not_read(
        self, trace_file, tmp_path, capsys, command, flag, value
    ):
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, command, "--trace", str(trace_file), flag, value, "--out", str(out)
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "ParameterError", "message": f"{command} does not read {flag}"
        }
        assert not out.exists()

    # each synthetic-trace flag under a profile kind that does not read it
    OTHER_KIND_FLAGS = [
        ("uniform-random", "--planted", "3"),
        ("uniform-random", "--spread", "9"),
        ("uniform-random", "--needle-pos", "2"),
        ("uniform-random", "--needle-strength", "4"),
        ("uniform-random", "--tail", "3"),
        ("clustered-heads", "--needle-pos", "2"),
        ("clustered-heads", "--needle-strength", "4"),
        ("clustered-heads", "--tail", "3"),
        ("planted-needle", "--planted", "3"),
        ("planted-needle", "--spread", "9"),
    ]

    @pytest.mark.parametrize("command", ["gen", "all"])
    @pytest.mark.parametrize("kind, flag, value", OTHER_KIND_FLAGS)
    def test_a_drawn_trace_rejects_another_profile_kinds_flags(
        self, tmp_path, capsys, command, kind, flag, value
    ):
        out = tmp_path / ("t.tkv" if command == "gen" else "out")
        argv = [] if command == "gen" else ["--policy", "full", "--budget", "0.5"]
        code, _, err = run_cli(
            capsys, command, "--profile", kind, "--shape", "1,4,16,4", *argv, flag, value,
            "--out", str(out),
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "ParameterError", "message": f"profile {kind} does not read {flag}"
        }
        assert not out.exists()

    def test_a_config_files_other_profile_keys_stay_accepted(self, tmp_path, capsys):
        # like every key a command does not read, a shared config file may hold them
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"profile": {
            "kind": "uniform-random", "seed": 4, "planted": 3, "spread": 9.0,
            "needle_position": 2, "needle_strength": 4.0, "tail_len": 3,
        }}))
        traces = {}
        for name, extra in (("file", ["--config", str(config)]), ("flags", ["--seed", "4"])):
            path = tmp_path / f"{name}.tkv"
            code, _, err = run_cli(
                capsys, "gen", *extra, "--profile", "uniform-random", "--shape", "1,4,16,4",
                "--out", str(path),
            )
            assert code == 0, err
            traces[name] = path.read_bytes()
        assert traces["file"] == traces["flags"]

    def test_compress_and_pca_accept_a_shared_config_file(self, trace_file, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "policies": ["task-kv"], "budget_ratios": [0.5], "beta": 0.375, "top_m": 3,
            "kernel": 3, "sinks": 4, "recents": 8, "decode_queries": 8,
            "profile": {"kind": "uniform-random", "seed": 3}, "shape": [9, 9, 9, 9],
        }))
        for command in ("compress", "pca"):
            out = tmp_path / command
            code, _, err = run_cli(
                capsys, command, "--config", str(config), "--trace", str(trace_file),
                "--out", str(out),
            )
            assert code == 0, err

    def test_pca_does_not_check_a_config_files_kernel(self, trace_file, tmp_path, capsys):
        # pca pools nothing: a shared config's kernel, even one planning rejects, is not read
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"kernel": 4}))
        argv = ["--config", str(config), "--trace", str(trace_file)]
        code, _, err = run_cli(capsys, "pca", *argv, "--out", str(tmp_path / "pca"))
        assert code == 0, err
        code, _, err = run_cli(capsys, "compress", *argv, "--out", str(tmp_path / "compress"))
        assert code == 1
        assert json.loads(err)["message"].startswith("kernel")

    @pytest.mark.parametrize("count", ["0", "97"])
    @pytest.mark.parametrize("command", ["all", "eval"])
    def test_decode_queries_outside_one_to_n_fail(
        self, trace_file, tmp_path, capsys, command, count
    ):
        # the trace has N = 96 rows; a count past N is not clamped to it
        argv = ["--trace", str(trace_file), "--decode-queries", count]
        if command == "eval":
            plans = tmp_path / "plans"
            assert run_cli(capsys, "compress", *argv[:2], *PLAN_ARGS, "--out", str(plans))[0] == 0
            argv += ["--plans", str(plans / "plans_task-kv_0.5.json")]
        else:
            argv += PLAN_ARGS
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
        assert code == 1
        assert json.loads(err) == {
            "error": "ParameterError", "message": f"decode_queries {count} outside [1, 96]"
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value, error, message",
        [
            ("all", "--decode-queries", "97", "ParameterError",
             "decode_queries 97 outside [1, 96]"),
            ("compress", "--top-t", "0", "ParameterError", "top_t must be >= 1, got 0"),
            ("pca", "--window", "0", "ParameterError", "window_len 0 outside [1, 96]"),
            ("eval", "--plans", "{}", "PlanFormatError", "not a plans file"),
        ],
    )
    def test_a_rejected_run_leaves_no_out_directory(
        self, trace_file, tmp_path, capsys, command, flag, value, error, message
    ):
        # the run's parameters are checked before --out is created
        if flag == "--plans":
            not_plans = tmp_path / "not-plans.json"
            not_plans.write_text(value)
            value = str(not_plans)
        argv = ["--trace", str(trace_file)]
        if command != "eval":
            argv += CLASSIFY_ARGS if command == "pca" else PLAN_ARGS
        argv += [flag, value]
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
        assert code == 1
        reported = json.loads(err)
        assert reported["error"] == error and message in reported["message"]
        assert not out.exists()


class TestOutputSchema:
    """Every record a command writes holds its record type's fields, by name
    and in order, so a field added to a type reaches disk unedited."""

    ARGS = ["--budget", "0.5", "--beta", "0.375", "--m-top", "3", "--window", "16",
            "--kernel", "3", "--sinks", "4", "--recents", "8"]

    @pytest.mark.parametrize("policy", [p.value for p in PolicyKind])
    def test_written_records_are_their_types_fields(self, trace_file, tmp_path, capsys, policy):
        argv = ["--trace", str(trace_file), "--policy", policy, *self.ARGS]
        all_flags = ["--seed", "3", "--contrib-trials", "2"]
        for command, extra in (("all", all_flags), ("compress", [])):
            code, _, err = run_cli(capsys, command, *argv, *extra, "--out", str(tmp_path / command))
            assert code == 0, err
        code, _, err = run_cli(
            capsys, "contrib", "--seed", "3", "--trials", "2", "--out", str(tmp_path / "contrib")
        )
        assert code == 0, err
        report = json.loads((tmp_path / "all" / "report.json").read_text())

        cfg = _config_from(build_parser().parse_args(["all", *argv, *all_flags]))
        assert report["config"] == _as_json(dataclasses.asdict(cfg))
        assert report["schedule"] == _as_json(
            dataclasses.asdict(heterogeneous_schedule(8, 0.375, 3, 1))
        )
        suite = _as_json(dataclasses.asdict(verify_bound_suite(3, 2)))
        assert list(suite) == [f.name for f in dataclasses.fields(BoundSuiteReport)]
        assert report["contribution"] == suite
        assert json.loads((tmp_path / "contrib" / "contribution.json").read_text()) == suite

        tokens = 0
        for command in ("all", "compress"):
            payload = json.loads((tmp_path / command / f"plans_{policy}_0.5.json").read_text())
            for layer in payload["layers"]:
                plan = BudgetPlan.from_json_dict(layer)
                names = [f.name for f in dataclasses.fields(BudgetPlan)]
                if policy != "compressed-cache":
                    names.remove("per_head_groups")
                assert list(layer) == names
                assert _as_json(plan.to_json_dict()) == layer
                tokens += plan.retained_tokens() if command == "compress" else 0
        memory = footprint(tokens, read_trace(trace_file).header)._asdict()
        assert list(memory) == list(MemoryFootprint._fields)
        assert report["policies"][0]["memory"] == _as_json(memory)
        rows = json.loads((tmp_path / "compress" / "memory.json").read_text())["memory"]
        assert rows == [{"policy": policy, "budget_ratio": 0.5, **_as_json(memory)}]

    def test_a_field_added_to_a_plan_reaches_its_plans_layer(self):
        @dataclasses.dataclass
        class LoggedPlan(BudgetPlan):
            note: str = ""

        plan = LoggedPlan(
            0, PolicyKind.FULL, 8, 0, 0, 0, False, [HeadClass.NON_HETEROGENEOUS],
            [np.array([[0, 4]])], note="kept"
        )
        layer = _as_json(plan.to_json_dict())
        assert list(layer)[-1] == "note" and layer["note"] == "kept"
        assert LoggedPlan.from_json_dict(layer).note == "kept"

    def test_a_metric_added_to_fidelity_reaches_its_records(self):
        @dataclasses.dataclass
        class WithMass(FidelityReport):
            per_head_mass: np.ndarray = _per_head("retained_mass", "mean_mass")

        fid = WithMass(4, np.zeros((1, 2)), np.ones((1, 2)), np.full((1, 2), 0.5))
        assert list(fid.to_json_dict()) == [
            "decode_queries", "mean_l2", "mean_cosine", "mean_mass",
            "per_head_l2", "per_head_cosine", "per_head_mass",
        ]
        assert fid.summary()["mean_mass"] == 0.5
        assert fid.head_cell(0, 1) == {
            "l2_error": 0.0, "cosine_similarity": 1.0, "retained_mass": 0.5
        }
