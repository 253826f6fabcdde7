"""The benchmark's span tracer still wraps the package: a traced `semkv all` runs.

`perfbench/tracer.py` rebinds semkv's public functions by name and wraps
`AttentionInputs.__post_init__`, so an API change that breaks traced
benchmark runs fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np

import semkv.cli
from semkv.linalg import AttentionInputs
from test_workers import force_workers

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL = [
    "all", "--profile", "clustered-heads", "--shape", "2,8,128,8",
    "--policy", "task-kv,streaming", "--budget", "0.5", "--window", "16",
    "--sinks", "4", "--recents", "8", "--top-t", "64", "--kernel", "3",
    "--contrib-trials", "2",
]


def test_traced_all_runs_and_records_layer_steps(tmp_path, capsys):
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = semkv.cli.main([*ALL, "--out", str(tmp_path / "out")])
        # `all` builds no `AttentionInputs`; the wrapped constructor still runs
        AttentionInputs(np.ones((1, 2)), np.ones((3, 2)), np.ones((3, 2)))
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    names = [span[0] for span in tracer.spans]
    assert names.count("harness.layer_step") == 2
    assert names.count(tracing.POST_INIT) == 1
    metrics = tracing.command_metrics(tracer.spans, plans_bytes=0)
    # one window-score pass per head, in its one visit: 2 layers of 8 heads
    assert names.count("separator.column_scores") == 16
    # the traced separator names still resolve, so their times are not 0
    assert metrics["separator.profiles_s"] > 0
    assert metrics["contribution.trials"] == 2


def test_traced_all_records_each_layer_step_when_workers_visit(tmp_path, capsys, monkeypatch):
    # the visits are made and traced in the workers; each layer is planned here
    force_workers(monkeypatch, 2)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = semkv.cli.main([*ALL, "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    names = [span[0] for span in tracer.spans]
    assert names.count("harness.layer_step") == 2
    assert names.count("separator.build_layer_profiles") == 2
