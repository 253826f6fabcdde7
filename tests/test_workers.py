"""Head visits made by forked worker processes.

`harness.head_workers` is patched to force one worker (every visit made
in-process) or two. Every output file of `all`, `compress`, `eval` and
`pca` is the same bytes either way, from a trace file, a drawn `--profile`
trace and an in-memory trace; a failure is the same one-line JSON error,
and leaves no process running and nothing new in `--out`.
"""

import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import semkv.harness as harness
import semkv.trace as trace_module
from semkv.cli import main
from semkv.errors import ParameterError, TraceTruncationError
from semkv.harness import (
    RunConfig,
    compress_run,
    export_report,
    fidelity_eval,
    run_all,
    worker_count,
)
from semkv.trace import TraceReader, gen_synthetic_trace, read_trace
import conftest
import test_harness

ROOT = Path(__file__).resolve().parents[1]
SHAPE = "2,6,700,16"  # two key blocks per head
DRAWN = ["--profile", "clustered-heads", "--seed", "11", "--shape", SHAPE, "--spread", "0.1"]
PLAN = [
    "--policy", "full,task-kv,streaming,uniform-topk,no-cache,compressed-cache",
    "--budget", "0.3,0.6", "--beta", "0.5", "--m-top", "2", "--top-t", "64",
    "--sinks", "8", "--recents", "32",
]
CLASSIFY = ["--beta", "0.5", "--m-top", "2", "--top-t", "64"]
PLANS = ["plans_task-kv_0.6.json", "plans_streaming_0.3.json", "plans_compressed-cache_0.6.json"]


# The threads that ran beside each fork, found in the parent just after it,
# where Python 3.12 warns of a fork from a multi-threaded process. OpenBLAS
# ends its own threads in its fork handler, at any BLAS setting, but one of
# them can still be listed, exiting, just after the fork.
FORKED_BESIDE = []


def threads_beside_fork(wait=1.0) -> set[int]:
    """The ids of this process's threads but the main one: every Python
    thread, and every OS thread still listed `wait` seconds from now."""
    main = threading.main_thread().native_id
    python = {t.native_id for t in threading.enumerate()} - {main}
    deadline = time.monotonic() + wait
    while not python and (others := {int(t) for t in os.listdir("/proc/self/task")} - {main}):
        if time.monotonic() >= deadline:
            return others
        time.sleep(0.01)
    return python


os.register_at_fork(after_in_parent=lambda: FORKED_BESIDE.append(threads_beside_fork()))


@pytest.fixture(autouse=True)
def _forks_from_one_thread():
    FORKED_BESIDE.clear()
    yield
    assert not any(FORKED_BESIDE), f"threads {FORKED_BESIDE} ran beside a fork"


class TestForkCheck:
    @staticmethod
    def running_thread():
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        return thread, done

    def test_a_python_thread_fails_at_once(self):
        thread, done = self.running_thread()
        try:
            assert threads_beside_fork(wait=0) == {thread.native_id}
        finally:
            done.set()
            thread.join()

    def test_an_os_thread_still_listed_after_the_wait_fails(self, monkeypatch):
        # as if Python did not know of it, as of a BLAS thread; BLAS's own
        # threads run too, away from a fork
        thread, done = self.running_thread()
        monkeypatch.setattr(threading, "enumerate", lambda: [threading.main_thread()])
        try:
            assert thread.native_id in threads_beside_fork(wait=0.05)
        finally:
            done.set()
            thread.join()

    def test_a_thread_joined_after_the_fork_fails(self):
        thread, done = self.running_thread()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # Python 3.12's
            pid = os.fork()
        if pid == 0:
            os._exit(0)
        done.set()
        thread.join()
        os.waitpid(pid, 0)
        assert FORKED_BESIDE == [{thread.native_id}]
        FORKED_BESIDE.clear()


def force_workers(monkeypatch, count):
    monkeypatch.setattr(harness, "head_workers", lambda visits: min(count, visits))


def children() -> list[str]:
    """The process ids of this process's children, reaped or not."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as f:
                pids += f.read().split()
        except FileNotFoundError:  # a thread that has just ended
            pass
    return pids


def files(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """A trace file and its compressed plans."""
    out = tmp_path_factory.mktemp("workers")
    assert main(["gen", *DRAWN, "--out", str(out / "t.tkv")]) == 0
    assert main(["compress", "--trace", str(out / "t.tkv"), *PLAN, "--out", str(out)]) == 0
    return out


def command_argv(command, trace_dir, extra=()):
    source = ["--trace", str(trace_dir / "t.tkv")]
    if command == "eval":
        return ["eval", *source, *(f for p in PLANS for f in ("--plans", str(trace_dir / p)))]
    return [command, *source, *(CLASSIFY if command == "pca" else PLAN), *extra]


def outputs_by_workers(monkeypatch, tmp_path, capsys, argv) -> list[dict]:
    """`argv`'s output files with one worker, then with two."""
    seen = []
    for count in (1, 2):
        force_workers(monkeypatch, count)
        out = tmp_path / f"out{count}"
        code = main([*argv, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert children() == []
        seen.append(files(out))
    return seen


class TestWorkerCount:
    CPUS = 2

    @pytest.mark.parametrize(
        "environ, expected",
        [
            ({}, 1),  # OpenBLAS runs one thread per CPU: no CPU is left free
            ({"OPENBLAS_NUM_THREADS": "1"}, 2),
            ({"OMP_NUM_THREADS": "1"}, 2),
            ({"GOTO_NUM_THREADS": "1"}, 2),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),  # OpenBLAS's own first
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),  # 0 is no setting
            ({"OPENBLAS_NUM_THREADS": "x"}, 1),
            ({"OPENBLAS_NUM_THREADS": "4"}, 1),
            ({"MKL_NUM_THREADS": "1"}, 1),  # not read by OpenBLAS
        ],
    )
    def test_one_worker_per_cpu_that_blas_leaves_free(self, environ, expected):
        assert worker_count(64, self.CPUS, environ, True) == expected

    def test_capped_by_the_head_visits(self):
        one = {"OPENBLAS_NUM_THREADS": "1"}
        assert worker_count(3, 8, one, True) == 3
        assert worker_count(1, 8, one, True) == 1
        assert worker_count(8, 4, {"OMP_NUM_THREADS": "2"}, True) == 2

    def test_one_cpu_or_no_fork_is_in_process(self):
        one = {"OPENBLAS_NUM_THREADS": "1"}
        assert worker_count(64, 1, one, True) == 1
        assert worker_count(64, 8, one, False) == 1

    @pytest.mark.parametrize("threads", [None, "1"])
    def test_the_run_applies_the_rule_to_this_process(self, monkeypatch, threads):
        for name in harness._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        if threads:
            monkeypatch.setenv("OMP_NUM_THREADS", threads)
        cpus = len(os.sched_getaffinity(0))
        assert conftest.head_workers(64) == worker_count(64, cpus, os.environ, True)

    @pytest.mark.parametrize("threads", [None, "1"])
    def test_a_platform_without_cpu_affinity(
        self, trace_dir, tmp_path, monkeypatch, capsys, threads
    ):
        # as on macOS: the machine's CPU count is used, and commands run
        for name in harness._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        if threads:
            monkeypatch.setenv("OMP_NUM_THREADS", threads)
        monkeypatch.delattr(os, "sched_getaffinity")
        expected = worker_count(64, os.cpu_count(), os.environ, True)
        assert conftest.head_workers(64) == expected >= 1
        monkeypatch.setattr(harness, "head_workers", conftest.head_workers)
        out = tmp_path / "out"
        code = main([*command_argv("compress", trace_dir), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert children() == []
        assert files(out) == {
            name: (trace_dir / name).read_bytes() for name in files(out)
        }

    def test_a_platform_without_fork(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "fork")
        assert conftest.head_workers(64) == 1

    def test_an_in_process_run_loads_no_multiprocessing(self, trace_dir, tmp_path):
        script = (
            "import sys\nfrom semkv.cli import main\n"
            "assert main(sys.argv[1:]) == 0\nprint('multiprocessing' in sys.modules)"
        )
        env = {k: v for k, v in os.environ.items() if k not in harness._BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        argv = command_argv("pca", trace_dir) + ["--out", str(tmp_path / "out")]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-1] == "False"

    def test_a_process_running_another_thread_is_not_forked(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        done = threading.Event()
        waiting = threading.Thread(target=done.wait)
        waiting.start()
        try:
            assert conftest.head_workers(64) == 1
        finally:
            done.set()
            waiting.join()


class TestSameBytes:
    @pytest.mark.parametrize(
        "command, extra",
        [("all", ()), ("all", ("--decode-queries", "40", "--contrib-trials", "3")),
         ("compress", ()), ("eval", ()), ("pca", ())],
        ids=["all", "all-decode-40", "compress", "eval", "pca"],
    )
    def test_trace_file(self, trace_dir, tmp_path, monkeypatch, capsys, command, extra):
        one, two = outputs_by_workers(
            monkeypatch, tmp_path, capsys, command_argv(command, trace_dir, extra)
        )
        assert one == two and one
        if command == "all":  # a cell infeasible, the others planned
            assert b'"infeasible"' in one["report.json"]

    @pytest.mark.parametrize("command", ["all", "compress", "pca"])
    def test_drawn_trace(self, tmp_path, monkeypatch, capsys, command):
        # compress and pca read an unlinked temporary file, all its saved trace.tkv
        argv = [command, *DRAWN, *(CLASSIFY if command == "pca" else PLAN)]
        one, two = outputs_by_workers(monkeypatch, tmp_path, capsys, argv)
        assert one == two and one
        if command == "all":
            assert "trace.tkv" in one

    @pytest.mark.parametrize("source", ["memory", "file", "bytes"])
    def test_library_sources(self, trace_dir, monkeypatch, source):
        cfg = RunConfig(
            policies=tuple(PLAN[1].split(",")), budget_ratios=(0.3, 0.6), beta=0.5, top_m=2,
            top_t=64, sinks=8, recents=32, contrib_trials=2,
        )
        path = trace_dir / "t.tkv"
        seen = []
        for count in (1, 2):
            force_workers(monkeypatch, count)
            with TraceReader(path if source == "file" else path.read_bytes()) as reader:
                trace = read_trace(path) if source == "memory" else reader
                report, result = run_all(cfg, trace, return_result=True)
                planned = compress_run(cfg, trace).plans
                cell = ("compressed-cache", 0.6)
                fidelity = fidelity_eval(trace, result.plans[cell], 24).to_json_dict()
            buf = io.BytesIO()
            export_report(report, "json", buf)
            plans = {c: [p.to_json_dict() for p in kept] for c, kept in planned.items()}
            seen.append((buf.getvalue(), plans, fidelity))
            assert children() == []
        assert seen[0] == seen[1]

    def test_report_fixture(self, monkeypatch):
        force_workers(monkeypatch, 2)
        cfg = RunConfig(**test_harness.TestReportFixture.FIXTURE_CONFIG)
        buf = io.BytesIO()
        export_report(run_all(cfg, gen_synthetic_trace(cfg.profile, cfg.shape)), "json", buf)
        assert hashlib.sha256(buf.getvalue()).hexdigest() == test_harness.REPORT_FIXTURE_SHA256

    @pytest.mark.parametrize("drawn", [False, True], ids=["file", "drawn"])
    def test_workers_check_each_value_once(self, trace_dir, tmp_path, monkeypatch, drawn):
        """Each value is checked once: by the worker that reads its head
        from a file, or as it is drawn, before the workers map the trace."""
        force_workers(monkeypatch, 2)
        log = tmp_path / "checked"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        check = trace_module._require_finite

        def logged(a, *args):
            os.write(fd, b"%d\n" % a.size)  # from whichever process checks
            return check(a, *args)

        monkeypatch.setattr(trace_module, "_require_finite", logged)
        source = DRAWN if drawn else ["--trace", str(trace_dir / "t.tkv")]
        try:
            assert main(["all", *source, *PLAN, "--out", str(tmp_path / "out")]) == 0
        finally:
            os.close(fd)
        checked = sum(map(int, log.read_text().split()))
        r, n, seq_len, dim = map(int, SHAPE.split(","))
        assert checked == r * n * 3 * seq_len * dim


class TestFailures:
    """A failed run prints the in-process run's one-line JSON error, joins
    every worker and leaves `--out` as it was."""

    @staticmethod
    def failed(tmp_path, capsys, argv) -> dict:
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        (out / "kept.txt").write_text("before")
        code, err = main([*argv, "--out", str(out)]), capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert children() == []
        assert files(out) == {"kept.txt": b"before"}
        return json.loads(err)

    def errors_by_workers(self, monkeypatch, tmp_path, capsys, argv) -> list[dict]:
        seen = []
        for count in (1, 2):
            force_workers(monkeypatch, count)
            seen.append(self.failed(tmp_path, capsys, argv))
        return seen

    @pytest.mark.parametrize("command", ["all", "compress", "eval", "pca"])
    def test_nan_in_the_last_head(self, trace_dir, tmp_path, monkeypatch, capsys, command):
        trace = read_trace(trace_dir / "t.tkv")
        data = trace.data.copy()
        data[-1, -1, 2, -1, -1] = np.inf
        data[-1, -1, 0, 0, 0] = np.nan
        (tmp_path / "t.tkv").write_bytes(trace.header.pack() + data.tobytes())
        for plans in PLANS:
            (tmp_path / plans).write_bytes((trace_dir / plans).read_bytes())
        one, two = self.errors_by_workers(
            monkeypatch, tmp_path, capsys, command_argv(command, tmp_path)
        )
        assert one == two == {
            "error": "TraceFormatError", "message": "trace contains NaN/Inf entries"
        }

    def test_an_infeasible_run(self, trace_dir, tmp_path, monkeypatch, capsys):
        argv = ["all", "--trace", str(trace_dir / "t.tkv"), *CLASSIFY]
        argv += ["--policy", "task-kv", "--budget", "0.01"]
        one, two = self.errors_by_workers(monkeypatch, tmp_path, capsys, argv)
        assert one == two and one["error"] == "InfeasibleBudgetError"

    @pytest.mark.parametrize("command, visit", [
        ("all", "_visit_head"), ("compress", "_visit_head"), ("pca", "_visit_head"),
        ("eval", "_score_head"),
    ])
    def test_a_worker_that_dies(self, trace_dir, tmp_path, monkeypatch, capsys, command, visit):
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(harness, visit, lambda *args: os._exit(1))
        error = self.failed(tmp_path, capsys, command_argv(command, trace_dir))
        assert error["error"] == "WorkerError"
        assert "worker process ended" in error["message"]

    def test_the_first_error_in_head_order_is_reported(
        self, trace_dir, tmp_path, monkeypatch, capsys
    ):
        data = read_trace(trace_dir / "t.tkv").data
        heads = {data[r, h, 0, 0, 0]: (r, h) for r in range(len(data)) for h in range(len(data[r]))}
        visit = harness._visit_head

        def failing(*args):
            where = heads[args[-1][0, 0, 0]]
            if where == (0, 1):
                time.sleep(0.5)  # fails after the later visit below
            if where in ((0, 1), (1, 4)):
                raise ParameterError(f"visit {where}")
            return visit(*args)

        monkeypatch.setattr(harness, "_visit_head", failing)
        argv = command_argv("all", trace_dir)
        one, two = self.errors_by_workers(monkeypatch, tmp_path, capsys, argv)
        assert one == two == {"error": "ParameterError", "message": "layer 0: visit (0, 1)"}

    def test_a_truncation_error_crosses_processes(self):
        # pickled, as a worker's error is, it comes back whole
        error = pickle.loads(pickle.dumps(TraceTruncationError(10, 4, "header")))
        assert type(error) is TraceTruncationError
        assert (str(error), error.expected, error.actual) == (
            "truncated header: expected 10 bytes, got 4", 10, 4
        )

    def test_workers_end_with_a_killed_parent(self, trace_dir, tmp_path):
        pids = tmp_path / "pids"
        script = f"""
import os, sys, time
import semkv.harness as harness
from semkv.cli import main

harness.head_workers = lambda visits: min(2, visits)

def stuck(*args):
    with open({str(pids)!r}, "a") as f:
        f.write(f"{{os.getpid()}}\\n")
    time.sleep(120)

harness._visit_head = stuck
main(sys.argv[1:])
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        argv = command_argv("pca", trace_dir) + ["--out", str(tmp_path / "out")]
        proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env)
        try:
            deadline = time.monotonic() + 60
            while not (pids.exists() and len(pids.read_text().split()) == 2):
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        workers = pids.read_text().split()
        deadline = time.monotonic() + 30
        while any(map(running, workers)):
            assert time.monotonic() < deadline, "a worker outlived its parent"
            time.sleep(0.05)


def running(pid: str) -> bool:
    """Whether process `pid` is alive: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
