"""The runtime dependency stays numpy only: a whole `semkv all` run imports
nothing else from outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Lists the top-level modules a run imports after interpreter startup that
# are neither standard library, numpy nor semkv and come from a file. numpy's
# compiled-extension stubs (such as `cython_runtime`) have no file.
PROBE = """
import json, sys
before = set(sys.modules)
from semkv.cli import main
code = main(sys.argv[1:])
top = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(
    name for name in top - set(sys.stdlib_module_names) - {"numpy", "semkv"}
    if getattr(sys.modules.get(name), "__file__", None) is not None
)
print(json.dumps({"code": code, "foreign": foreign}))
"""


def test_a_full_run_imports_only_numpy_beyond_the_standard_library(tmp_path):
    argv = [
        "all", "--profile", "clustered-heads", "--shape", "1,8,96,8", "--planted", "2",
        "--policy", "task-kv,streaming", "--budget", "0.5", "--window", "16",
        "--sinks", "4", "--recents", "8", "--kernel", "3", "--contrib-trials", "2",
        "--out", str(tmp_path / "out"),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "foreign": []}
