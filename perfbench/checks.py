"""Correctness checks on the outputs of one measured command.

`check_all` returns (attempted, failed, problems), counted in cells: one
cell is one (policy, budget) pair of `semkv all`. A nonzero exit code, a
missing file, a failed global check or a bound-suite violation fails every
cell of the command.
"""

from __future__ import annotations

import hashlib
import json
import math
import os


def sha256_of(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def plan_filename(policy: str, ratio: float) -> str:
    return f"plans_{policy}_{ratio:g}.json"


def check_all(rc, out_dir: str, policies: list[str], budgets: list[float], trials: int):
    """Checks on the report, CSVs and plans that `semkv all` writes.

    `trials` is the `--contrib-trials` count; when nonzero the report must
    hold a bound-suite block with that many trials and no violations.
    """
    cells = [(p, b) for p in policies for b in budgets]
    attempted = len(cells)
    if rc != 0:
        return attempted, attempted, [f"exit code {rc}"]
    expected = ["report.json", "report.csv", "pca.csv"] + [
        plan_filename(p, b) for p, b in cells
    ]
    missing = [name for name in expected if not os.path.isfile(os.path.join(out_dir, name))]
    if missing:
        return attempted, attempted, [f"missing outputs: {', '.join(missing)}"]
    with open(os.path.join(out_dir, "report.json")) as f:
        report = json.load(f)

    trace = report["trace"]
    n_seq, n_heads = trace["seq_len"], trace["num_heads"]
    classes = report["classifications"]
    counts = report["schedule"]["per_layer_counts"]
    het_counts = [sum(c == "heterogeneous" for c in layer) for layer in classes]
    if het_counts != counts:
        return attempted, attempted, [
            f"heterogeneous counts {het_counts} != schedule {counts}"
        ]
    if trials:
        contribution = report.get("contribution") or {}
        if contribution.get("trials") != trials or contribution.get("violations") != 0:
            return attempted, attempted, [
                f"bound suite: {contribution.get('trials')} trials (asked for {trials}), "
                f"{contribution.get('violations')} violations"
            ]

    entries = {(e["policy"], e["budget_ratio"]): e for e in report["policies"]}
    problems = []
    failed_cells = set()
    for cell in cells:
        policy, ratio = cell
        entry = entries.get(cell)
        if entry is None:
            problems.append(f"{cell}: no report entry")
            failed_cells.add(cell)
            continue
        for problem in _cell_problems(entry, classes, n_seq, n_heads):
            problems.append(f"{policy}@{ratio:g}: {problem}")
            failed_cells.add(cell)
    return attempted, len(failed_cells), problems


def _cell_problems(entry, classes, n_seq, n_heads):
    policy, ratio = entry["policy"], entry["budget_ratio"]
    fidelity = entry["fidelity"]
    per_head = fidelity["per_head"]
    if policy == "full" and (fidelity["mean_l2"] != 0.0 or fidelity["mean_cosine"] != 1.0):
        yield f"mean L2 {fidelity['mean_l2']!r}, cosine {fidelity['mean_cosine']!r}"
    if policy == "task-kv":
        for r, layer in enumerate(per_head):
            for h, cell in enumerate(layer):
                if classes[r][h] == "heterogeneous" and cell["l2_error"] != 0.0:
                    yield f"heterogeneous head ({r}, {h}) has L2 {cell['l2_error']!r}"
    if policy != "full":
        # same expression as the allocator's layer budget
        budget = math.floor(ratio * n_seq * n_heads)
        for r, layer in enumerate(per_head):
            retained = sum(cell["retained_tokens"] for cell in layer)
            if retained > budget:
                yield f"layer {r} retains {retained} > budget {budget}"
    total = sum(cell["retained_tokens"] for layer in per_head for cell in layer)
    if entry["memory"]["tokens_retained"] != total:
        yield f"memory tokens {entry['memory']['tokens_retained']} != per-head sum {total}"
