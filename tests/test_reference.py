"""The pipeline against the dense reference of `reference.py`.

`compress_run`, `run_all` and `score_plans` must give the reference's head
classes, plans (as position and group sets) and infeasible cells exactly,
each layer's semantic vectors and distances within 16 float64 epsilons of
its longest vector, each head's decode L2 within 1e-9 relative plus 1e-12,
and its cosine within 1e-14.
"""

import ast
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from semkv.allocator import PolicyKind
from semkv.harness import RunConfig, compress_run, run_all, score_plans
from semkv.trace import SyntheticProfile, gen_synthetic_trace

L2_RTOL, L2_ATOL, COSINE_ATOL = 1e-9, 1e-12, 1e-14
# semantic vectors and distances, in float64 epsilons of the layer's longest vector
VECTOR_EPS = 16


def assert_scores_match(l2, cosine, expected):
    """L2 and cosine arrays against the reference's (L2, cosine) pairs of the same shape."""
    want_l2, want_cosine = np.moveaxis(np.array(expected), -1, 0)
    assert np.all(np.abs(l2 - want_l2) <= L2_RTOL * want_l2 + L2_ATOL)
    assert np.all(np.abs(cosine - want_cosine) <= COSINE_ATOL)


def reference_fidelity(block, decode_queries, head) -> tuple[float, float]:
    """The reference's (L2, cosine) of a head's (3, N, d) block under a `HeadPlan`."""
    groups = [(a, b) for a, b in head.groups.tolist()]
    return reference.fidelity(block.astype(np.float64), decode_queries, head.retained, groups)


def keep_sets(plans) -> list:
    """Each layer's (positions, groups) per head of a cell's plans."""
    return [
        [
            (head.retained.tolist(), [(a, b) for a, b in head.groups.tolist()])
            for head in map(plan.head_plan, range(len(plan.per_head_runs)))
        ]
        for plan in plans
    ]


def assert_run_matches_reference(config: RunConfig, trace):
    """`compress_run`, `run_all` and `score_plans` of `config` over `trace`
    against `reference_run`, each layer's semantic vectors and distances
    and each head's retained tokens included."""
    window = min(config.window_len, trace.seq_len)
    decode = config.decode_queries or window
    cells = [
        reference.Cell(PolicyKind(policy).value, ratio, config.sinks, config.recents, window)
        for policy in config.policies
        for ratio in config.budget_ratios
    ]
    expected = reference.reference_run(
        trace.data.astype(np.float64), cells, config.beta, config.top_m, config.top_t,
        window, config.kernel, decode,
    )
    planned = {(cell.policy, cell.ratio): keeps for cell, keeps in expected.keeps.items()}
    scores = {(cell.policy, cell.ratio): s for cell, s in expected.scores.items()}
    compressed = compress_run(config, trace)
    report, scored = run_all(config, trace, return_result=True)
    for result in (compressed, scored):
        for vectors, distances, want, want_distances in zip(
            result.vectors, result.distances, expected.vectors, expected.distances
        ):
            tol = VECTOR_EPS * np.finfo(np.float64).eps * np.linalg.norm(want, axis=1).max()
            assert np.all(np.abs(vectors - want) <= tol)
            assert np.all(np.abs(distances - want_distances) <= tol)
        classes = [[c.value == "heterogeneous" for c in layer] for layer in result.classes]
        assert classes == expected.classes
        infeasible = {(cell["policy"], cell["budget_ratio"]) for cell in result.infeasible}
        assert infeasible == {(cell.policy, cell.ratio) for cell in expected.infeasible}
        assert {cell: keep_sets(plans) for cell, plans in result.plans.items()} == planned
    for entry in report["policies"]:
        cell = (entry["policy"], entry["budget_ratio"])
        l2, cosine, tokens = (
            np.array([[head[key] for head in layer] for layer in entry["fidelity"]["per_head"]])
            for key in ("l2_error", "cosine_similarity", "retained_tokens")
        )
        assert_scores_match(l2, cosine, scores[cell])
        rows = [[len(p) + len(g) for p, g in keeps] for keeps in planned[cell]]
        assert tokens.tolist() == rows
        assert entry["memory"]["tokens_retained"] == sum(map(sum, rows))
    reports = score_plans(trace, list(compressed.plans.values()), decode)
    for cell, fid in zip(compressed.plans, reports):
        assert_scores_match(fid.per_head_l2, fid.per_head_cosine, scores[cell])


@st.composite
def runs(draw) -> dict:
    """A small trace of any profile and a run's parameters over it, with
    budgets from infeasible to whole, clamped cells among them."""
    layers, n = draw(st.integers(1, 2)), draw(st.integers(2, 6))
    seq, d = draw(st.integers(6, 40)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["uniform-random", "clustered-heads", "planted-needle"]))
    profile = {"kind": kind, "seed": draw(st.integers(0, 2**16))}
    if kind == "clustered-heads":
        d = max(d, 2)
        profile["planted"] = draw(st.integers(1, min(n, d) - 1))
        profile["spread"] = draw(st.sampled_from([0.0, 0.1]))
    if kind == "planted-needle":
        profile["tail_len"] = draw(st.integers(1, seq))
        profile["needle_position"] = draw(st.integers(0, seq - profile["tail_len"]))
    ratios = st.lists(
        st.sampled_from([0.05, 0.2, 0.35, 0.6, 1.0]), min_size=1, max_size=3, unique=True
    )
    return dict(
        profile=SyntheticProfile(**profile),
        shape=(layers, n, seq, d),
        budget_ratios=tuple(draw(ratios)),
        beta=draw(st.sampled_from([0.25, 0.5, 1.0])),
        top_m=draw(st.integers(0, n)),
        top_t=draw(st.integers(1, seq + 2)),
        window_len=draw(st.integers(1, seq + 4)),
        kernel=draw(st.sampled_from([1, 3, 5, 7])),
        sinks=draw(st.integers(0, seq // 2)),
        recents=draw(st.integers(0, seq)),
        decode_queries=draw(st.none() | st.integers(1, seq)),
    )


def clamped_case(**overrides) -> dict:
    """(2, 4, 40, 3) at beta 0.5: f(0) = 2 and B = 80 under budget 0.5, so
    k < 0 and layer 0's head-aware plans are clamped; budget 0.05 is
    infeasible for the head-aware policies."""
    case = dict(
        profile=SyntheticProfile("uniform-random", seed=3), shape=(2, 4, 40, 3),
        budget_ratios=(0.5, 0.05, 1.0), beta=0.5, top_m=1, top_t=12, window_len=8,
        kernel=3, sinks=4, recents=16, decode_queries=None,
    )
    return {**case, **overrides}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=runs())
@example(case=clamped_case())
@example(case=clamped_case(budget_ratios=(0.05,)))  # only the uniform policies are feasible
@example(case=clamped_case(beta=1.0, top_m=4, budget_ratios=(1.0,)))  # f = n in every layer
@example(case=clamped_case(  # two equidistant heads, tied
    profile=SyntheticProfile("uniform-random", seed=4), shape=(1, 2, 32, 4), top_t=8,
    sinks=2, recents=4,
))
@example(case=clamped_case(
    profile=SyntheticProfile("planted-needle", seed=5, tail_len=8, needle_position=11),
    decode_queries=3,
))
def test_runs_match_the_reference(case):
    config = RunConfig(policies=tuple(PolicyKind), **case)
    assert_run_matches_reference(config, gen_synthetic_trace(config.profile, config.shape))


def test_the_reference_imports_only_the_stdlib_numpy_and_the_trace_generator():
    # so that it cannot share a kernel with the code it checks
    tree = ast.parse(Path(reference.__file__).read_text())
    allowed = {*sys.stdlib_module_names, "numpy"} - {"builtins", "importlib"}
    generator = {"SyntheticProfile", "gen_synthetic_trace"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] in allowed for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "semkv.trace":
                assert {alias.name for alias in node.names} <= generator
            else:
                assert node.level == 0 and node.module.split(".")[0] in allowed, node.module
        elif isinstance(node, ast.Name):
            assert node.id != "__import__"
