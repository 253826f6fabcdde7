"""Per-head retained-token selection under the head-aware policy and baselines.

`POLICIES` holds one per-head keep per `PolicyKind`, row for row the
README's policy table: heterogeneous heads keep everything under the
head-aware policies (task-kv, no-cache, compressed-cache), and the other
heads keep sinks, recents and k middle slots. The layer budget is
B = floor(budget_ratio * N * n) tokens. What a cell fixes for a layer
before any head is planned (B, k, the clamp, whether every head keeps
everything) is its `LayerFacts`, and `layer_facts` is the one place that
decides them and the cell's feasibility there: a run maps it over f(r)
before any layer is read. A head's keep needs only the facts, its class
and its pooled scores, so a head can be planned under each class before
the layer is classified, and a layer's plan is its heads' keeps
(`LayerFacts.plan`).

A plan holds what each head keeps as ranges: its retained positions as an
(r, 2) array of maximal [start, stop) runs, and its compressed-cache
groups as a (g, 2) array of [start, stop) bounds. Everything, sinks,
recents and the observation window are one run each; only top-k picks
are scattered. `check_plans` is the one check of a plan, made on the runs
and groups themselves where plans enter; positions are expanded
(`expand_runs`) only where rows are gathered, in `BudgetPlan.head_plan`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    AllHeadsHeterogeneousError,
    CacheConsistencyError,
    InfeasibleBudgetError,
    ParameterError,
    PlanFormatError,
)
from .separator import HeadClass, top_t_indices


class PolicyKind(str, Enum):
    FULL = "full"
    TASK_KV = "task-kv"
    STREAMING = "streaming"
    UNIFORM_TOPK = "uniform-topk"
    NO_CACHE = "no-cache"
    COMPRESSED_CACHE = "compressed-cache"


class MiddleCount(NamedTuple):
    k: int
    clamped: bool


def middle_activation_count(
    budget: int, seq_len: int, f_r: int, n: int, sinks: int, recents: int
) -> MiddleCount:
    """Middle activations per non-heterogeneous head.

    k = floor((B - N * f_r) / (n - f_r)) - s1 - s2, clamped at 0; the clamp
    flag lets callers warn that the budget degraded to sinks+recents only.
    This is the one budget feasibility check: B < N * f_r raises
    InfeasibleBudgetError before f_r == n raises AllHeadsHeterogeneousError.
    """
    if min(budget, seq_len, sinks, recents) < 0 or f_r < 0:
        raise ParameterError("budget arithmetic needs non-negative inputs")
    if budget < seq_len * f_r:
        raise InfeasibleBudgetError(
            f"budget {budget} < {seq_len * f_r} needed by {f_r} heterogeneous heads"
        )
    if f_r >= n:
        raise AllHeadsHeterogeneousError(
            f"f_r={f_r} with n={n}: no non-heterogeneous heads to allocate for"
        )
    raw = (budget - seq_len * f_r) // (n - f_r) - sinks - recents
    return MiddleCount(k=max(raw, 0), clamped=raw < 0)


def check_kernel(kernel: int) -> None:
    if kernel < 1 or kernel % 2 == 0:
        raise ParameterError(f"kernel must be odd and >= 1, got {kernel}")


def pool_scores(scores: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average with edge truncation (divisor = window overlap)."""
    check_kernel(kernel)
    scores = np.asarray(scores, dtype=np.float64)
    if kernel == 1:
        return scores.copy()
    n = scores.shape[0]
    half = min(kernel // 2, n)  # past N every window already spans [0, N)
    cumsum = np.concatenate([[0.0], np.cumsum(scores)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (cumsum[hi] - cumsum[lo]) / (hi - lo)


# The (0, 2) array of a head with no runs or no groups, shared by every plan.
_NO_RANGES = np.empty((0, 2), dtype=np.intp)
_NO_RANGES.flags.writeable = False


def _joined(ranges: np.ndarray) -> np.ndarray:
    """Sorted, non-overlapping [start, stop) ranges with the empty ones
    dropped and each touching pair merged: maximal runs."""
    ranges = ranges[ranges[:, 1] > ranges[:, 0]]
    if not len(ranges):
        return ranges
    apart = ranges[1:, 0] > ranges[:-1, 1]
    starts = ranges[np.concatenate([[True], apart]), 0]
    stops = ranges[np.concatenate([apart, [True]]), 1]
    return np.stack([starts, stops], axis=1)


def runs_of(positions) -> np.ndarray:
    """The maximal [start, stop) runs, (r, 2) intp, of sorted unique positions."""
    p = np.asarray(positions, dtype=np.intp)
    return _joined(np.stack([p, p + 1], axis=1))


def expand_runs(runs: np.ndarray) -> np.ndarray:
    """The sorted positions that (r, 2) non-empty [start, stop) runs cover.

    Position i of the output is i plus the shift of the run it falls in,
    one `np.repeat` of each run's start less the count of positions
    before it.
    """
    lengths = runs[:, 1] - runs[:, 0]
    before = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum(), dtype=np.intp) + np.repeat(runs[:, 0] - before, lengths)


def _everything_runs(seq_len: int) -> np.ndarray:
    return np.array([[0, seq_len]], dtype=np.intp)


def select_retained_runs(
    head_class: HeadClass,
    pooled: np.ndarray,
    seq_len: int,
    sinks: int,
    recents: int,
    k: int,
) -> np.ndarray:
    """The maximal [start, stop) runs of the positions a head keeps.

    Heterogeneous heads keep everything, [0, N). Others keep the first
    `sinks`, the last `recents`, and the k top pooled scores from the middle
    region [sinks, N - recents); if sinks + recents >= N the whole sequence
    stays.
    """
    if head_class == HeadClass.HETEROGENEOUS or sinks + recents >= seq_len:
        return _everything_runs(seq_len)
    middle_lo, middle_hi = sinks, seq_len - recents
    picks = _NO_RANGES
    if k > 0:
        middle = np.asarray(pooled, dtype=np.float64)[middle_lo:middle_hi]
        picks = runs_of(top_t_indices(middle, min(k, middle_hi - middle_lo)) + middle_lo)
    return _joined(np.concatenate([[[0, middle_lo]], picks, [[middle_hi, seq_len]]]))


def _middle_groups(seq_len: int, sinks: int, recents: int, k: int) -> np.ndarray:
    """Split the middle region into up to k contiguous, non-empty [start, stop)
    groups, as a (g, 2) array."""
    lo, hi = sinks, seq_len - recents
    if k <= 0 or hi <= lo:
        return _NO_RANGES
    bounds = np.linspace(lo, hi, min(k, hi - lo) + 1).astype(np.intp)
    groups = np.stack([bounds[:-1], bounds[1:]], axis=1)
    return groups[groups[:, 1] > groups[:, 0]]


class HeadPlan(NamedTuple):
    """One head's share of a layer plan as scoring reads it: its retained
    positions (its runs expanded) and its groups as (g, 2) [start, stop)
    bounds."""

    retained: np.ndarray
    groups: np.ndarray

    @classmethod
    def of(cls, runs: np.ndarray, groups: np.ndarray | None) -> "HeadPlan":
        """A head's runs and groups (or None) with the runs expanded."""
        return cls(expand_runs(runs), _NO_RANGES if groups is None else groups)


@dataclass
class BudgetPlan:
    """Retained-token decision for one layer under one policy: per head,
    the (r, 2) [start, stop) runs of the positions it keeps and, under
    compressed-cache, the (g, 2) [start, stop) groups behind its
    synthetic rows."""

    layer: int
    policy: PolicyKind
    total_budget: int
    sinks: int
    recents: int
    middle_k: int
    clamped: bool
    head_classes: list[HeadClass]
    per_head_runs: list[np.ndarray]
    per_head_groups: list[np.ndarray] | None = None

    def head_tokens(self, head: int) -> int:
        """Cache rows head `head` holds: its runs' lengths plus its groups."""
        runs = self.per_head_runs[head]
        groups = 0 if self.per_head_groups is None else len(self.per_head_groups[head])
        return int((runs[:, 1] - runs[:, 0]).sum()) + groups

    def head_keep(self, head: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Head `head`'s runs and groups (None when the plan has none), as
        a policy's per-head keep (`LayerFacts.keep`) gives them."""
        groups = None if self.per_head_groups is None else self.per_head_groups[head]
        return self.per_head_runs[head], groups

    def head_plan(self, head: int) -> HeadPlan:
        """Head `head`'s share of the plan with its runs expanded."""
        return HeadPlan.of(*self.head_keep(head))

    def retained_tokens(self) -> int:
        return sum(self.head_tokens(h) for h in range(len(self.per_head_runs)))

    def to_json_dict(self) -> dict:
        """The plan's fields by name, what a plans file holds of each layer:
        runs and groups as lists of [start, stop] pairs, and
        `per_head_groups` only when the plan has groups."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["per_head_runs"] = [r.tolist() for r in self.per_head_runs]
        if self.per_head_groups is None:
            del out["per_head_groups"]
        else:
            out["per_head_groups"] = [g.tolist() for g in self.per_head_groups]
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "BudgetPlan":
        """Inverse of `to_json_dict`; malformed input raises PlanFormatError,
        a missing key before an unknown one."""
        try:
            values = {f.name: d[f.name] for f in fields(cls) if f.default is MISSING or f.name in d}
        except KeyError as exc:
            raise PlanFormatError(f"plan is missing key {exc}") from exc
        except TypeError as exc:
            raise PlanFormatError(f"bad plan: {exc}") from exc
        unknown = sorted(set(d) - set(values))
        if unknown:
            raise PlanFormatError(f"plan has unknown key(s) {', '.join(unknown)}")
        try:
            for name, convert in _PLAN_FROM_JSON.items():
                if name in values:
                    values[name] = convert(values[name])
            return cls(**values)
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise PlanFormatError(f"bad plan: {exc}") from exc


def _is_pair(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 2
        and all(type(x) is int for x in value)  # not a bool, not a float
    )


def _ranges_per_head(name: str):
    """A plans file's per-head lists of [start, stop] integer pairs as (r, 2)
    intp arrays; anything else (a flat index, a float, a bool, a deeper
    nesting) raises TypeError naming the field."""

    def convert(heads) -> list[np.ndarray]:
        if not isinstance(heads, list) or not all(
            isinstance(pairs, list) and all(map(_is_pair, pairs)) for pairs in heads
        ):
            raise TypeError(f"{name} must hold one list of [start, stop] integer pairs per head")
        return [np.array(pairs, dtype=np.intp).reshape(-1, 2) for pairs in heads]

    return convert


_groups_from_json = _ranges_per_head("per_head_groups")


def _checked(name: str, ok, what: str):
    """A plans file's `name` value as is when `ok(value)`; anything else
    raises TypeError naming the field."""

    def convert(value):
        if not ok(value):
            raise TypeError(f"{name} must be {what}, got {value!r}")
        return value

    return convert


# How a plans file's value becomes the `BudgetPlan` field of its key, for
# each field that JSON does not hold as is, or whose type it checks.
_PLAN_FROM_JSON = {
    **{
        name: _checked(name, lambda v: type(v) is int and v >= 0, "a non-negative integer")
        for name in ("layer", "total_budget", "sinks", "recents", "middle_k")
    },
    "clamped": _checked("clamped", lambda v: type(v) is bool, "true or false"),
    "policy": PolicyKind,
    "head_classes": lambda classes: [HeadClass(c) for c in classes],
    "per_head_runs": _ranges_per_head("per_head_runs"),
    "per_head_groups": lambda heads: None if heads is None else _groups_from_json(heads),
}


class LayerFacts(NamedTuple):
    """What a (policy, budget) cell fixes in one layer before any head is
    planned (`layer_facts`): the policy, the layer budget B, the heads n,
    N, sinks, recents, the window, the middle count k with its clamp flag,
    and whether the budget has every head keep everything. A head's keep
    (`keep`) needs these, its class and its pooled scores; a layer's plan
    (`plan`) is every head's keep."""

    policy: PolicyKind
    budget: int
    heads: int
    seq_len: int
    sinks: int
    recents: int
    window_len: int
    k: int = 0
    clamped: bool = False
    everything: bool = False

    def keep(self, head_class: HeadClass, pooled: np.ndarray) -> tuple:
        """One head's (r, 2) runs and, under compressed-cache, its (g, 2)
        groups (else None)."""
        if self.everything:
            return _everything_runs(self.seq_len), None
        return POLICIES[self.policy](self, head_class, pooled)

    def keep_by_class(self, pooled: np.ndarray) -> dict[HeadClass, tuple]:
        """A head's keep under each class it may be given, planned before
        the layer is classified: one keep for both when its class does not
        change it."""
        if self.everything or self.policy not in HEAD_AWARE_SLOTS:
            return dict.fromkeys(HeadClass, self.keep(HeadClass.NON_HETEROGENEOUS, pooled))
        return {head_class: self.keep(head_class, pooled) for head_class in HeadClass}

    def groups(self) -> np.ndarray:
        """The (g, 2) groups every head that summarises the middle keeps,
        known before any head is planned: compressed-cache's, or none."""
        if self.policy != PolicyKind.COMPRESSED_CACHE or self.everything:
            return _NO_RANGES
        return _middle_groups(self.seq_len, self.sinks, self.recents, self.k)

    def plan(self, layer: int, head_classes: list[HeadClass], keeps) -> BudgetPlan:
        """The layer's plan from each head's keep, in head order."""
        groups = [g for _, g in keeps]  # every head's are arrays, or every head's None
        return BudgetPlan(
            layer,
            self.policy,
            self.budget,
            self.sinks,
            self.recents,
            self.k,
            self.clamped,
            list(head_classes),
            [r for r, _ in keeps],
            None if groups[0] is None else groups,
        )


def _full(facts: LayerFacts, head_class, pooled):
    return _everything_runs(facts.seq_len), None


def _sinks_then_recents(scores, per_head, sinks, window_len):
    seq_len = len(scores)
    s = min(sinks, per_head)
    return _joined(np.array([[0, s], [seq_len - (per_head - s), seq_len]], dtype=np.intp))


def _window_then_top(scores, per_head, sinks, window_len):
    seq_len = len(scores)
    w = min(window_len, per_head)
    window = np.array([[seq_len - w, seq_len]], dtype=np.intp)
    if per_head <= w:
        return _joined(window)
    before = scores[: seq_len - window_len]
    picks = runs_of(top_t_indices(before, min(per_head - w, before.shape[0])))
    return _joined(np.concatenate([picks, window]))


def _uniform(keep):
    """streaming and uniform-topk: every head, whatever its class, keeps
    `keep` of its B // n positions (`layer_facts` has every head keep
    everything when B // n covers N)."""

    def plan(facts: LayerFacts, head_class, pooled):
        return keep(pooled, facts.budget // facts.heads, facts.sinks, facts.window_len), None

    return plan


def _top_k_slots(facts: LayerFacts, head_class, pooled):
    """task-kv: the k highest pooled middle scores."""
    runs = select_retained_runs(
        head_class, pooled, facts.seq_len, facts.sinks, facts.recents, facts.k
    )
    return runs, None


def _recent_slots(facts: LayerFacts, head_class, pooled):
    """no-cache: k more recents."""
    runs = select_retained_runs(
        head_class, pooled, facts.seq_len, facts.sinks, facts.recents + facts.k, 0
    )
    return runs, None


def _group_mean_slots(facts: LayerFacts, head_class, pooled):
    """compressed-cache: up to k synthetic group means over the middle."""
    kept = select_retained_runs(head_class, pooled, facts.seq_len, facts.sinks, facts.recents, 0)
    return kept, _NO_RANGES if head_class == HeadClass.HETEROGENEOUS else facts.groups()


# What a head does with the k middle slots it gets beyond sinks and
# recents under each head-aware policy, where heterogeneous heads keep
# everything; these are the policies whose budget must first hold the
# heterogeneous heads.
HEAD_AWARE_SLOTS = {
    PolicyKind.TASK_KV: _top_k_slots,
    PolicyKind.NO_CACHE: _recent_slots,
    PolicyKind.COMPRESSED_CACHE: _group_mean_slots,
}

# One entry per row of the README's policy table. Each maps (a layer's
# facts, a head's class, its pooled window scores) to what the head keeps,
# when the facts do not have every head keep everything.
POLICIES = {
    PolicyKind.FULL: _full,
    **HEAD_AWARE_SLOTS,
    PolicyKind.STREAMING: _uniform(_sinks_then_recents),
    PolicyKind.UNIFORM_TOPK: _uniform(_window_then_top),
}


def policy_kind(policy) -> PolicyKind:
    """`policy`, a `PolicyKind` or its name, as a `PolicyKind`; an unknown
    name raises ParameterError."""
    try:
        return PolicyKind(policy)
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def layer_facts(
    layer: int,
    policy,
    budget_ratio: float,
    seq_len: int,
    n: int,
    f_r: int,
    sinks: int,
    recents: int,
    window_len: int,
) -> LayerFacts:
    """What a (policy, budget) cell fixes in layer `layer`, whose schedule
    gives f_r heterogeneous heads of n, before any head is planned.

    Under a head-aware policy, a budget that cannot hold the heterogeneous
    heads raises InfeasibleBudgetError naming the layer, and f_r == n has
    every head keep everything; under streaming and uniform-topk, so does
    B // n >= N.
    """
    policy = policy_kind(policy)
    if not 0 < budget_ratio <= 1:
        raise ParameterError(f"budget_ratio {budget_ratio} outside (0, 1]")
    if sinks < 0 or recents < 0:
        raise ParameterError(f"sinks and recents must be >= 0, got {sinks} and {recents}")
    budget = int(np.floor(budget_ratio * seq_len * n))
    facts = LayerFacts(policy, budget, n, seq_len, sinks, recents, window_len)
    if policy == PolicyKind.FULL:
        return facts
    if policy not in HEAD_AWARE_SLOTS:
        return facts._replace(everything=budget // n >= seq_len)
    try:
        k, clamped = middle_activation_count(budget, seq_len, f_r, n, sinks, recents)
    except AllHeadsHeterogeneousError:
        return facts._replace(everything=True)
    except InfeasibleBudgetError as exc:
        raise InfeasibleBudgetError(f"layer {layer}: {exc}") from exc
    return facts._replace(k=k, clamped=clamped)


def _check_groups(bounds: np.ndarray, seq_len: int, where: str, what: str = "group") -> None:
    """(g, 2) [start, stop) bounds, a head's groups or its runs, must be
    non-empty, sorted, non-overlapping and inside [0, N); the first `what`
    that is not names the error."""
    starts, stops = bounds[:, 0], bounds[:, 1]
    out_of_range = (starts < 0) | (stops <= starts) | (stops > seq_len)
    overlapping = starts < np.concatenate([[0], stops[:-1]])
    bad = np.flatnonzero(out_of_range | overlapping)
    if bad.size:
        a, b = bounds[bad[0]]
        kind = "out of range" if out_of_range[bad[0]] else "unsorted or overlapping"
        raise CacheConsistencyError(f"{where}: {what} [{a}, {b}) {kind}")


# The longest group `group_means` sums one row at a time, with no gathered block.
_SHORT_GROUP = 16


def group_means(rows: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Float64 mean row of each checked [start, stop) group, a row of the
    (g, 2) `groups`, of C-contiguous `rows`.

    Groups of one length are gathered into a (groups, length, d) block,
    widened to float64 and reduced over its middle axis, which adds in the
    order that `rows[a:b].mean(axis=0)` uses on float64 rows for every
    head_dim (row by row, or pairwise when d == 1), so the two agree bit
    for bit, and float32 rows give the bits of the same values in float64.
    np.add.reduceat and cumsum differences add in other orders and round
    differently on float64 data. Plans from `_middle_groups` have at most
    two lengths. When d > 1, groups of up to `_SHORT_GROUP` rows are summed
    one row of each at a time instead, in that same order, with no block.
    """
    starts, lengths = groups[:, 0], groups[:, 1] - groups[:, 0]
    means = np.empty((len(groups), rows.shape[1]))
    for length in np.unique(lengths):
        pick = lengths == length
        at = starts[pick]
        if length <= _SHORT_GROUP and rows.shape[1] > 1:
            total = np.zeros((len(at), rows.shape[1]))  # the reduction starts from 0.0 too
            for offset in range(length):
                total += rows[at + offset]
        else:
            total = np.add.reduce(
                np.asarray(rows[at[:, None] + np.arange(length)], dtype=np.float64), axis=1
            )
        means[pick] = total / length
    return means


def check_plans(trace, plans) -> list[BudgetPlan]:
    """The plans as a list, one per layer of `trace` (an `AttentionTrace` or
    a `TraceHeader`), plan r for layer r, each covering every head, whose
    every run and group is non-empty, sorted, non-overlapping and inside
    [0, N), whose runs are maximal (apart, so keeping everything is always
    [[0, N]]) and whose groups start on no retained position: the one
    check of a plan, made before any layer is read. Scoring reads plans
    that pass, and the keeps a run plans its heads with, as they are."""
    plans = list(plans)
    if len(plans) != trace.num_layers:
        raise CacheConsistencyError(f"{len(plans)} plans for {trace.num_layers} layers")
    n_heads = trace.num_heads
    for r, plan in enumerate(plans):
        if plan.layer != r:
            raise CacheConsistencyError(f"plan {r} is for layer {plan.layer}")
        covered = (
            ("runs", plan.per_head_runs),
            ("groups", plan.per_head_groups),
            ("head classes", plan.head_classes),
        )
        for what, per_head in covered:
            if per_head is not None and len(per_head) != n_heads:
                raise CacheConsistencyError(
                    f"layer {r}: plan {what} cover {len(per_head)} heads, trace has {n_heads}"
                )
    for r, plan in enumerate(plans):
        for h, runs in enumerate(plan.per_head_runs):
            where = f"layer {r} head {h}"
            _check_groups(runs, trace.seq_len, where, "run")
            touching = np.flatnonzero(runs[1:, 0] == runs[:-1, 1])
            if touching.size:
                a, b = runs[touching[0] + 1]
                raise CacheConsistencyError(f"{where}: run [{a}, {b}) touches the run before it")
            groups = _NO_RANGES if plan.per_head_groups is None else plan.per_head_groups[h]
            _check_groups(groups, trace.seq_len, where)
            # a start inside a run is before the stop of the last run at or before it
            at = np.searchsorted(runs[:, 0], groups[:, 0], side="right")
            if np.any(groups[:, 0] < np.concatenate([[0], runs[:, 1]])[at]):
                raise CacheConsistencyError(f"{where}: cache positions must be strictly increasing")
    return plans


class MemoryFootprint(NamedTuple):
    tokens_retained: int
    bytes: int
    ratio_vs_full: float


def footprint(tokens: int, shape) -> MemoryFootprint:
    """Token, byte (K+V float32) and fraction-of-full accounting of `tokens`
    cache rows over a trace of `shape`'s dimensions (a trace or a header)."""
    full = shape.num_layers * shape.num_heads * shape.seq_len
    return MemoryFootprint(tokens, tokens * 2 * shape.head_dim * 4, tokens / full)
