"""Pipeline orchestration: classify heads, plan budgets, score fidelity, export.

A run is one loop over a trace's layers. `start_run` decides from the
header alone, before any layer is read, the schedule f(r), which
(policy, budget) cells are feasible and the decode-query count. Then
`layer_step` runs on each layer in turn: the head pass, classification,
a plan per cell and each plan's fidelity. A layer's plans are dropped
before the next layer is read. The CLI reads every trace, drawn ones
too, as a mapped file, so its peak is the held window numerators plus
one of a head's arrays and its temporaries. The library functions
(`compress_run`, `run_all`, `fidelity_eval`) take any layer source: an
`AttentionTrace` in memory, or the source `open_source` gives for a
config. Saved plans are scored by `score_plans`, one layer at a time, for
`fidelity_eval` and `semkv eval` alike.

Fidelity is measured the way a decoder with an evicted cache behaves: for the
last `decode_queries` query rows, attention outputs over the retained K/V
entries (softmax renormalized over the retained, causally visible set) are
compared against outputs over the full cache. This is a proxy for task-level
quality; it needs no language model.

A head's keys meet queries in one kernel, `linalg.causal_scores`. When
fidelity is scored on the window's own rows, the default decode rows, the
head pass's call is the head's only one unless a cell has groups: the run
holds each head's window softmax numerators for `score_layer` (see
`_held_numerators`). Any other decode count has `score_layer` form the
decode rows' scores again (see `_HeadNumerators`). Every pass walks a
layer's heads through `trace.each_head`, which owns each head block's
residency, and reads one of a head's arrays at a time: the head pass
walks the heads twice, over K for the window scores, then over V for the
semantic vectors, and scoring is done with a head's K before it reads V.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .allocator import (
    _NO_RANGES,
    BudgetPlan,
    HeadPlan,
    MemoryFootprint,
    PolicyKind,
    apply_policy,
    check_cell,
    check_head_plan,
    check_kernel,
    check_plans,
    footprint,
    group_means,
    pool_scores,
)
from .contribution import BoundSuiteReport, verify_bound_suite
from .errors import InfeasibleBudgetError, ParameterError, SemkvError
from .linalg import (
    _KEY_BLOCK,
    AttentionInputs,
    _key_blocks,
    causal_numerators,
    causal_scores,
    pca_2d,
)
from .separator import (
    HeadClass,
    HeterogeneitySchedule,
    approx_semantic_vector,
    build_layer_profiles,
    check_top_t,
    check_window_len,
    heterogeneous_schedule,
    window_column_scores,
)
from .trace import (
    SyntheticProfile,
    SyntheticSource,
    TraceHeader,
    TraceReader,
    check_seed,
    each_head,
    given_back,
)

DEFAULT_POLICIES = (PolicyKind.TASK_KV, PolicyKind.STREAMING)
DEFAULT_BUDGETS = (0.4,)


@dataclass
class RunConfig:
    """Everything a run needs; defaults follow the reference setup
    (window 32, kernel 7, 16 sinks, 256 recents, top-t 256)."""

    trace_path: str | None = None
    profile: SyntheticProfile | None = None
    shape: tuple[int, int, int, int] | None = None
    policies: tuple[PolicyKind, ...] = DEFAULT_POLICIES
    budget_ratios: tuple[float, ...] = DEFAULT_BUDGETS
    beta: float = 0.25
    top_m: int = 4
    top_t: int = 256
    window_len: int = 32
    kernel: int = 7
    sinks: int = 16
    recents: int = 256
    decode_queries: int | None = None  # None -> window_len
    seed: int = 0
    contrib_trials: int = 0  # 0 skips the bound suite in `all` runs

    def __post_init__(self):
        # checked even when no run draws from it, since reports record it
        check_seed(self.seed)

    def to_json_dict(self) -> dict:
        """Every field by name, the profile's nested: what a config file holds."""
        return asdict(self)


def open_source(config: RunConfig):
    """The config's trace as a layer source, for a `with` block: a
    `TraceReader` over its file, or a `SyntheticSource`, whose layers are
    read the same way from a temporary file it draws the trace into."""
    if config.trace_path is not None:
        return TraceReader(config.trace_path)
    if config.profile is not None and config.shape is not None:
        return contextlib.nullcontext(SyntheticSource(config.profile, config.shape))
    raise ParameterError("config needs either trace_path or profile+shape")


# a (policy, budget ratio) cell of a run
Cell = tuple[str, float]


@dataclass
class RunResult:
    """A run's results, gathered one `layer_step` at a time.

    Everything a run decides before it reads a layer comes first: the
    trace's header, the schedule, the observation window's rows
    (`window_rows`), the feasible cells, the infeasible ones (one
    {"policy", "budget_ratio", "message"} entry per cell left unplanned
    because its budget cannot hold the heterogeneous heads) and the
    decode-query count when fidelity is scored. `vectors`, `distances` and
    `classes` hold each layer's (n, d) semantic vectors, (n,) distances to
    its semantic center and head classes. `plans` holds every layer's plan
    per cell only for callers that keep them; `head_tokens` and `scores`
    hold what a report needs of them.
    """

    header: TraceHeader
    schedule: HeterogeneitySchedule
    window_len: int
    cells: list[Cell] = field(default_factory=list)
    infeasible: list[dict] = field(default_factory=list)
    decode_queries: int | None = None
    vectors: list[np.ndarray] = field(default_factory=list)
    distances: list[np.ndarray] = field(default_factory=list)
    classes: list[list[HeadClass]] = field(default_factory=list)
    plans: dict[Cell, list[BudgetPlan]] = field(default_factory=dict)
    head_tokens: dict[Cell, list[list[int]]] = field(default_factory=dict)
    scores: dict[Cell, list[tuple[np.ndarray, np.ndarray]]] = field(default_factory=dict)

    def add_head_tokens(self, plans: dict[Cell, BudgetPlan]) -> None:
        """Each head's retained tokens in one layer's plan per cell."""
        for cell, plan in plans.items():
            heads = range(len(plan.per_head_runs))
            self.head_tokens.setdefault(cell, []).append([plan.head_tokens(h) for h in heads])

    def fidelity(self, cell: Cell) -> "FidelityReport":
        return FidelityReport.from_layers(self.decode_queries, self.scores[cell])

    def memory(self, cell: Cell) -> MemoryFootprint:
        return footprint(sum(map(sum, self.head_tokens[cell])), self.header)


def start_run(
    config: RunConfig, header: TraceHeader, plan: bool = True, score: bool = True
) -> RunResult:
    """Everything a run decides from the header alone, before any layer is read.

    The config's parameters are checked first: a non-empty policy and
    budget list, and the window, top-t and, with `plan`, the pooling kernel
    the layers will use. With `plan`, each distinct (policy, budget) cell
    passes `check_cell`: the cells whose budget cannot hold some layer's
    heterogeneous heads are listed once each in `infeasible`, and when no
    cell is feasible the first one's error is raised. With `score`, the
    decode-query count is checked.
    """
    if config.contrib_trials < 0:
        raise ParameterError(f"contrib_trials must be >= 0, got {config.contrib_trials}")
    for name, values in (("policies", config.policies), ("budget_ratios", config.budget_ratios)):
        if not values:
            raise ParameterError(f"{name} must not be empty")
    window_len = window_rows(config, header)
    if plan:
        check_kernel(config.kernel)
    check_top_t(config.top_t)
    schedule = heterogeneous_schedule(
        header.num_heads, config.beta, config.top_m, header.num_layers
    )
    result = RunResult(header, schedule, window_len)
    # each distinct cell once, in the order the config first names it
    cells = dict.fromkeys(
        (PolicyKind(policy).value, ratio)
        for policy in (config.policies if plan else ())
        for ratio in config.budget_ratios
    )
    for policy, ratio in cells:
        try:
            check_cell(
                policy, ratio, header.seq_len, header.num_heads, schedule.per_layer_counts,
                config.sinks, config.recents,
            )
        except InfeasibleBudgetError as exc:
            result.infeasible.append({"policy": policy, "budget_ratio": ratio, "message": str(exc)})
        else:
            result.cells.append((policy, ratio))
    if result.infeasible and not result.cells:
        raise InfeasibleBudgetError(result.infeasible[0]["message"])
    if score:
        result.decode_queries = decode_count(config, header)
    return result


def check_decode_queries(count: int, seq_len: int) -> int:
    """`count` decode-query rows, which must lie in [1, N]."""
    if not 1 <= count <= seq_len:
        raise ParameterError(f"decode_queries {count} outside [1, {seq_len}]")
    return count


def window_rows(config: RunConfig, header: TraceHeader) -> int:
    """The observation window's query rows, min(window_len, N), checked."""
    rows = min(config.window_len, header.seq_len)
    check_window_len(rows, header.seq_len)
    return rows


def decode_count(config: RunConfig, header: TraceHeader) -> int:
    """The decode-query rows fidelity is scored on: by default the window's
    rows (`window_rows`); an explicit count is checked against N."""
    if config.decode_queries is None:
        return window_rows(config, header)
    return check_decode_queries(config.decode_queries, header.seq_len)


# A head's softmax numerators E = exp(S - m) of its causal window scores S,
# (N, W), 0 where a row does not see the key, and each row's max m, (W,).
Held = tuple[np.ndarray, np.ndarray]


def _held_numerators(result: RunResult) -> list[Held] | None:
    """Where a started run holds each head's window numerators for
    `score_layer`: views of one float64 (n, N, W) buffer and one (n, W),
    which serve every layer. None unless fidelity is scored on the
    window's own rows."""
    n, seq_len, window_len = result.header.num_heads, result.header.seq_len, result.window_len
    if result.decode_queries != window_len:
        return None
    return list(zip(np.empty((n, seq_len, window_len)), np.empty((n, window_len))))


def _window_scores(block: np.ndarray, window_len: int, held: Held | None = None) -> np.ndarray:
    """One head's (N,) window scores, from the head's (3, N, d) block as
    stored: `causal_scores`, through `window_column_scores`, reads the
    window's query rows and widens K one key block at a time, and V is not
    read. `held`, the head's slot of `_held_numerators`, keeps the window's
    softmax numerators and their row max."""
    q, k, v = block
    inputs = AttentionInputs(q[len(q) - window_len :], k, v, checked=True)
    return window_column_scores(inputs, window_len, held)


def layer_step(
    config: RunConfig,
    result: RunResult,
    layer: int,
    data: np.ndarray,
    held: list[Held] | None = None,
) -> dict[Cell, BudgetPlan]:
    """One layer of the started run `result`, on its checked (n, 3, N, d)
    `data`, recorded into `result`; returns the layer's plan per cell.

    The head pass walks the heads twice, so a mapped head holds the pages
    of one of its arrays at a time: over K, one causal softmax over each
    head's observation window gives its window scores, pooled only when
    some cell is planned; then over V, each head's top-t semantic vector
    from its scores. The layer's heads are classified from f(r), every
    cell is planned from the pooled scores alone and, when fidelity is
    scored (the run's `decode_queries`), `score_layer` scores each plan.
    With `held` (`_held_numerators`), the first walk keeps each head's
    window numerators there and `score_layer` reads them. `result` gets
    the layer's semantic vectors, distances to its semantic center, head
    classes, each plan's per-head tokens and, when scored, its per-head
    (L2, cosine) arrays.
    """
    window_len, cells = result.window_len, result.cells
    slots = held or [None] * data.shape[0]
    vectors = np.empty((data.shape[0], data.shape[3]))
    try:
        scores = [
            _window_scores(block, window_len, slot) for block, slot in zip(each_head(data), slots)
        ]
        pooled = [pool_scores(score, config.kernel) for score in scores] if cells else []
        for h, (block, score) in enumerate(zip(each_head(data), scores)):
            vectors[h] = approx_semantic_vector(score, block[2], config.top_t)
        distances, classes = build_layer_profiles(vectors, result.schedule.per_layer_counts[layer])
    except SemkvError as exc:
        raise type(exc)(f"layer {layer}: {exc}") from exc
    plans = {
        cell: apply_policy(
            layer, classes, cell[0], cell[1], config.sinks, config.recents, window_len, pooled
        )
        for cell in cells
    }
    del scores, pooled  # scoring needs neither
    result.vectors.append(vectors)
    result.distances.append(distances)
    result.classes.append(classes)
    result.add_head_tokens(plans)
    if result.decode_queries is not None:
        scored = score_layer(data, layer, list(plans.values()), result.decode_queries, held=held)
        for cell, score in zip(plans, scored):
            result.scores.setdefault(cell, []).append(score)
    return plans


def run_steps(
    config: RunConfig, result: RunResult, layers, keep_plans: bool = False
) -> Iterator[dict[Cell, BudgetPlan]]:
    """`layer_step` on each of `layers` in turn, recorded into `result`.

    Each layer's plans are yielded before the next layer is read, so a
    caller can write them out; only with `keep_plans` does `result.plans`
    hold them too. The `_held_numerators` buffers, if the run scores the
    window's own rows, are made before the first layer and reused for each.
    """
    held = _held_numerators(result)
    for r, data in enumerate(layers):
        plans = layer_step(config, result, r, data, held)
        if keep_plans:
            for cell, plan in plans.items():
                result.plans.setdefault(cell, []).append(plan)
        yield plans


def compress_run(config: RunConfig, trace) -> RunResult:
    """Window scores -> semantic vectors -> classification -> plans, layer by
    layer, over `trace`, any layer source.

    A cell whose budget cannot hold its heterogeneous heads is recorded in
    `infeasible` and the other cells are planned; when no cell is feasible
    the first cell's error is raised before any layer is computed.
    """
    result = start_run(config, trace.header, score=False)
    for _ in run_steps(config, result, trace.layers(), keep_plans=True):
        pass
    return result


def _per_head(cell: str, mean: str):
    """A `FidelityReport` metric field: an (R, n) per-head array, its key in
    a report's per-head cells and the key of its mean."""
    return field(metadata={"cell": cell, "mean": mean})


@dataclass
class FidelityReport:
    """One plan set's fidelity over a trace.

    Each metric is a per-head field that names its keys, so the records
    built from the fields (`summary`, `head_cell`, `to_json_dict`) and the
    CSV header carry a metric added as a field with no other edit.
    """

    decode_queries: int
    per_head_l2: np.ndarray = _per_head("l2_error", "mean_l2")  # mean L2 error over decode rows
    per_head_cosine: np.ndarray = _per_head("cosine_similarity", "mean_cosine")

    @classmethod
    def from_layers(cls, decode_queries: int, layers) -> "FidelityReport":
        """A report from each layer's `score_layer` arrays."""
        return cls(decode_queries, *(np.array(metric) for metric in zip(*layers)))

    @classmethod
    def metrics(cls) -> list:
        return [f for f in fields(cls) if f.metadata]

    @property
    def mean_l2(self) -> float:
        return float(self.per_head_l2.mean())

    @property
    def mean_cosine(self) -> float:
        return float(self.per_head_cosine.mean())

    def summary(self) -> dict:
        """The decode-query count, then each metric's mean under its key."""
        means = {f.metadata["mean"]: float(getattr(self, f.name).mean()) for f in self.metrics()}
        return {"decode_queries": self.decode_queries, **means}

    def head_cell(self, layer: int, head: int) -> dict:
        """Each metric of one head under its per-head cell key."""
        metrics = self.metrics()
        return {f.metadata["cell"]: float(getattr(self, f.name)[layer, head]) for f in metrics}

    def to_json_dict(self) -> dict:
        """A `fidelity.json` row's scores: the summary, then each per-head
        array under its field name."""
        arrays = {f.name: getattr(self, f.name).tolist() for f in self.metrics()}
        return {**self.summary(), **arrays}


def _rows_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    out = np.ones(a.shape[0])
    both = (na > 0) & (nb > 0)
    out[both] = np.sum(a[both] * b[both], axis=1) / (na[both] * nb[both])
    out[(na > 0) ^ (nb > 0)] = 0.0
    return out


# A retained denominator under the shared shift outside [1 / _SAFE, _SAFE]
# means the row's retained exponentials underflowed (or, through a group
# mean above the row max, grew huge); such a row is rescored with its own
# retained max.
_SAFE = 2.0**600


def _decode_scores(block: np.ndarray, decode_queries: int) -> Held:
    """`causal_scores` of a head's last `decode_queries` query rows over its
    keys: S, (N, decode_queries), and each row's max over the keys it sees."""
    return causal_scores(block[0, block.shape[1] - decode_queries :], block[1])


def _group_scores(
    block: np.ndarray, decode_queries: int, groups, scores: np.ndarray | None = None
) -> list[np.ndarray]:
    """The scores of each of `groups`' ((g, 2) [start, stop) bounds) mean
    keys, (g, decode_queries): the mean of its keys' decode scores, since a
    mean key scores the mean of its keys' scores. S is `scores` or, only
    when some group is given, formed again (`_decode_scores`)."""
    if not any(map(len, groups)):
        return [np.empty((0, decode_queries))] * len(groups)
    if scores is None:
        scores = _decode_scores(block, decode_queries)[0]
    return [group_means(scores, bounds) for bounds in groups]


class _HeadNumerators:
    """One head's softmax numerators over its decode rows, and the decode
    outputs of its full cache and of each cell's retained cache, from one
    pass over its V, and one over its K unless the head pass held the
    numerators and no cell has groups.

    `numerators` is E = exp(S - shift), (N, decode_queries), 0 where a row
    does not see the key, of the decode rows' causal scores S, and `shift`
    each row's max over the keys it sees: `held`, the pair the head pass
    kept when the decode rows are the window's, or formed here in place on
    S. S itself is formed again (`scores`) only for what E cannot give:
    each cell's group scores (`_group_scores`), and a rescued row's own
    max. E and the group scores are formed first, and Q's and K's pages
    given back, before V is read; only a rescue reads K again.
    The full cache is one more plan, the first: every position, no groups.
    `full` is its outputs, (decode_queries, d), and `retained` holds, in
    order, the outputs over each of `heads` (each a cell's checked
    `HeadPlan`): its retained rows and group means, renormalised over its
    own rows. A head that keeps every position adds what the full plan
    adds, in the same order, so its outputs are `full`'s bits.
    """

    def __init__(
        self, block: np.ndarray, decode_queries: int, heads=(), held: Held | None = None
    ):
        every = np.arange(block.shape[1])  # each key's position
        self._block, self.rows = block, every[len(every) - decode_queries :]
        groups = [head.groups for head in heads]
        with given_back(block[:2]):  # Q and K are done with before V is read
            if held is None:
                held = _decode_scores(block, decode_queries)
                group_scores = _group_scores(block, decode_queries, groups, held[0])
                causal_numerators(*held)
            else:
                group_scores = _group_scores(block, decode_queries, groups)
        self.numerators, self.shift = held
        heads = [HeadPlan(every, _NO_RANGES, every), *heads]
        group_scores = [np.empty((0, decode_queries)), *group_scores]
        products, totals = self._value_pass(block[2], heads)
        self.full, *self.retained = [
            self._cell_output(block[2], *cell)
            for cell in zip(heads, group_scores, products, totals)
        ]

    def scores(self) -> np.ndarray:
        """The decode rows' causal scores S, (N, decode_queries), formed
        again: the bits E was formed from."""
        return _decode_scores(self._block, len(self.rows))[0]

    def _value_pass(self, values: np.ndarray, heads) -> tuple[list, list]:
        """Each head's products of its retained rows' numerators and V rows,
        (decode_queries, d), and their sums, (decode_queries,).

        V is widened one key block at a time, once for every head. A
        block's numerators give its partial product E[b]^T V[b] and row
        sums. A head that keeps the whole block adds that partial and those
        sums, with no gather; a head that keeps part of it gathers only
        those rows from the widened block.
        """
        decode_queries, head_dim = self.numerators.shape[1], values.shape[1]
        # each head's retained positions cut at the key-block edges
        edges = np.append(np.arange(0, len(values), _KEY_BLOCK), len(values))
        cuts = [np.searchsorted(head.retained, edges) for head in heads]
        products = [np.zeros((decode_queries, head_dim)) for _ in heads]
        totals = [np.zeros(decode_queries) for _ in heads]
        for b, (at, rows) in enumerate(_key_blocks(values)):
            weights = self.numerators[at]
            partial = weights.T @ rows
            row_sums = weights.sum(axis=0)
            for head, cut, out, total in zip(heads, cuts, products, totals):
                lo, hi = cut[b], cut[b + 1]
                if hi - lo == len(rows):
                    out += partial
                    total += row_sums
                elif hi > lo:
                    kept = head.retained[lo:hi]
                    picked = self.numerators[kept]
                    out += picked.T @ rows[kept - at.start]
                    total += picked.sum(axis=0)
        return products, totals

    def _cell_output(
        self,
        values: np.ndarray,
        head: HeadPlan,
        group_scores: np.ndarray,
        out: np.ndarray,
        total: np.ndarray,
    ) -> np.ndarray:
        """Decode outputs over the head's retained rows and group means,
        (decode_queries, d), finished in place in `out`, the product of its
        retained rows' numerators and V rows, with `total`, their sums.

        A group's mean row weighs exp(its `group_scores` - shift), since the
        score of a mean key is the mean of the keys' scores. A decode row
        before the head's first cache position sees nothing, and its output
        is zero. A row whose total leaves [1 / _SAFE, _SAFE] is rescored
        with its own retained max over the gathered rows.
        """
        idx, groups = head.retained, head.groups
        first = int(head.positions[0]) if head.positions.size else int(self.rows[-1]) + 1
        blind = min(max(first - int(self.rows[0]), 0), len(self.rows))
        group_values = np.empty((0, values.shape[1]))
        if len(groups):
            group_values = group_means(values, groups)
            with np.errstate(over="ignore"):  # a hidden group's exponential is discarded
                group_weights = np.exp(group_scores - self.shift)
            group_weights[groups[:, :1] > self.rows] = 0.0
            out += group_weights.T @ group_values
            total += group_weights.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):  # blind and rescued rows are rewritten
            out /= total[:, None]
        out[:blind] = 0.0
        seen = total[blind:]
        rescue = blind + np.flatnonzero(~((seen >= 1 / _SAFE) & (seen <= _SAFE)))
        if rescue.size:
            own = np.concatenate([self.scores()[np.ix_(idx, rescue)], group_scores[:, rescue]])
            own[np.concatenate([idx, groups[:, 0]])[:, None] > self.rows[rescue]] = -np.inf
            weights = np.exp(own - own.max(axis=0))
            kept = np.concatenate([np.asarray(values[idx], dtype=np.float64), group_values])
            out[rescue] = (weights.T @ kept) / weights.sum(axis=0)[:, None]
        return out


def score_layer(
    data: np.ndarray,
    layer: int,
    plans: list[BudgetPlan],
    decode_queries: int,
    held: list[Held] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-head decode L2 error and cosine of each of one layer's `plans`
    against the full cache, over the last `decode_queries` query rows.

    Scoring is head-major. Every scored head's plan passes
    `check_head_plan` first. `_HeadNumerators` takes the head's softmax
    numerators, under each decode row's full-cache max, from `held` (the
    head pass's, when the decode rows are the window's) or forms them from
    the decode scores (`causal_scores`), and one pass over its V key
    blocks gives the full cache's outputs o, as the plan that keeps every
    position, and every cell's retained outputs: a cell that keeps every
    position gets o's bits, L2 0 and o's self-cosine (not always 1). A row
    whose retained numerators underflow under that shared shift is
    rescored with the cell's own retained max. A decode row that sees no
    retained key attends to nothing: its retained output is zero, so it
    scores L2 = ||o|| and cosine 0. A head's numerators, unless held, and
    any scores it formed are dropped before the next head's are formed,
    so scoring holds the held numerators plus one of a head's arrays
    (two only while a rescue reads K again) and their temporaries.
    """
    n_heads, _, seq_len, _ = data.shape
    scores = [(np.empty(n_heads), np.empty(n_heads)) for _ in plans]
    for h, block in enumerate(each_head(data)):
        cells = [check_head_plan(plan, layer, h, seq_len) for plan in plans]
        head = _HeadNumerators(block, decode_queries, cells, held[h] if held else None)
        full, retained = head.full, head.retained
        del head  # its numerators go before the next head's are formed
        for (l2, cos), out in zip(scores, retained):
            l2[h] = float(np.linalg.norm(full - out, axis=1).mean())
            cos[h] = float(_rows_cosine(full, out).mean())
    return scores


def score_plans(
    layers, plan_sets: list[list[BudgetPlan]], decode_queries: int
) -> list[FidelityReport]:
    """Each plan set's fidelity over `layers`, one layer at a time: one
    `score_layer` of every set's plan for that layer. The sets are already
    passed through `check_plans`, and `decode_queries` is checked against
    each layer's N."""
    scores = [[] for _ in plan_sets]
    for r, data in enumerate(layers):
        check_decode_queries(decode_queries, data.shape[2])
        layer_plans = [plans[r] for plans in plan_sets]
        for layer_scores, score in zip(scores, score_layer(data, r, layer_plans, decode_queries)):
            layer_scores.append(score)
    return [FidelityReport.from_layers(decode_queries, layers) for layers in scores]


def fidelity_eval(trace, plans: list[BudgetPlan], decode_queries: int) -> FidelityReport:
    """Decode-attention reconstruction error of the plans' cache vs the full
    one over `trace`, any layer source: `score_plans` of the one plan set."""
    return score_plans(trace.layers(), [check_plans(trace.header, plans)], decode_queries)[0]


CSV_HEADER = [
    "policy",
    "budget_ratio",
    "layer",
    "head",
    "head_class",
    "retained_tokens",
    *(f.metadata["cell"] for f in FidelityReport.metrics()),
]
PCA_HEADER = ["layer", "head", "x", "y", "class"]


def build_eval_report(
    config: RunConfig, result: RunResult, contribution: BoundSuiteReport | None = None
) -> dict:
    """A run's report, the JSON object `report.json` holds. Its `schedule`,
    `memory` and `contribution` blocks are their records' fields;
    `infeasible` is there only when a cell was skipped, and `contribution`
    only when a bound suite ran."""
    header = result.header
    pca_blocks = []
    for r, (vectors, classes) in enumerate(zip(result.vectors, result.classes)):
        coords = pca_2d(vectors)
        pca_blocks.append(
            {
                "layer": r,
                "points": [
                    {"head": h, "x": float(x), "y": float(y), "class": head_class.value}
                    for h, ((x, y), head_class) in enumerate(zip(coords, classes))
                ],
            }
        )
    policy_entries = []
    for cell in sorted(result.scores):
        policy, ratio = cell
        fid = result.fidelity(cell)
        tokens = result.head_tokens[cell]
        per_head = [
            [
                {"retained_tokens": tokens[r][h], **fid.head_cell(r, h)}
                for h in range(header.num_heads)
            ]
            for r in range(header.num_layers)
        ]
        policy_entries.append(
            {
                "policy": policy,
                "budget_ratio": ratio,
                "memory": result.memory(cell)._asdict(),
                "fidelity": {**fid.summary(), "per_head": per_head},
            }
        )
    report = {
        "config": config.to_json_dict(),
        "trace": {**header.dims, "source": config.trace_path or "synthetic"},
        "schedule": asdict(result.schedule),
        "classifications": [[c.value for c in classes] for classes in result.classes],
        "distances": [distances.tolist() for distances in result.distances],
        "pca": pca_blocks,
        "policies": policy_entries,
    }
    if result.infeasible:
        report["infeasible"] = result.infeasible
    if contribution is not None:
        report["contribution"] = asdict(contribution)
    return report


def _csv_rows(report: dict) -> Iterator[list]:
    """One `CSV_HEADER` row per (policy, budget, layer, head) of a report."""
    for entry in report["policies"]:
        for r, layer_rows in enumerate(entry["fidelity"]["per_head"]):
            for h, cell in enumerate(layer_rows):
                head_class = report["classifications"][r][h]
                yield [entry["policy"], entry["budget_ratio"], r, h, head_class, *cell.values()]


def _write_bytes(destination, payload: bytes) -> int:
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "wb") as f:
            return f.write(payload)
    return destination.write(payload)


def _write_csv(destination, header: list[str], rows) -> int:
    """`header`, then `rows`, as CSV: each row ends in a bare newline and
    each float is written as its `repr`. Returns the bytes written."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(c) if isinstance(c, float) else c for c in row])
    return _write_bytes(destination, buf.getvalue().encode())


def export_report(report: dict, fmt: str, destination) -> int:
    """Serialize a report as canonical JSON or flat CSV; returns bytes written."""
    if fmt == "json":
        return _write_bytes(destination, (json.dumps(report, indent=2) + "\n").encode())
    if fmt == "csv":
        return _write_csv(destination, CSV_HEADER, _csv_rows(report))
    raise ParameterError(f"unknown report format {fmt!r}")


def export_pca_csv(report: dict, destination) -> int:
    """Per-head 2-D semantic coordinates, one row per (layer, head)."""
    rows = (
        [block["layer"], point["head"], point["x"], point["y"], point["class"]]
        for block in report["pca"]
        for point in block["points"]
    )
    return _write_csv(destination, PCA_HEADER, rows)


def run_all(config: RunConfig, trace, return_result: bool = False):
    """The full pipeline over `trace`, any layer source, including the
    optional bound suite: `run_steps` with fidelity scored, then the report."""
    result = start_run(config, trace.header)
    for _ in run_steps(config, result, trace.layers(), keep_plans=return_result):
        pass
    report = build_eval_report(config, result, bound_suite(config))
    if return_result:
        return report, result
    return report


def bound_suite(config: RunConfig) -> BoundSuiteReport | None:
    """The contribution bound suite a run folds into its report, if it asks for one."""
    if config.contrib_trials > 0:
        return verify_bound_suite(config.seed, config.contrib_trials)
    return None
