"""Pipeline orchestration: classify heads, plan budgets, score fidelity, export.

A run is one loop over a trace's layers. `start_run` decides from the
header alone, before any layer is read, the schedule f(r), each
(policy, budget) cell's facts for every layer (`allocator.layer_facts`:
B, k, the clamp, or the error that makes the cell infeasible) and the
decode-query count. Then `layer_step` runs on each layer in turn: one
visit of each head, which scores it and plans it under each class from
its cells' facts for the layer, then classification and a plan per cell
from its heads' keeps. A layer's plans are dropped before the next
layer is read. The CLI reads every trace, drawn ones too, as a mapped
file, so its peak is one head's visit: a few MiB of one of its arrays,
its numerators and their temporaries. The library functions
(`compress_run`, `run_all`, `fidelity_eval`) take any layer source: an
`AttentionTrace` in memory, or the source `open_source` gives for a
config. Saved plans are scored by `score_plans`, one layer at a time, for
`fidelity_eval` and `semkv eval` alike.

Head visits are independent until a layer is classified. When BLAS
leaves CPUs free (`head_workers`), `run_steps` and `score_plans` hand
them to processes forked from the run, one per free CPU: each worker
reads the heads it is given through its own reading of the source (its
`head_reader`), which checks their values as the source's layers would
be checked, and returns only a head's vector, keeps and scores. The
parent takes them in (layer, head) order and makes each layer's plans
from them as `layer_step` does, so every output is the in-process run's
bytes at the same BLAS setting.

Fidelity is measured the way a decoder with an evicted cache behaves: for the
last `decode_queries` query rows, attention outputs over the retained K/V
entries (softmax renormalized over the retained, causally visible set) are
compared against outputs over the full cache. This is a proxy for task-level
quality; it needs no language model.

A head's keys meet queries in one kernel, `linalg.causal_scores`. When
fidelity is scored on the window's own rows, the default decode rows, a
head's visit calls it once: the window's softmax numerators give both its
window scores and its fidelity, and the group scores are taken from the
scores before the exp. Any other decode count forms the decode rows'
scores with a second call (see `_HeadNumerators`). Every pass walks a
layer's heads through `trace.each_head`, which owns each head block's
residency, and reads one of a head's arrays at a time: a visit, like
`score_layer`, is done with a head's Q and K before it reads V.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import sys
import threading
from collections.abc import Iterator, Mapping
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .allocator import (
    _NO_RANGES,
    BudgetPlan,
    HeadPlan,
    LayerFacts,
    MemoryFootprint,
    PolicyKind,
    check_kernel,
    check_plans,
    footprint,
    group_means,
    layer_facts,
    pool_scores,
    policy_kind,
)
from .contribution import BoundSuiteReport, verify_bound_suite
from .errors import InfeasibleBudgetError, ParameterError, SemkvError, WorkerError
from .linalg import _KEY_BLOCK, _key_blocks, causal_numerators, causal_scores, pca_2d
from .separator import (
    HeadClass,
    HeterogeneitySchedule,
    approx_semantic_vector,
    build_layer_profiles,
    check_top_t,
    check_window_len,
    column_scores,
    heterogeneous_schedule,
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
    (`window_rows`), each feasible cell's `LayerFacts` per layer (`facts`),
    the infeasible cells (one {"policy", "budget_ratio", "message"} entry
    per cell left unplanned because its budget cannot hold some layer's
    heterogeneous heads) and the decode-query count when fidelity is
    scored. `vectors`, `distances` and `classes` hold each layer's (n, d)
    semantic vectors, (n,) distances to its semantic center and head
    classes. `plans` holds every layer's plan per cell only for callers
    that keep them; `head_tokens` and `scores` hold what a report needs of
    them.
    """

    header: TraceHeader
    schedule: HeterogeneitySchedule
    window_len: int
    facts: dict[Cell, list[LayerFacts]] = field(default_factory=dict)
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
    gets its facts for every layer, `layer_facts` mapped over f(r): a bad
    parameter raises ParameterError, the cells whose budget cannot hold
    some layer's heterogeneous heads are listed once each in `infeasible`,
    with the error of the first such layer, and when no cell is feasible
    the first one's error is raised. With `score`, the decode-query count
    is checked.
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
        (policy_kind(policy).value, ratio)
        for policy in (config.policies if plan else ())
        for ratio in config.budget_ratios
    )
    for policy, ratio in cells:
        try:
            result.facts[(policy, ratio)] = [
                layer_facts(
                    r, policy, ratio, header.seq_len, header.num_heads, f_r,
                    config.sinks, config.recents, window_len,
                )
                for r, f_r in enumerate(schedule.per_layer_counts)
            ]
        except InfeasibleBudgetError as exc:
            result.infeasible.append({"policy": policy, "budget_ratio": ratio, "message": str(exc)})
    if result.infeasible and not result.facts:
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


def layer_step(
    config: RunConfig, result: RunResult, layer: int, data: np.ndarray
) -> dict[Cell, BudgetPlan]:
    """One layer of the started run `result`, on its checked (n, 3, N, d)
    `data`, recorded into `result`; returns the layer's plan per cell.

    Each head is visited once (`_visit_head`), which reads its Q and K,
    then its V: its window scores, its keep under each class for every
    cell, its top-t semantic vector and, when fidelity is scored (the run's
    `decode_queries`), each keep's scores. Each cell's facts for the layer
    (B, k, the clamp) are read from `result.facts`, which `start_run`
    fixed from the header and f(r), so every head is planned before the
    layer is classified. Then `_layer_plans` classifies the heads and plans
    each cell from the visits.
    """
    visit = _head_visit(config, result, layer)
    with _in_layer(layer):
        visits = [visit(block) for block in each_head(data)]
    return _layer_plans(result, layer, visits)


@contextlib.contextmanager
def _in_layer(layer: int) -> Iterator[None]:
    """A `with` block whose `SemkvError` is raised again naming `layer`."""
    try:
        yield
    except SemkvError as exc:
        raise type(exc)(f"layer {layer}: {exc}") from exc


def _head_visit(config: RunConfig, result: RunResult, layer: int):
    """`_visit_head` of a block of layer `layer`, with the layer's facts
    and groups per cell."""
    facts = {cell: layers[layer] for cell, layers in result.facts.items()}
    groups = [f.groups() for f in facts.values()]
    return functools.partial(_visit_head, config, result, facts, groups)


def _layer_plans(result: RunResult, layer: int, visits: list) -> dict[Cell, BudgetPlan]:
    """Layer `layer`'s plan per cell from its heads' visits (`_visit_head`'s),
    in head order, recorded into `result`.

    The heads are classified from f(r), and each cell's plan is its heads'
    keeps under their classes, scored with those keeps' scores. `result`
    gets the layer's semantic vectors, distances to its semantic center,
    head classes, each plan's per-head tokens and, when scored, its
    per-head (L2, cosine) arrays.
    """
    vectors = np.array([vector for vector, _, _ in visits])
    with _in_layer(layer):
        distances, classes = build_layer_profiles(vectors, result.schedule.per_layer_counts[layer])
    plans = {
        cell: layers[layer].plan(
            layer, classes, [keeps[cell][c] for (_, keeps, _), c in zip(visits, classes)]
        )
        for cell, layers in result.facts.items()
    }
    result.vectors.append(vectors)
    result.distances.append(distances)
    result.classes.append(classes)
    result.add_head_tokens(plans)
    if result.decode_queries is not None:
        for cell in plans:
            pairs = [scored[cell][c] for (_, _, scored), c in zip(visits, classes)]
            result.scores.setdefault(cell, []).append(tuple(map(np.array, zip(*pairs))))
    return plans


def _visit_head(config: RunConfig, result: RunResult, facts: dict, groups: list, block):
    """One head's visit in `layer_step`, from its (3, N, d) block as stored:
    its (d,) semantic vector, its keep under each class per cell
    (`LayerFacts.keep_by_class`) and, when fidelity is scored, each of
    those keeps' (L2, cosine), likewise per cell and class (else None).

    Over Q's last rows and K, `_HeadNumerators` forms the window's softmax
    numerators, taking first the scores of `groups` (each cell's
    `LayerFacts.groups`) from the window scores S when the decode rows are
    the window's, and `column_scores` gives the head's window scores from
    them. When the decode rows are not the window's, the window's
    numerators are dropped and the decode rows' formed in their place.
    Then Q's and K's pages are given back. The window scores, pooled when
    some cell is planned, give every keep. Over V: the top-t semantic
    vector, then one value pass that scores each distinct keep
    (`_HeadNumerators.fidelity`).
    """
    window_len, decode_queries = result.window_len, result.decode_queries
    head = None
    with given_back(block[:2]):  # Q and K are done with before V is read
        if decode_queries == window_len:
            head = _HeadNumerators(block, window_len, groups)
            scores = column_scores(head.numerators)
        else:
            scores = column_scores(_HeadNumerators(block, window_len).numerators)
            if decode_queries is not None:
                head = _HeadNumerators(block, decode_queries, groups)
    pooled = pool_scores(scores, config.kernel) if facts else None
    keeps = {cell: f.keep_by_class(pooled) for cell, f in facts.items()}
    vector = approx_semantic_vector(scores, block[2], config.top_t)
    if head is None:
        return vector, keeps, None
    scored = iter(head.fidelity([keep for by_class in keeps.values() for keep in by_class.values()]))
    return vector, keeps, {cell: dict(zip(by_class, scored)) for cell, by_class in keeps.items()}


def run_steps(
    config: RunConfig, result: RunResult, source, keep_plans: bool = False, meanwhile=None
) -> Iterator[dict[Cell, BudgetPlan]]:
    """`layer_step` on each layer of `source`, any layer source, in turn,
    recorded into `result`.

    Each layer's plans are yielded before the next layer is read, so a
    caller can write them out; only with `keep_plans` does `result.plans`
    hold them too. When `head_workers` gives more than one worker, forked
    workers make the head visits instead (`_each_layer`), and each layer's
    plans come from its visits by `_layer_plans`, as in `layer_step`.
    `meanwhile`, if given, is called once: while workers make the visits,
    or after the last layer when they are made in-process (`_each_layer`).
    """

    def in_worker(layer: int, head: int, block: np.ndarray):
        with _in_layer(layer):
            return _head_visit(config, result, layer)(block)

    in_process = functools.partial(layer_step, config, result)
    from_visits = functools.partial(_layer_plans, result)
    with _each_layer(source, in_process, in_worker, from_visits, meanwhile) as steps:
        for plans in steps:
            if keep_plans:
                for cell, plan in plans.items():
                    result.plans.setdefault(cell, []).append(plan)
            yield plans


# The variables OpenBLAS, numpy's BLAS, takes its thread count from, in the
# order it reads them; a count below 1, or no count, is no setting.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def worker_count(visits: int, cpus: int, environ: Mapping[str, str], can_fork: bool) -> int:
    """The processes that make `visits` head visits: one per CPU that BLAS
    leaves free, `cpus // BLAS threads`, and at most one per visit, or 1 (the
    visits are made in-process) without the `fork` start method. BLAS
    threads are the first positive count of `_BLAS_THREAD_VARS` in
    `environ`, else OpenBLAS's default of one per CPU, so with no setting
    every visit is made in-process and no CPU runs two BLAS threads."""
    if not can_fork:
        return 1
    counts = [_positive(environ.get(name)) for name in _BLAS_THREAD_VARS]
    threads = next((n for n in counts if n), cpus)
    return max(1, min(cpus // threads, visits))


def _positive(text: str | None) -> int:
    """`text` as a positive count, else 0."""
    try:
        return max(int(text), 0)
    except (TypeError, ValueError):
        return 0


def head_workers(visits: int) -> int:
    """`worker_count` on this process's usable CPUs, environment and start
    methods. A process that runs another Python thread is not forked, since
    the child would inherit that thread's locks as it held them; OpenBLAS's
    own threads do not count, as its fork handler ends them before the fork."""
    # the `fork` start method is `os.fork`; asking `multiprocessing` would
    # load it into every run, where only `_forked` needs it
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    return worker_count(visits, _usable_cpus(), os.environ, can_fork)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's CPUs where the
    platform cannot say (`os.sched_getaffinity` is not on macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _each_layer(
    source, in_process, in_worker, from_visits, meanwhile=None
) -> Iterator[Iterator]:
    """For a `with` block, what each layer of `source`, any layer source,
    gives, in layer order: `in_process(r, data)` of each of its layers,
    or, when `head_workers` gives more than one worker for its head visits,
    `from_visits(r, visits)` of the list of the layer's `in_worker(r, h,
    block)`, in head order, made by that many processes forked on entry
    (`_forked`). A worker reads each head's block through its own reading
    of `source` (`head_reader`), which checks its values as the source's
    layers are checked, and gives it back once visited (`_read_head`).
    `meanwhile`, if given, is called once every head visit is handed out,
    so it runs while the workers make them, or, in-process, once the `with`
    block ends without an error.
    """
    header = source.header
    tasks = [(r, h) for r in range(header.num_layers) for h in range(header.num_heads)]
    workers = head_workers(len(tasks))
    meanwhile = meanwhile or (lambda: None)
    if workers == 1:
        yield (in_process(r, data) for r, data in enumerate(source.layers()))
        meanwhile()
        return
    with source.head_reader() as heads, _forked(
        functools.partial(_read_head, heads, in_worker), tasks, workers
    ) as visits:
        meanwhile()
        yield (
            from_visits(r, [next(visits) for _ in range(header.num_heads)])
            for r in range(header.num_layers)
        )


def _read_head(heads, visit, layer: int, head: int):
    """`visit(layer, head, block)` of the block `heads(layer, head)` gives,
    which is given back once visited."""
    block = heads(layer, head)
    with given_back(block):
        return visit(layer, head, block)


_task = None  # in a worker process, the function `_forked` maps

_PR_SET_PDEATHSIG = 1  # Linux prctl(2): the signal a process gets when its parent ends


def _start_worker(task, parent: int) -> None:
    """A worker's start: it keeps `task` for `_call_task` and, on Linux,
    is killed when its parent ends first, by SIGKILL too, which would
    otherwise leave it waiting for tasks forever."""
    import ctypes
    import signal

    global _task
    _task = task
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # it ended before the worker asked
            os._exit(1)


def _call_task(args: tuple):
    return _task(*args)


@contextlib.contextmanager
def _forked(task, tasks: list[tuple], workers: int) -> Iterator[Iterator]:
    """For a `with` block, `task(*args)` of each of `tasks`, in order, made
    by `workers` processes forked from this one as every task is handed
    out, on entry. `task` reaches them through the fork, not by pickling,
    and only the tasks' arguments and results are pickled. A worker's error
    is raised when its result is reached, and a worker that dies raises
    `WorkerError`. On leaving, by an error too, the tasks not yet started
    are cancelled and the workers joined; a worker whose parent is killed
    ends with it (`_start_worker`)."""
    # imported here, so that a run that makes its visits in-process loads neither
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _start_worker, (task, os.getpid())
    )
    try:
        yield pool.map(_call_task, tasks)
    except BrokenExecutor as exc:
        raise WorkerError(f"a worker process ended before its visits were made ({exc})") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def compress_run(config: RunConfig, trace) -> RunResult:
    """Window scores -> semantic vectors -> classification -> plans, layer by
    layer, over `trace`, any layer source.

    A cell whose budget cannot hold its heterogeneous heads is recorded in
    `infeasible` and the other cells are planned; when no cell is feasible
    the first cell's error is raised before any layer is computed.
    """
    result = start_run(config, trace.header, score=False)
    for _ in run_steps(config, result, trace, keep_plans=True):
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
    """The cosine of each row of (rows, d) `a` with the same row of `b`,
    (..., rows, d): 1 where both rows are zero, 0 where one is."""
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    out = np.ones(nb.shape)
    both = (na > 0) & (nb > 0)
    a, na = np.broadcast_to(a, b.shape), np.broadcast_to(na, nb.shape)
    out[both] = np.sum(a[both] * b[both], axis=-1) / (na[both] * nb[both])
    out[(na > 0) ^ (nb > 0)] = 0.0
    return out


# A retained denominator under the shared shift outside [1 / _SAFE, _SAFE]
# means the row's retained exponentials underflowed (or, through a group
# mean above the row max, grew huge); such a row is rescored with its own
# retained max.
_SAFE = 2.0**600


class _HeadNumerators:
    """One head's softmax numerators over its last `decode_queries` query
    rows, formed over those rows of Q and over K, and the decode outputs of
    its full cache and of any of its plans from one pass over its V.

    The decode rows' causal scores S (`causal_scores`), (N, decode_queries),
    first give the scores of each distinct non-empty one of `groups` ((g, 2)
    [start, stop) bounds) that the plans scored later may hold: the mean
    of its keys' scores, since a mean key scores the mean of its keys'
    scores. Then `numerators` is E = exp(S - shift) formed in place on S, 0
    where a row does not see the key, and `shift` each row's max over the
    keys it sees. Q and K are not read again, unless a rescued row needs
    S's own bits (`scores`).
    """

    def __init__(self, block: np.ndarray, decode_queries: int, groups=()):
        seq_len = block.shape[1]
        self._block, self.rows = block, np.arange(seq_len - decode_queries, seq_len)
        scores, self.shift = causal_scores(block[0, seq_len - decode_queries :], block[1])
        self._group_scores = {}
        for bounds in groups:
            if len(bounds) and bounds.tobytes() not in self._group_scores:
                self._group_scores[bounds.tobytes()] = group_means(scores, bounds)
        self.numerators = causal_numerators(scores, self.shift)

    def scores(self) -> np.ndarray:
        """The decode rows' causal scores S, (N, decode_queries), formed
        again: the bits E was formed from."""
        return causal_scores(self._block[0, self.rows[0] :], self._block[1])[0]

    def fidelity(self, keeps) -> list[tuple[float, float]]:
        """Each of `keeps`' (its (r, 2) runs and (g, 2) groups, or None)
        decode L2 error and cosine against the full cache, each a mean over
        the decode rows. Each distinct keep is scored once, and one that
        keeps every position is the full cache itself: L2 0 and the full
        outputs' own cosine, which is not always exactly 1."""
        seq_len = self._block.shape[1]
        index = {(np.array([[0, seq_len]], dtype=np.intp).tobytes(), b""): 0}
        heads, at = [], []
        for runs, groups in keeps:
            key = (runs.tobytes(), b"" if groups is None else groups.tobytes())
            if key not in index:
                index[key] = len(index)
                heads.append(HeadPlan.of(runs, groups))
            at.append(index[key])
        outputs = self.outputs(heads)
        full = outputs[0]
        l2 = np.linalg.norm(full - outputs, axis=-1).mean(axis=-1)
        cosine = _rows_cosine(full, outputs).mean(axis=-1)
        return [(float(l2[i]), float(cosine[i])) for i in at]

    def outputs(self, heads=()) -> np.ndarray:
        """The decode outputs, (1 + len(heads), decode_queries, d), of the
        full cache, the plan that keeps every position with no groups, then
        of each of `heads` (each a `HeadPlan`): its retained rows and group
        means, renormalised over its own rows. A head that keeps every
        position adds what the full plan adds, in the same order, so its
        outputs are the full cache's bits."""
        values = self._block[2]
        heads = [HeadPlan(np.arange(len(values)), _NO_RANGES), *heads]
        outputs, totals = self._value_pass(values, heads)
        for head, out, total in zip(heads, outputs, totals):
            self._cell_output(values, head, out, total)
        return outputs

    def _value_pass(self, values: np.ndarray, heads) -> tuple[np.ndarray, np.ndarray]:
        """Each head's products of its retained rows' numerators and V rows,
        (heads, decode_queries, d), and their sums, (heads, decode_queries).

        V is widened one key block at a time, once for every head. A
        block's numerators give its partial product E[b]^T V[b] and row
        sums. A head that keeps the whole block adds that partial and those
        sums, with no gather; a head that keeps part of it gathers only
        those rows from the widened block.
        """
        decode_queries, head_dim = self.numerators.shape[1], values.shape[1]
        # each head's retained positions cut at the key-block edges
        edges = np.append(np.arange(0, len(values), _KEY_BLOCK), len(values))
        cuts = np.array([np.searchsorted(head.retained, edges) for head in heads])
        products = np.zeros((len(heads), decode_queries, head_dim))
        totals = np.zeros((len(heads), decode_queries))
        for b, (at, rows) in enumerate(_key_blocks(values)):
            weights = self.numerators[at]
            partial, row_sums = weights.T @ rows, weights.sum(axis=0)
            for h, (lo, hi) in enumerate(cuts[:, b : b + 2]):
                if hi - lo == len(rows):
                    products[h] += partial
                    totals[h] += row_sums
                elif hi > lo:
                    kept = heads[h].retained[lo:hi]
                    picked = weights[kept - at.start]
                    products[h] += picked.T @ rows[kept - at.start]
                    totals[h] += picked.sum(axis=0)
        return products, totals

    def _cell_output(
        self, values: np.ndarray, head: HeadPlan, out: np.ndarray, total: np.ndarray
    ) -> np.ndarray:
        """Decode outputs over the head's retained rows and group means,
        (decode_queries, d), finished in place in `out`, the product of its
        retained rows' numerators and V rows, with `total`, their sums.

        A group's mean row weighs exp(its group score - shift), since the
        score of a mean key is the mean of the keys' scores. A decode row
        before the head's first cache position sees nothing, and its output
        is zero. A row whose total leaves [1 / _SAFE, _SAFE] is rescored
        with its own retained max over the gathered rows.
        """
        idx, groups = head.retained, head.groups
        first = int(min([*idx[:1], *groups[:1, 0]], default=self.rows[-1] + 1))
        blind = min(max(first - int(self.rows[0]), 0), len(self.rows))
        group_scores = np.empty((0, len(self.rows)))
        group_values = np.empty((0, values.shape[1]))
        if len(groups):
            group_scores = self._group_scores[groups.tobytes()]
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
    data: np.ndarray, plans: list[BudgetPlan], decode_queries: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-head decode L2 error and cosine of each of one layer's `plans`
    against the full cache, over the last `decode_queries` query rows.

    Plans are read unchecked: `check_plans` passed them or a run built them.
    Scoring is head-major, with the per-head scorer a run's head visit
    uses, given one keep per plan: `_HeadNumerators` forms the head's
    softmax numerators, under each decode row's full-cache max, and the
    scores of its plans' groups, over its decode rows of Q and its K, whose
    pages are then given back; one pass over its V key blocks gives the
    full cache's outputs o and every distinct keep's retained outputs
    (`_HeadNumerators.fidelity`): a plan that keeps every position is o
    itself, L2 0 and o's self-cosine (not always 1). A row whose retained
    numerators underflow under that shared shift is rescored with the
    cell's own retained max. A decode row that sees no retained key
    attends to nothing: its retained output is zero, so it scores
    L2 = ||o|| and cosine 0. A head's numerators are dropped before the
    next head's are formed, so scoring holds one of a head's arrays (two
    only while a rescue reads K again) and their temporaries.
    """
    return _layer_scores(
        [_score_head(plans, decode_queries, h, block) for h, block in enumerate(each_head(data))]
    )


def _score_head(plans: list[BudgetPlan], decode_queries: int, head: int, block: np.ndarray):
    """Head `head`'s (L2, cosine) under each of `plans`, from its (3, N, d)
    `block`, as `score_layer` scores it; its numerators are dropped on
    return, before the next head's are formed."""
    keeps = [plan.head_keep(head) for plan in plans]
    with given_back(block[:2]):  # Q and K are done with before V is read
        numerators = _HeadNumerators(block, decode_queries, [g for _, g in keeps if g is not None])
    return numerators.fidelity(keeps)


def _layer_scores(heads: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per plan, the (n,) L2 and cosine arrays of a layer's heads' (L2,
    cosine) per plan, given in head order."""
    return [tuple(map(np.array, zip(*pairs))) for pairs in zip(*heads)]


def score_plans(
    source, plan_sets: list[list[BudgetPlan]], decode_queries: int
) -> list[FidelityReport]:
    """Each plan set's fidelity over `source`, any layer source, one layer
    at a time: one `score_layer` of every set's plan for that layer, or,
    when `head_workers` gives more than one worker, each head scored by a
    forked worker (`_each_layer`). The sets are already passed through
    `check_plans`; `decode_queries` is checked against N before any layer
    is read."""
    header = source.header
    check_decode_queries(decode_queries, header.seq_len)
    layer_plans = [[plans[r] for plans in plan_sets] for r in range(header.num_layers)]
    scores = [[] for _ in plan_sets]

    def in_process(r: int, data: np.ndarray):
        return score_layer(data, layer_plans[r], decode_queries)

    def in_worker(r: int, h: int, block: np.ndarray):
        return _score_head(layer_plans[r], decode_queries, h, block)

    def from_visits(r: int, heads: list):
        return _layer_scores(heads)

    with _each_layer(source, in_process, in_worker, from_visits) as layers:
        for layer_scores in layers:
            for plan_scores, score in zip(scores, layer_scores):
                plan_scores.append(score)
    return [FidelityReport.from_layers(decode_queries, layers) for layers in scores]


def fidelity_eval(trace, plans: list[BudgetPlan], decode_queries: int) -> FidelityReport:
    """Decode-attention reconstruction error of the plans' cache vs the full
    one over `trace`, any layer source: `score_plans` of the one plan set."""
    return score_plans(trace, [check_plans(trace.header, plans)], decode_queries)[0]


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
    suite = run_with_suite(config, result, trace, keep_plans=return_result)
    report = build_eval_report(config, result, suite)
    if return_result:
        return report, result
    return report


def run_with_suite(
    config: RunConfig, result: RunResult, source, keep_plans: bool = False, each_layer=None
) -> BoundSuiteReport | None:
    """`run_steps` of the started `result` over `source`, each layer's plans
    given to `each_layer`, if given, before the next layer is read; then
    `bound_suite(config)`. The suite runs while workers visit the heads, on
    the CPU their last visits leave idle, or in-process after the last
    layer. An error in `each_layer` stops the steps, and any workers, at once.
    """
    suite = functools.cache(functools.partial(bound_suite, config))
    with contextlib.closing(run_steps(config, result, source, keep_plans, suite)) as steps:
        for plans in steps:
            if each_layer is not None:
                each_layer(plans)
    return suite()


def bound_suite(config: RunConfig) -> BoundSuiteReport | None:
    """The contribution bound suite a run folds into its report, if it asks for one."""
    if config.contrib_trials > 0:
        return verify_bound_suite(config.seed, config.contrib_trials)
    return None
