"""A dense reference of the pipeline, written from README's definitions alone.

Plain numpy in float64 over one head's whole arrays at a time: a row-major
masked softmax, the observation window's column means, the top-t semantic
vector, pooling, the schedule f(r), the classification rule, each
policy's keep as README's policy table states it, and each decode row's
softmax over the cache a plan keeps, under that row's own max. It shares
no kernel with the code it checks: it imports nothing from semkv
(`test_reference.py` holds it to that).

`reference_run` gives what `compress_run`, `run_all` and `score_plans`
give: head classes, each cell's keeps as position and group sets, the
infeasible cells, and each head's decode L2 and cosine.
"""

import math
from dataclasses import dataclass, field

import numpy as np

HEAD_AWARE = ("task-kv", "no-cache", "compressed-cache")


def attention(queries, query_positions, keys, key_positions) -> np.ndarray:
    """(rows, keys) softmax of Q K^T / sqrt(d), each row over the keys at or
    before its position and shifted by its own max; a row that sees no key
    is all zero."""
    seen = key_positions[None, :] <= query_positions[:, None]
    blind = ~seen.any(axis=1, keepdims=True)
    scores = np.where(seen, queries @ keys.T / math.sqrt(keys.shape[1]), -np.inf)
    shift = np.where(blind, 0.0, scores.max(axis=1, keepdims=True, initial=-np.inf))
    weights = np.exp(scores - shift)
    return weights / np.where(blind, 1.0, weights.sum(axis=1, keepdims=True))


def window_scores(q, k, window: int) -> np.ndarray:
    """(N,) column means of the causal attention of the last `window` query rows."""
    n = len(k)
    return attention(q[n - window :], np.arange(n - window, n), k, np.arange(n)).mean(axis=0)


def top(values, t: int) -> list[int]:
    """Sorted indices of the min(t, len) largest values, ties to the lower index."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return sorted(order[:t])


def semantic_vector(scores, v, t: int) -> np.ndarray:
    """The sum of C[i] V[i] over the top-t window scores C."""
    picked = top(scores, t)
    return scores[picked] @ v[picked]


def exact_semantic_vector(q, k, v) -> np.ndarray:
    """(Column means of the full causal attention) @ V."""
    return window_scores(q, k, len(k)) @ v


def pool(scores, kernel: int) -> np.ndarray:
    """The centered moving average of an odd kernel, each window cut at the edges."""
    half, n = kernel // 2, len(scores)
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(i - half, 0), min(i + half + 1, n)
        total = 0.0
        for j in range(lo, hi):
            total += scores[j]
        out[i] = total / (hi - lo)
    return out


def schedule(n: int, beta: float, m: int, layers: int) -> list[int]:
    """f(r) = n beta - (n beta - m) / (R - 1) r, rounded half away from zero; m when R = 1."""
    if layers == 1:
        return [m]
    nb = n * beta
    return [math.floor(nb - (nb - m) / (layers - 1) * r + 0.5) for r in range(layers)]


def distances(vectors: np.ndarray) -> np.ndarray:
    """Each head's distance to the mean of the layer's vectors."""
    return np.linalg.norm(vectors - vectors.mean(axis=0), axis=1)


def classify(vectors: np.ndarray, f: int) -> list[bool]:
    """Whether each head is heterogeneous: the f - 1 heads farthest from
    the mean of the layer's vectors and the closest of the rest; none when
    f = 0. Distances within 16 float64 epsilons of the longest vector are
    ties, which go to the lower index."""
    tie = 16 * np.finfo(np.float64).eps * max(np.linalg.norm(v) for v in vectors)
    far = distances(vectors)
    chosen, heads = [], range(len(vectors))
    for turn in range(f):
        rest = [h for h in heads if h not in chosen]
        edge = min(far[rest]) if turn == f - 1 else max(far[rest])
        chosen.append(min(h for h in rest if abs(far[h] - edge) <= tie))
    return [h in chosen for h in heads]


class Infeasible(Exception):
    """A head-aware budget below N f(r)."""


@dataclass(frozen=True)
class Cell:
    """One (policy, budget ratio) cell of a run, with the run's sinks,
    recents and window rows, min(L, N)."""

    policy: str
    ratio: float
    sinks: int
    recents: int
    window: int

    def keeps(self, n: int, f: int, heterogeneous, pooled) -> list:
        """Each head's (sorted positions, [(start, stop)] groups) in a layer
        whose f heterogeneous heads of n are marked in `heterogeneous`, from
        their pooled window scores; raises Infeasible."""
        seq = len(pooled[0])
        budget = math.floor(self.ratio * seq * n)
        everything = list(range(seq)), []
        if self.policy == "full":
            return [everything] * n
        if self.policy not in HEAD_AWARE:
            per_head = budget // n
            if per_head >= seq:
                return [everything] * n
            return [self.uniform_keep(per_head, scores) for scores in pooled]
        if budget < seq * f:
            raise Infeasible
        if f == n:
            return [everything] * n
        k = max((budget - seq * f) // (n - f) - self.sinks - self.recents, 0)
        return [
            everything if het else self.head_aware_keep(k, scores)
            for het, scores in zip(heterogeneous, pooled)
        ]

    def uniform_keep(self, per_head: int, pooled) -> tuple:
        """streaming: the first s1 and the last B/n - s1 positions;
        uniform-topk: the last min(L, B/n) positions and the top B/n - L
        pooled ones before the window."""
        seq = len(pooled)
        if self.policy == "streaming":
            s = min(self.sinks, per_head)
            return sorted({*range(s), *range(seq - (per_head - s), seq)}), []
        w = min(self.window, per_head)
        picked = top(pooled[: seq - self.window], per_head - w) if per_head > w else []
        return sorted({*picked, *range(seq - w, seq)}), []

    def head_aware_keep(self, k: int, pooled) -> tuple:
        """A non-heterogeneous head's sinks, recents and k middle slots:
        the top k pooled middle positions (task-kv), k more recents
        (no-cache) or k group means over the middle (compressed-cache)."""
        seq = len(pooled)
        lo, hi = self.sinks, max(seq - self.recents, self.sinks)
        recents = self.recents + (k if self.policy == "no-cache" else 0)
        kept = {*range(min(self.sinks, seq)), *range(max(seq - recents, 0), seq)}
        groups = []
        if self.policy == "task-kv":
            kept |= {lo + i for i in top(pooled[lo:hi], k)}
        if self.policy == "compressed-cache" and k and hi > lo:
            # the middle cut at the truncated points of an even split
            cuts = np.linspace(lo, hi, min(k, hi - lo) + 1).astype(int).tolist()
            groups = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
        return sorted(kept), groups


def outputs(block, decode: int, positions, groups) -> tuple[np.ndarray, np.ndarray]:
    """A head's (decode, d) outputs over its last `decode` query rows, of
    its full cache and of the cache that holds its K/V rows at `positions`
    and one mean K/V row per group, which sits at the group's start."""
    q, k, v = block
    n, d = k.shape
    rows = np.arange(n - decode, n)
    full = attention(q[rows], rows, k, np.arange(n)) @ v
    means = [(k[a:b].mean(axis=0), v[a:b].mean(axis=0)) for a, b in groups]
    cache_k = np.concatenate([k[positions], np.reshape([m for m, _ in means], (-1, d))])
    cache_v = np.concatenate([v[positions], np.reshape([m for _, m in means], (-1, d))])
    at = np.array([*positions, *(a for a, _ in groups)], dtype=int)
    return full, attention(q[rows], rows, cache_k, at) @ cache_v


def fidelity(block, decode: int, positions, groups) -> tuple[float, float]:
    """A head's decode L2 error and cosine of its `outputs`, each a mean
    over the rows. Cosine is 1 where both outputs are zero, 0 where one is."""
    full, out = outputs(block, decode, positions, groups)
    cosines = []
    for a, b in zip(full, out):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        cosines.append(a @ b / (na * nb) if na and nb else 1.0 if na == nb == 0 else 0.0)
    return float(np.linalg.norm(full - out, axis=1).mean()), float(np.mean(cosines))


@dataclass
class Reference:
    """A run's outcome: each layer's semantic vectors, their distances and
    head classes (True for heterogeneous); per feasible cell, each layer's
    keeps and, when scored, each head's (L2, cosine); and the infeasible
    cells."""

    vectors: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    keeps: dict = field(default_factory=dict)
    scores: dict = field(default_factory=dict)
    infeasible: list = field(default_factory=list)


def reference_run(data, cells, beta, top_m, top_t, window, kernel, decode=None) -> Reference:
    """The pipeline over (R, n, 3, N, d) `data` with `window` rows: each
    head's window scores and top-t semantic vector, each layer's classes
    from f(r), each cell's keeps from the pooled scores and, with `decode`
    rows, their fidelity. A cell infeasible in some layer is planned in none."""
    layers, n = data.shape[:2]
    counts = schedule(n, beta, top_m, layers)
    ref = Reference()
    for r, layer in enumerate(data):
        scores = [window_scores(q, k, window) for q, k, _ in layer]
        vectors = np.array([semantic_vector(s, v, top_t) for s, (_, _, v) in zip(scores, layer)])
        ref.vectors.append(vectors)
        ref.distances.append(distances(vectors))
        ref.classes.append(classify(vectors, counts[r]))
        pooled = [pool(s, kernel) for s in scores]
        for cell in cells:
            if cell in ref.infeasible:
                continue
            try:
                keeps = cell.keeps(n, counts[r], ref.classes[-1], pooled)
            except Infeasible:
                ref.keeps.pop(cell, None)
                ref.infeasible.append(cell)
                continue
            ref.keeps.setdefault(cell, []).append(keeps)
    if decode is not None:
        for cell, layer_keeps in ref.keeps.items():
            ref.scores[cell] = [
                [fidelity(block, decode, *keep) for block, keep in zip(blocks, keeps)]
                for blocks, keeps in zip(data, layer_keeps)
            ]
    return ref
