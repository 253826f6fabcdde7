"""Every test runs its head visits in-process unless it forces workers
(`test_workers.py`), so a test that watches a visit from this process sees
it whatever the BLAS setting of the environment the suite runs in.

Also the library compositions several test modules take a run's steps by:
a head's window scores and a layer's plan under a cell."""

import pytest

import semkv.harness as harness
from semkv.allocator import layer_facts
from semkv.linalg import causal_numerators, causal_scores
from semkv.separator import HeadClass, column_scores

# the rule itself, for the tests that apply it
head_workers = harness.head_workers


@pytest.fixture(autouse=True, scope="session")
def _visits_in_process():
    # a patch of its own, which a test's `monkeypatch.undo()` leaves in place
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "head_workers", lambda visits: 1)
        yield


def window_scores(q, k, window):
    """A head's (N,) window scores as a run's head visit takes them:
    `column_scores` of the last `window` query rows' softmax numerators."""
    return column_scores(causal_numerators(*causal_scores(q[len(q) - window :], k)))


def layer_plan(layer, classes, policy, ratio, sinks, recents, window, pooled):
    """One layer's plan under a cell from its heads' classes and pooled
    window scores: the cell's `layer_facts` for the layer, then each head's
    keep under its class."""
    n, seq_len = len(pooled), len(pooled[0])
    f_r = classes.count(HeadClass.HETEROGENEOUS)
    facts = layer_facts(layer, policy, ratio, seq_len, n, f_r, sinks, recents, window)
    return facts.plan(layer, classes, [facts.keep(c, p) for c, p in zip(classes, pooled)])
