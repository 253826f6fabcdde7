"""Every test runs its head visits in-process unless it forces workers
(`test_workers.py`), so a test that watches a visit from this process sees
it whatever the BLAS setting of the environment the suite runs in."""

import pytest

import semkv.harness as harness

# the rule itself, for the tests that apply it
head_workers = harness.head_workers


@pytest.fixture(autouse=True, scope="session")
def _visits_in_process():
    # a patch of its own, which a test's `monkeypatch.undo()` leaves in place
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "head_workers", lambda visits: 1)
        yield
