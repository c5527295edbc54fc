"""Fixtures shared by the test modules."""

import pytest

from superbunch import _workers


@pytest.fixture
def many_cpus(monkeypatch):
    """Let `_workers.worker_count` see 64 CPUs, more than any test asks threads of.

    A test that checks how work splits over its threads uses this, so it
    covers the same split on a host with fewer CPUs.
    """
    monkeypatch.setattr(_workers, "_cpus", lambda: 64)
