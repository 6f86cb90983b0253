"""Fixtures shared across the test tree."""

import pytest

from repro import parallel


@pytest.fixture
def pool_constructions(monkeypatch):
    """Record every spawn-pool construction, from an empty pool registry.

    Counts the way the benchmark tracer does: a ``ProcessPoolExecutor``
    subclass patched over ``repro.parallel.ProcessPoolExecutor``.  The
    shared pools are shut down first so reuse of a pool an earlier test
    built cannot hide a construction.
    """
    parallel._shutdown_pools()
    built = []

    class CountedProcessPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountedProcessPool)
    return built
