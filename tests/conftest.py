from concurrent.futures import Future
from types import SimpleNamespace

import pytest
from hypothesis import settings

from partialid import scenarios

# CI runs with --hypothesis-profile=ci, so a property failure there reproduces locally
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor, running tasks here.

    Returns the pool sizes asked for (``.sizes``) and the argument tuples of
    the tasks submitted (``.submitted``).  Like a pool with a free process per
    task, it runs every task when it is submitted and raises a task's error
    only when that task's result is read.
    """
    record = SimpleNamespace(sizes=[], submitted=[])

    class InProcessPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def submit(self, fn, *args):
            record.submitted.append(args)
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    monkeypatch.setattr(scenarios, "ProcessPoolExecutor", InProcessPool)
    return record


@pytest.fixture
def pool_sizes(in_process_pool):
    """The stand-in pool's sizes asked for (:func:`in_process_pool`)."""
    return in_process_pool.sizes
