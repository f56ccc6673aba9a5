import threading
from concurrent.futures import Future
from types import SimpleNamespace

import pytest
from hypothesis import settings

from partialid import scenarios

# CI runs with --hypothesis-profile=ci, so a property failure there reproduces locally
settings.register_profile("ci", derandomize=True)


@pytest.fixture(autouse=True)
def no_pool_left():
    """Shut down any attempt pool a test started, and check that its threads
    are gone: a live pool keeps a manager thread, and ``os.fork`` in a process
    with other threads warns on Python 3.12."""
    threads = threading.active_count()
    yield
    scenarios.shutdown_attempt_pool()
    assert threading.active_count() == threads


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor, running tasks here.

    Returns the pool sizes asked for (``.sizes``), the pools (``.pools``), the
    argument tuples of the tasks submitted (``.submitted``) and the pools shut
    down (``.shut``).
    Like a pool with a free process per task, it runs every task when it is
    submitted and raises a task's error only when that task's result is read.
    The process's shared attempt pool is cleared before and after the test.
    """
    record = SimpleNamespace(sizes=[], submitted=[], shut=[], pools=[])

    class InProcessPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)
            record.pools.append(self)

        def submit(self, fn, *args):
            record.submitted.append(args)
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            record.shut.append(self)

    scenarios.shutdown_attempt_pool()
    monkeypatch.setattr(scenarios, "ProcessPoolExecutor", InProcessPool)
    yield record
    scenarios.shutdown_attempt_pool()


@pytest.fixture
def pool_sizes(in_process_pool):
    """The stand-in pool's sizes asked for (:func:`in_process_pool`)."""
    return in_process_pool.sizes
