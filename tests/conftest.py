import multiprocessing
import threading
from types import SimpleNamespace

import pytest
from hypothesis import settings

from partialid import scenarios

# CI runs with --hypothesis-profile=ci, so a property failure there reproduces locally
settings.register_profile("ci", derandomize=True)


@pytest.fixture(autouse=True)
def no_pool_left():
    """Shut down any attempt pool a test started, and check that its processes
    are gone and that no thread was left: ``os.fork`` in a process with other
    threads warns on Python 3.12."""
    threads = threading.active_count()
    yield
    scenarios.shutdown_attempt_pool()
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for the processes and pipes of the attempt pool, running shares here.

    Returns the pools started (``.pools``, each the list of (end, process)
    pairs :data:`scenarios._pool` holds) and their sizes (``.sizes``), the
    ``(task, attempt range)`` pairs sent (``.submitted``) and the pools shut
    down (``.shut``).
    Like a pool with a free process per share, it runs a share when it is
    sent, and hands back its outcome or its error when its reply is read.
    The process's shared attempt pool is cleared before and after the test.
    """
    record = SimpleNamespace(sizes=[], submitted=[], shut=[], pools=[])

    class End:  # the parent's end of a pool process's pipe
        def __init__(self):
            self.replies = []

        def send(self, args):
            record.submitted.append(args)
            task, share = args
            try:
                self.replies.append(task(share))
            except Exception as exc:
                self.replies.append(exc)

        def recv(self):
            return self.replies.pop(0)

        def close(self):
            pass

    class Process:
        def __init__(self, target, args):
            pass

        def start(self):  # _attempt_pool builds the pool in _pool, one process at a time
            self.pool = scenarios._pool
            if record.pools and record.pools[-1] is self.pool:
                record.sizes[-1] += 1
            else:
                record.pools.append(self.pool)
                record.sizes.append(1)

        def join(self):
            if not any(pool is self.pool for pool in record.shut):
                record.shut.append(self.pool)

    scenarios.shutdown_attempt_pool()
    context = SimpleNamespace(Pipe=lambda: (End(), End()), Process=Process)
    monkeypatch.setattr(scenarios, "multiprocessing",
                        SimpleNamespace(get_context=lambda method: context))
    yield record
    scenarios.shutdown_attempt_pool()


@pytest.fixture
def pool_sizes(in_process_pool):
    """The stand-in pool's sizes asked for (:func:`in_process_pool`)."""
    return in_process_pool.sizes
