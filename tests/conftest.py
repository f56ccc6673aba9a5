import pytest
from hypothesis import settings

from partialid import scenarios

# CI runs with --hypothesis-profile=ci, so a property failure there reproduces locally
settings.register_profile("ci", derandomize=True)


def _result(outcome):
    value, error = outcome
    if error is not None:
        raise error
    return value


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand in for ProcessPoolExecutor, running tasks here; return the sizes asked for.

    Like a pool, it runs every task it is given at once and raises a task's
    error only when that task's result is read.
    """
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            outcomes = []
            for args in zip(*iterables):
                try:
                    outcomes.append((fn(*args), None))
                except Exception as exc:
                    outcomes.append((None, exc))
            return map(_result, outcomes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    monkeypatch.setattr(scenarios, "ProcessPoolExecutor", InProcessPool)
    return sizes
