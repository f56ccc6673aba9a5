"""Spans around the public functions of each partialid module.

The benchmark installs these wrappers only in its traced phase.  Each wrapper
is bound under every name that points at the original function in any
``partialid`` module namespace, because callers look names up where they
imported them (``sample_dirichlet`` lives in ``partialid.dirichlet`` and
``partialid.scenarios`` as well as in ``partialid.distributions``).

Spans are aggregated in memory as they close -- calls, inclusive seconds and
self seconds per span name -- and read once when the traced phase ends.  Self
time is a span's duration minus the time covered by its direct child spans.
Wrapper overhead lands in the self time of the enclosing span.

Worker processes of a ``ProcessPoolExecutor`` inherit the wrappers but their
spans stay in those processes; only parent-side spans are reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from pathlib import Path

LAYERS = ("rng", "distributions", "dirichlet", "scenarios", "priors", "random_sets", "cli")

# Span names that differ from "<layer>.<function>".
_RENAMES = {
    "rng.RngStream.__init__": "rng.stream",
    "random_sets.SetDrawBatch.__init__": "random_sets.batch_init",
    "scenarios.censoring_bounds": "scenarios.bounds",
    "scenarios.reverse_regression_bounds": "scenarios.bounds",
    "scenarios.instrument_ratio_bounds": "scenarios.bounds",
}
# Constructors worth a span; other classes are plain containers.
_TRACED_INITS = {"rng": ("RngStream",), "random_sets": ("SetDrawBatch",)}


class Tracer:
    """Span and counter aggregates for one traced phase."""

    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._installed: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def self_sum_s(self) -> float:
        return sum(rec[2] for rec in self.spans.values())

    def _wrap(self, name: str, fn, after=None, name_of=None, cpu_split=False):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = name if name_of is None else name_of(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            if cpu_split:
                own0, kids0 = cpu_s()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = spans.get(span)
                if rec is None:
                    rec = spans[span] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if cpu_split:
                own1, kids1 = cpu_s()
                self.add(f"{name}.parent_cpu_s", own1 - own0)
                self.add(f"{name}.children_cpu_s", kids1 - kids0)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every public function and the traced constructors of each layer."""
        layers = [importlib.import_module(f"partialid.{layer}") for layer in LAYERS]
        modules = [m for k, m in list(sys.modules.items())
                   if k == "partialid" or k.startswith("partialid.")]
        for layer, mod in zip(LAYERS, layers):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if attr in _TRACED_INITS.get(layer, ()):
                    name = _RENAMES[f"{layer}.{attr}.__init__"]
                    self._set(obj, "__init__", self._wrap(name, obj.__init__))
                    continue
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported into this module; wrapped where it is defined
                name = _RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapped = self._wrap(name, obj, **_HOOKS.get(name, {}))
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is obj:
                            self._set(m, key, wrapped)

    def _set(self, owner, attr, value):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def cpu_s() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children, at microsecond resolution."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


# --- counters taken at span boundaries ---------------------------------------

def _count_weights(tr, args, kwargs, result):
    tr.add("distributions.sample_dirichlet.weights", len(result))


def _count_atoms(tr, args, kwargs, result):
    tr.add("dirichlet.atoms", len(result))


def _count_batch(tr, args, kwargs, result):
    tr.add("scenarios.accepted", len(result))
    tr.add("scenarios.attempts", len(result) + result.skipped)


def _family_span(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return f"priors.marginal_sample.{spec.family}"


def _count_cells(tr, args, kwargs, result):
    tr.add("random_sets.coverage_cells", result.grid.size * result.mc_draws)


def _count_csv_bytes(tr, args, kwargs, report):
    out = Path(report.out_dir)
    tr.add("cli.csv_bytes", sum((out / f).stat().st_size
                                for f in report.files if f.endswith(".csv")))


_HOOKS = {
    "distributions.sample_dirichlet": {"after": _count_weights},
    "dirichlet.draw_prior": {"after": _count_atoms},
    "dirichlet.draw_posterior": {"after": _count_atoms},
    # the parent/children CPU split shows where a worker pool spends its time
    "scenarios.draw_set_batch": {"after": _count_batch, "cpu_split": True},
    "priors.marginal_sample": {"after": _count_batch, "name_of": _family_span},
    "random_sets.estimate_coverage": {"after": _count_cells},
    "cli.run_scenario": {"after": _count_csv_bytes},
}
