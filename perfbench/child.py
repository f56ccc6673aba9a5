"""One benchmark process: set up a workload, time its units, check their outputs.

``run.py`` starts this script in a fresh interpreter with the checkout's
``src`` directory on ``PYTHONPATH``.  ``--t0`` is the system-wide monotonic
clock reading taken just before the interpreter was started, so set-up time
covers interpreter start, ``import partialid`` and the workload's set-up.
With ``--setup-only`` the process stops there.  Otherwise it runs units of the
workload until ``--seconds`` have passed, timing each part of a unit between
two passes of the calibration kernel (``calibrate.py``); with ``--trace 1``
it then runs one more unit with the tracing wrappers installed.  Checks run
between units, outside the timed region.  The last line of standard output is
a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracing

ROOT = Path(__file__).resolve().parent.parent


class Phase:
    """Per-part wall time, CPU time and work over the units of one phase.

    A unit runs the workload's parts in order.  The calibration kernel runs
    before and after every part, and each part's times are scaled by the
    reference kernel time over the mean of those two (see ``calibrate.py``).
    Rates use the median scaled time of each part across units, so that a
    burst of load from other processes on the machine moves a few samples
    rather than the reported figure.
    """

    def __init__(self, n_parts: int):
        self.units = 0
        self.failed = 0
        self.elapsed_s = 0.0
        self.kernel_s: list[float] = []
        self.wall_s = [[] for _ in range(n_parts)]
        self.raw_wall_s = [[] for _ in range(n_parts)]
        self.cpu_s = [[] for _ in range(n_parts)]
        self.raw_cpu_s = [[] for _ in range(n_parts)]
        self.work = [[] for _ in range(n_parts)]

    @staticmethod
    def _median_sum(samples) -> float:
        return sum(statistics.median(s) for s in samples) if samples[0] else 0.0

    def rate(self, raw=False) -> float:
        wall = self._median_sum(self.raw_wall_s if raw else self.wall_s)
        return self._median_sum(self.work) / wall if wall > 0 else 0.0

    def cpu_s_per_kdraw(self, raw=False) -> float:
        work = self._median_sum(self.work)
        cpu = self._median_sum(self.raw_cpu_s if raw else self.cpu_s)
        return 1000.0 * cpu / work if work else 0.0


def run_unit(wl, phase: Phase, digests: list, kernel, tracer=None):
    """Time one unit part by part, then check it.

    A unit that raises or fails a check counts as failed; only units that
    complete contribute timings.
    """
    if tracer is not None:
        tracer.install()
    timings, results = [], []
    t_unit = time.perf_counter()
    try:
        before = kernel.time_s()
        for part in wl.parts:
            c0 = sum(tracing.cpu_s())
            t0 = time.perf_counter()
            work, result = part()
            wall = time.perf_counter() - t0
            cpu = sum(tracing.cpu_s()) - c0
            after = kernel.time_s()
            timings.append((wall, cpu, work, (before + after) / 2))
            results.append(result)
            before = after
    except Exception:
        traceback.print_exc()
        results = None
    finally:
        phase.elapsed_s += time.perf_counter() - t_unit
        if tracer is not None:
            tracer.uninstall()
    phase.units += 1
    if results is None:
        phase.failed += 1
        return
    for i, (wall, cpu, work, kernel_s) in enumerate(timings):
        scale = calibrate.REFERENCE_S / kernel_s
        phase.kernel_s.append(kernel_s)
        phase.raw_wall_s[i].append(wall)
        phase.wall_s[i].append(wall * scale)
        phase.raw_cpu_s[i].append(cpu)
        phase.cpu_s[i].append(cpu * scale)
        phase.work[i].append(work)
    try:
        digest, problems = wl.check(results)
    except Exception:
        traceback.print_exc()
        phase.failed += 1
        return
    reference = wl.reference_digest or (digests[0] if digests else digest)
    if digest != reference:
        problems.append("outputs differ from the reference outputs of this seed")
    digests.append(digest)
    if problems:
        phase.failed += 1
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)


def layer_metrics(tr, untraced: Phase, traced: Phase) -> dict:
    """Per-layer metrics of the traced unit: ``.s`` is inclusive, ``.self_s`` self time."""
    calls, total, self_s, count = tr.calls, tr.total_s, tr.self_s, tr.counters.get
    m = {
        "rng.streams": (calls("rng.stream"), "count"),
        "rng.stream_self_s": (self_s("rng.stream"), "s"),
        "distributions.sample_dirichlet.calls":
            (calls("distributions.sample_dirichlet"), "count"),
        "distributions.sample_dirichlet.weights":
            (count("distributions.sample_dirichlet.weights", 0), "count"),
        "distributions.sample_dirichlet.self_s":
            (self_s("distributions.sample_dirichlet"), "s"),
        "distributions.sample_truncated_normal.calls":
            (calls("distributions.sample_truncated_normal"), "count"),
        "distributions.sample_truncated_normal.self_s":
            (self_s("distributions.sample_truncated_normal"), "s"),
    }
    for f in ("sample_beta", "sample_normal", "sample_mvnormal"):
        m[f"distributions.{f}.self_s"] = (self_s(f"distributions.{f}"), "s")
    for f in ("draw_prior", "draw_posterior"):
        m[f"dirichlet.{f}.calls"] = (calls(f"dirichlet.{f}"), "count")
        m[f"dirichlet.{f}.self_s"] = (self_s(f"dirichlet.{f}"), "s")
    for f in ("stick_weights", "expectation", "covariance"):
        m[f"dirichlet.{f}.self_s"] = (self_s(f"dirichlet.{f}"), "s")
    attempts = count("scenarios.attempts", 0)
    m.update({
        "dirichlet.atoms": (count("dirichlet.atoms", 0), "count"),
        "scenarios.draw_set.calls": (calls("scenarios.draw_set"), "count"),
        "scenarios.draw_set.self_s": (self_s("scenarios.draw_set"), "s"),
        "scenarios.bounds.self_s": (self_s("scenarios.bounds"), "s"),
        "scenarios.draw_set_batch.self_s": (self_s("scenarios.draw_set_batch"), "s"),
        "scenarios.accept_ratio":
            (count("scenarios.accepted", 0) / attempts if attempts else 0.0, "ratio"),
        "scenarios.generate_data.s": (total("scenarios.generate_data"), "s"),
        "scenarios.batch_parent_cpu_s":
            (count("scenarios.draw_set_batch.parent_cpu_s", 0.0), "s"),
        "scenarios.batch_children_cpu_s":
            (count("scenarios.draw_set_batch.children_cpu_s", 0.0), "s"),
    })
    families = ("II", "III", "IV")
    for fam in families:
        m[f"priors.marginal_sample.{fam}.s"] = (total(f"priors.marginal_sample.{fam}"), "s")
    m["priors.marginal_sample.self_s"] = (
        sum(self_s(f"priors.marginal_sample.{fam}") for fam in families), "s")
    for f in ("estimate_coverage", "estimate_capacity", "credible_region",
              "point_estimate_set", "batch_init"):
        m[f"random_sets.{f}.s"] = (total(f"random_sets.{f}"), "s")
    m.update({
        "random_sets.coverage_cells": (count("random_sets.coverage_cells", 0), "count"),
        "cli.run_scenario.s": (total("cli.run_scenario"), "s"),
        "cli.self_s": (self_s("cli.run_scenario"), "s"),
        "cli.csv_bytes": (count("cli.csv_bytes", 0), "bytes"),
        "trace.overhead": (untraced.rate() / traced.rate() if traced.rate() else 0.0, "ratio"),
        "trace.wall_s": (traced._median_sum(traced.raw_wall_s), "s"),
        "trace.self_sum_s": (tr.self_sum_s(), "s"),
    })
    return m


def machine() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import partialid

    src = (ROOT / "src").resolve()
    if src not in Path(partialid.__file__).resolve().parents:
        print(f"partialid was imported from {partialid.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed, args.tmp, tiny=args.tiny)
    wl.setup()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    kernel = calibrate.Kernel()
    digests: list[str] = []
    untraced = Phase(len(wl.parts))
    while untraced.elapsed_s < args.seconds or untraced.units == 0:
        run_unit(wl, untraced, digests, kernel)
    phases = [untraced]
    if args.trace:
        traced = Phase(len(wl.parts))
        tracer = tracing.Tracer()
        run_unit(wl, traced, digests, kernel, tracer)
        phases.append(traced)
        layers = layer_metrics(tracer, untraced, traced)
        if layers["trace.self_sum_s"][0] > layers["trace.wall_s"][0]:
            print("check failed: span self times exceed the traced wall time",
                  file=sys.stderr)
            traced.failed += 1
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out.update({
        "attempted": sum(p.units for p in phases),
        "failed": sum(p.failed for p in phases),
        "units": untraced.units,
        "unit_work": untraced._median_sum(untraced.work),
        "kernel_s": statistics.median(untraced.kernel_s),
        "draws_per_s_raw": untraced.rate(raw=True),
        "draws_per_s": untraced.rate(),
        "cpu_s_per_kdraw_raw": untraced.cpu_s_per_kdraw(raw=True),
        "cpu_s_per_kdraw": untraced.cpu_s_per_kdraw(),
        "peak_rss_mb": rss_kb / 1024.0,
        "machine": machine(),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
