"""Measure the ROADMAP baseline rows that no benchmark workload isolates.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/reconcile.py

Prints, as JSON, the share of ``interval_censored`` posterior time spent in
``sample_dirichlet`` (traced), the wall time of 2000 ``interval_censored``
posterior draws at workers 1 and 2, and the untraced per-call cost of a
stream and of a scalar truncated-normal draw (medians of three).  The traced
per-call costs come from the ``marginal_families`` run of ``run.py``; see
README.md.
"""

from __future__ import annotations

import json
import statistics
import time

import partialid as pid
from partialid import scenarios as sc

import tracing

SEED = 7


def main():
    cfg = pid.make_config("interval_censored")
    data = pid.generate_data(cfg, sc.attempt_stream(SEED, sc.ROLE_DATA, 0))
    pid.draw_set_batch(cfg, "posterior", 20, SEED, dataset=data)  # warm-up

    tr = tracing.Tracer()
    tr.install()
    try:
        pid.draw_set_batch(cfg, "posterior", 1000, SEED, dataset=data)
    finally:
        tr.uninstall()
    batch_s = tr.total_s("scenarios.draw_set_batch")
    dirichlet_s = tr.self_s("distributions.sample_dirichlet")

    walls = {}
    for workers in (1, 2):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            pid.draw_set_batch(cfg, "posterior", 2000, SEED, dataset=data, workers=workers)
            runs.append(time.perf_counter() - t0)
        walls[f"workers_{workers}_s"] = statistics.median(runs)

    def per_call_s(fn, calls):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i)
            runs.append((time.perf_counter() - t0) / calls)
        return statistics.median(runs)

    rng = pid.substream(SEED, 0)
    print(json.dumps({
        "interval_censored_posterior_1000_traced_s": batch_s,
        "sample_dirichlet_self_s": dirichlet_s,
        "sample_dirichlet_share": dirichlet_s / batch_s,
        "interval_censored_posterior_2000": walls,
        "stream_s": per_call_s(lambda i: pid.substream(SEED, i), 2000),
        "truncated_normal_scalar_s":
            per_call_s(lambda i: pid.sample_truncated_normal(0.0, 2.0, 0.4, 0.9, rng), 500),
    }, indent=2))


if __name__ == "__main__":
    main()
