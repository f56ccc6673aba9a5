"""Random-interval basics on the analytic toy model.

The toy model draws an interval whose lower endpoint is uniform on [0, 1] and
whose upper endpoint is uniform on [1, 2].  Both its coverage function (the
probability a point belongs to the interval) and its capacity functional (the
probability a probe interval is hit) have closed forms, which makes it the
natural first check of the Monte Carlo machinery.
"""

import numpy as np

import partialid as pid
from partialid.scenarios import analytic_capacity_toy, analytic_coverage_toy

cfg = pid.make_config("toy_analytic")
batch = pid.draw_set_batch(cfg, "prior", n_draws=10_000, master_seed=1)
print(f"drew {len(batch)} intervals, e.g. first three:")
for lo, hi in zip(batch.lo[:3], batch.hi[:3]):
    print(f"  [{lo:.3f}, {hi:.3f}]")

# 1. coverage function vs its closed form
grid = np.linspace(0.0, 2.0, 21)
curve = pid.estimate_coverage(batch, grid)
print("\ngamma   mc_coverage   closed_form")
for g, v in zip(curve.grid, curve.values):
    print(f"{g:5.2f}   {v:11.4f}   {analytic_coverage_toy(g):11.4f}")

# 2. capacity functional vs the independence product formula
print("\nprobe            mc_capacity   closed_form")
for lo, hi in ((0.2, 0.3), (1.5, 1.8), (0.9, 1.1), (-0.5, 0.05)):
    probe = pid.IntervalSet(lo, hi)
    mc = pid.estimate_capacity(batch, probe)
    print(f"[{lo:5.2f},{hi:5.2f}]   {mc:11.4f}   {analytic_capacity_toy(probe):11.4f}")

# 3. a singleton probe is exactly the coverage value
g = 0.75
singleton = pid.estimate_capacity(batch, pid.IntervalSet(g, g))
print(f"\nsingleton probe at {g}: capacity {singleton:.4f} == coverage "
      f"{pid.estimate_coverage(batch, np.array([g])).values[0]:.4f}")
