"""The four benchmark workloads and the checks on their outputs.

Each workload is chosen so that a different partialid module does most of its
work (see ``design.json`` for the per-layer predictions):

* ``study_defaults``     -- the paper's default study: every scenario through
  ``cli.run_scenario`` at n=1000, 1000 draws, workers 1.  Dirichlet posterior
  draws over 1000 data atoms dominate.
* ``marginal_families``  -- ``binary_missing`` with conditional prior
  families II, III and IV.  The conjugate three-cell Dirichlet bypasses
  stick-breaking, so the ``priors`` samplers and per-attempt stream
  construction dominate.
* ``parallel_posterior`` -- two data scenarios at workers=2, the only workload
  on the ``ProcessPoolExecutor`` path of ``draw_set_batch``.
* ``estimate_large``     -- the ``random_sets`` estimators on a synthetic
  posterior batch of 100 000 intervals and a 2001-point grid; no sampling.

A workload's inputs come from the benchmark seed alone.  One unit of work is
repeated with the same inputs, so every unit of a run must produce the same
output digest.  Statistical checks use tolerances set from the Monte Carlo
standard error of the checked quantity, never from observed values.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import replace
from functools import partial

import numpy as np

import partialid as pid
from partialid import cli
from partialid import scenarios as sc

#: Standard errors allowed in a statistical check.  With a few thousand checked
#: values per run, a correct program fails a check with probability below 1e-5.
Z = 6.0

FULL = {"n": 1000, "n_draws": 1000, "marginal_draws": 2000,
        "intervals": 100_000, "grid": 2001, "probes": 200}
TINY = {"n": 200, "n_draws": 100, "marginal_draws": 100,
        "intervals": 5_000, "grid": 201, "probes": 20}

CREDIBLE_ALPHAS = (0.5, 0.8, 0.9, 0.95, 0.99)
TOY_PROBES = ((0.2, 0.4), (0.9, 1.1), (1.5, 1.8), (-0.5, 0.1), (1.95, 2.4))


def binomial_tol(p, n: int):
    """Z standard errors of a proportion from n draws; floored at 1/n near 0 and 1."""
    p = np.asarray(p, dtype=float)
    return Z * np.sqrt((p * (1.0 - p) + 1.0 / n) / n)


def _close(name: str, got, want, tol) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bad = np.abs(got - want) > tol
    if not np.any(bad):
        return []
    i = int(np.flatnonzero(np.atleast_1d(bad))[0])
    return [f"{name}: {np.atleast_1d(got)[i]!r} vs {np.atleast_1d(want)[i]!r} "
            f"(tolerance {np.broadcast_to(tol, np.shape(bad)).flat[i]:.3g})"]


def _read_columns(path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


class RunScenarioWorkload:
    """A unit is a fixed list of ``cli.run_scenario`` calls, one output directory each."""

    reference_digest = None

    def __init__(self, runs: list[dict], seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.run_cfgs = [
            cli.RunConfig(seed=seed, out_dir=os.path.join(tmp, f"run{i}"), **r)
            for i, r in enumerate(runs)
        ]
        self.parts = [partial(self._run, rc) for rc in self.run_cfgs]

    def setup(self):
        self.cfgs = {rc.scenario: pid.make_config(rc.scenario, n=rc.n)
                     for rc in self.run_cfgs}
        self.data = {
            sid: pid.generate_data(cfg, sc.attempt_stream(self.seed, sc.ROLE_DATA, 0))
            for sid, cfg in self.cfgs.items() if sid != "toy_analytic"
        }
        warm_dir = os.path.join(self.tmp, "warmup")
        for rc in self.run_cfgs:
            cli.run_scenario(replace(rc, n_draws=20, workers=1, out_dir=warm_dir))

    @staticmethod
    def _run(rc):
        report = cli.run_scenario(rc)
        # every batch in a report holds exactly n_draws accepted draws
        return rc.n_draws * len(report.skips), report

    def check(self, reports) -> tuple[str, list[str]]:
        digest = hashlib.sha256()
        problems: list[str] = []
        for rc, rep in zip(self.run_cfgs, reports):
            label = rc.scenario + (f"/{rc.prior_family}" if rc.prior_family else "")
            for name in sorted(rep.files):
                if name.endswith(".csv"):
                    with open(os.path.join(rep.out_dir, name), "rb") as fh:
                        digest.update(f"{label}/{name}\n".encode() + fh.read())
            problems += [f"{label}: {p}" for p in self._check_run(rc, rep)]
        return digest.hexdigest(), problems

    def _check_run(self, rc, rep) -> list[str]:
        sid = rc.scenario
        cfg = self.cfgs[sid]
        cov = _read_columns(os.path.join(rep.out_dir, "coverage.csv"))
        grid = np.array(cov["gamma"], dtype=float)
        problems = []
        if sid == "toy_analytic":
            problems += _close("prior coverage", np.array(cov["prior_coverage"], float),
                               sc.analytic_coverage_toy(grid),
                               binomial_tol(sc.analytic_coverage_toy(grid), rc.n_draws))
            lo, hi = self._intervals(rep, "prior")
            batch = pid.SetDrawBatch(lo, hi, "prior", sid)
            for a, b in TOY_PROBES:
                probe = pid.IntervalSet(a, b)
                want = sc.analytic_capacity_toy(probe)
                problems += _close(f"capacity [{a}, {b}]", pid.estimate_capacity(batch, probe),
                                   want, binomial_tol(want, rc.n_draws))
            return problems
        if sid == "binary_missing":
            alpha = cfg.hyper["alpha"]
            post_alpha = sc.binary_posterior_params(alpha, sc.count_binary(self.data[sid]))
            for col, a in (("prior_coverage", alpha), ("posterior_coverage", post_alpha)):
                want = sc.analytic_coverage_binary(grid, a)
                problems += _close(col, np.array(cov[col], float), want,
                                   binomial_tol(want, rc.n_draws))
        problems += self._check_point_estimate(rc, rep, cfg)
        cred = rep.credible_region
        if not cred["containment"] >= rc.alpha:
            problems.append(f"credible containment {cred['containment']} < {rc.alpha}")
        if rc.prior_family is not None:
            tallies = rep.diagnostics["gamma_hist_tallies"]
            hist = _read_columns(os.path.join(rep.out_dir, "gamma_hist.csv"))
            for mode in ("prior", "posterior"):
                t = tallies[mode]
                if t["in_range"] + t["underflow"] + t["overflow"] != rc.n_draws:
                    problems.append(f"{mode} gamma tallies {t} do not sum to {rc.n_draws}")
                if sum(map(int, hist[f"{mode}_count"])) != t["in_range"]:
                    problems.append(f"{mode} gamma histogram disagrees with its tally")
        return problems

    def _check_point_estimate(self, rc, rep, cfg) -> list[str]:
        """The posterior-mean bounds lie near the true set.

        They differ from it by the sampling error of the data, which the
        posterior spread of each endpoint measures, by Monte Carlo error, and
        by the pull of the prior, whose mass share n0 / (n0 + n) can move a
        bound across at most the scenario's parameter range (its grid span).
        """
        lo, hi = self._intervals(rep, "posterior")
        hyper = cfg.hyper
        n0 = float(np.max(hyper["alpha"].sum() if "alpha" in hyper else hyper["n0"]))
        pull = n0 / (n0 + cfg.n) * float(cfg.grid[-1] - cfg.grid[0])
        mc = np.sqrt(1.0 + 1.0 / lo.size)
        truth = (cfg.true_set.lo, cfg.true_set.hi)
        problems = []
        for name, got, draws, want in zip(("lower", "upper"), rep.point_estimate,
                                          (lo, hi), truth):
            problems += _close(f"point estimate {name} bound", got, want,
                               Z * draws.std() * mc + pull)
        return problems

    @staticmethod
    def _intervals(rep, source):
        rows = _read_columns(os.path.join(rep.out_dir, "intervals.csv"))
        keep = [s == source for s in rows["source"]]
        lo = np.array([v for v, k in zip(rows["lo"], keep) if k], dtype=float)
        hi = np.array([v for v, k in zip(rows["hi"], keep) if k], dtype=float)
        return lo, hi


class ParallelWorkload(RunScenarioWorkload):
    """Runs at workers=2 whose CSVs must equal a workers=1 run made in set-up."""

    def setup(self):
        super().setup()
        reports = [cli.run_scenario(replace(rc, workers=1)) for rc in self.run_cfgs]
        self.reference_digest, problems = self.check(reports)
        if problems:
            raise RuntimeError(f"workers=1 reference run failed its checks: {problems}")


class EstimateWorkload:
    """The ``random_sets`` estimators on a synthetic posterior batch.

    Endpoints follow the toy model (lower ~ U[0, 1], upper ~ 1 + U[0, 1]), so
    coverage and capacity have closed forms, and exact counts from sorted
    endpoints give a second, independent reference.
    """

    reference_digest = None

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size
        self.parts = [self._estimate]

    def setup(self):
        rng = np.random.default_rng([self.seed, 4])
        n = self.size["intervals"]
        self.lo = rng.random(n)
        self.hi = 1.0 + rng.random(n)
        self.grid = np.linspace(-0.25, 2.25, self.size["grid"])
        starts = rng.uniform(-0.25, 2.25, self.size["probes"])
        self.probes = [pid.IntervalSet(float(a), float(a + w))
                       for a, w in zip(starts, rng.uniform(0.0, 0.5, starts.size))]
        warm = pid.SetDrawBatch(self.lo[:1000], self.hi[:1000], "posterior", "toy_analytic")
        pid.estimate_coverage(warm, self.grid)
        pid.estimate_capacity(warm, self.probes[0])
        pid.credible_region(warm, CREDIBLE_ALPHAS[0])
        pid.point_estimate_set(warm)
        self._expected = None

    def _estimate(self):
        batch = pid.SetDrawBatch(self.lo, self.hi, "posterior", "toy_analytic")
        coverage = pid.estimate_coverage(batch, self.grid)
        capacity = [pid.estimate_capacity(batch, p) for p in self.probes]
        regions = [pid.credible_region(batch, a) for a in CREDIBLE_ALPHAS]
        point = pid.point_estimate_set(batch)
        calls = 1 + len(capacity) + len(regions) + 1
        return len(batch) * calls, (coverage, capacity, regions, point)

    def _exact(self):
        """Coverage and capacity from sorted endpoints, a count independent of the estimators.

        A draw hits [a, b] unless lower > b or upper < a, and the two cannot
        both hold because lower <= upper; coverage at g is the hit rate of [g, g].
        """
        if self._expected is None:
            lo_sorted, hi_sorted = np.sort(self.lo), np.sort(self.hi)

            def hit_rate(a, b):
                return (np.searchsorted(lo_sorted, b, side="right")
                        - np.searchsorted(hi_sorted, a, side="left")) / lo_sorted.size

            self._expected = (
                hit_rate(self.grid, self.grid),
                hit_rate(np.array([p.lo for p in self.probes]),
                         np.array([p.hi for p in self.probes])),
            )
        return self._expected

    def check(self, results) -> tuple[str, list[str]]:
        coverage, capacity, regions, point = results[0]
        n = self.lo.size
        exact_cov, exact_cap = self._exact()
        capacity = np.array(capacity)
        problems = []
        if np.any(coverage.values < 0) or np.any(coverage.values > 1):
            problems.append("coverage outside [0, 1]")
        if not np.array_equal(coverage.values, exact_cov):
            problems.append("coverage differs from the sorted-endpoint count")
        if not np.array_equal(capacity, exact_cap):
            problems.append("capacity differs from the sorted-endpoint count")
        problems += _close("coverage vs closed form", coverage.values,
                           sc.analytic_coverage_toy(self.grid),
                           binomial_tol(sc.analytic_coverage_toy(self.grid), n))
        want_cap = np.array([sc.analytic_capacity_toy(p) for p in self.probes])
        problems += _close("capacity vs closed form", capacity, want_cap,
                           binomial_tol(want_cap, n))
        for p, cap in zip(self.probes, capacity):
            inside = (self.grid >= p.lo) & (self.grid <= p.hi)
            if np.any(inside) and cap < coverage.values[inside].max():
                problems.append(f"capacity of [{p.lo}, {p.hi}] below a covered grid point")
        contained = [r.containment for r in regions]
        for r in regions:
            if not r.containment >= r.alpha:
                problems.append(f"credible containment {r.containment} < alpha {r.alpha}")
        if any(b < a for a, b in zip(contained, contained[1:])):
            problems.append(f"credible containment not monotone in alpha: {contained}")
        for r, s in zip(regions, regions[1:]):
            if not (s.region.lo <= r.region.lo and r.region.hi <= s.region.hi):
                problems.append(f"credible regions not nested at alpha {r.alpha}, {s.alpha}")
        se = Z * np.sqrt(1.0 / 12.0 / n)
        problems += _close("point estimate", (point.lo, point.hi), (0.5, 1.5), se)
        digest = hashlib.sha256()
        for arr in (coverage.values, capacity,
                    np.array([(r.region.lo, r.region.hi, r.containment) for r in regions]),
                    np.array((point.lo, point.hi))):
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest(), problems


def make(name: str, seed: int, tmp: str, tiny: bool = False):
    size = TINY if tiny else FULL
    if name == "study_defaults":
        runs = [{"scenario": sid, "n": None if sid == "toy_analytic" else size["n"],
                 "n_draws": size["n_draws"]} for sid in sc.SCENARIO_IDS]
        return RunScenarioWorkload(runs, seed, tmp)
    if name == "marginal_families":
        # Family I is left out: its rejection sampler raises RejectionBudgetError
        # on about one seed in six at 2000 prior draws (see README.md).
        runs = [{"scenario": "binary_missing", "n": size["n"],
                 "n_draws": size["marginal_draws"], "prior_family": fam}
                for fam in ("II", "III", "IV")]
        return RunScenarioWorkload(runs, seed, tmp)
    if name == "parallel_posterior":
        runs = [{"scenario": sid, "n": size["n"], "n_draws": size["n_draws"], "workers": 2}
                for sid in ("interval_censored", "interval_regression")]
        return ParallelWorkload(runs, seed, tmp)
    if name == "estimate_large":
        return EstimateWorkload(seed, size)
    raise ValueError(f"unknown workload {name!r}")
