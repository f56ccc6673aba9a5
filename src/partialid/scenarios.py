"""The five partially identified models driving the simulation studies.

Each scenario, one record of :data:`SCENARIOS`, couples a data generating
process with the functional mapping one draw of the (nonparametric) prior or
posterior to one realization of the random identified interval:

* ``toy_analytic``       — parametric check case: lower bound uniform on [0, 1],
                           upper bound uniform on [1, 2]; closed-form coverage
                           and capacity available.
* ``interval_censored``  — outcome known to lie between two observables; bounds
                           are the means of two independent process draws.
* ``errors_in_variables``— regression slope bracketed by the direct and reverse
                           regression coefficients of a joint process draw.
* ``interval_regression``— slope bracketed by instrumented cross-moment ratios
                           of a four-dimensional process draw.
* ``binary_missing``     — success probability of a partially observed binary
                           outcome; conjugate three-cell Dirichlet, closed-form
                           coverage available.

Draws violating a scenario guard (inverted bounds, nonpositive denominators)
are reported as skips, never reordered or hidden.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .dirichlet import (
    DirichletProcessSpec,
    DiscreteMeasure,
    covariance,
    draw_posterior,
    draw_prior,
    expectation,
)
from .distributions import (
    DirichletParams,
    beta_cdf,
    cholesky_factor,
    psd_repair,
    sample_dirichlet,
    sample_mvnormal,
    sample_normal,
)
from .errors import ParameterError, SkipBudgetError
from .random_sets import IntervalSet, SetDrawBatch
from .rng import RngStream, SeedBlock, substream

log = logging.getLogger(__name__)

# Stream roles: disjoint index blocks so every workflow stage has its own
# independent substream family under a single master seed.
ROLE_DATA = 0
ROLE_PRIOR_SETS = 1
ROLE_POSTERIOR_SETS = 2
ROLE_HELDOUT_SETS = 5

_ROLE_SHIFT = 32


def attempt_stream(master_seed: int, role: int, attempt: int) -> RngStream:
    """The stream owned by one attempt of one workflow stage."""
    if attempt < 0 or attempt >= 2**_ROLE_SHIFT:
        raise ParameterError(f"attempt index out of range: {attempt}")
    return substream(master_seed, (role << _ROLE_SHIFT) + attempt)


def attempt_streams(master_seed: int, role: int, attempts: range):
    """The streams of a contiguous range of attempts, built one at a time.

    Stream j equals ``attempt_stream(master_seed, role, j)``; the range is
    seeded in one pass by a :class:`~partialid.rng.SeedBlock`.
    """
    if attempts.start < 0 or attempts.stop > 2**_ROLE_SHIFT or attempts.step != 1:
        raise ParameterError(f"attempt range out of range: {attempts}")
    base = role << _ROLE_SHIFT
    block = SeedBlock(master_seed, range(base + attempts.start, base + attempts.stop))
    return (block.stream(base + j) for j in attempts)


_GRID_STEP = 0.05

#: Sample size of a generated dataset when none is given.
DEFAULT_SAMPLE_SIZE = 1000

# Base-measure covariance for the four-dimensional instrumented scenario as
# stated for the simulation; it is not positive semidefinite and must pass
# through psd_repair before it can parameterize a normal base measure.
INTERVAL_REGRESSION_RAW_COV = np.array(
    [
        [0.1, 0.0, 0.2, 1.5],
        [0.0, 0.1, 0.2, 3.0],
        [0.2, 0.2, 0.1, 0.5],
        [1.5, 3.0, 0.5, 0.1],
    ]
)


def default_grid(scenario_id: str) -> np.ndarray:
    lo, hi = _scenario(scenario_id).grid_range
    n_points = int(round((hi - lo) / _GRID_STEP)) + 1
    return np.linspace(lo, hi, n_points)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One scenario with sample size, evaluation grid, and prior hyperparameters."""

    scenario_id: str
    n: int
    grid: np.ndarray
    true_set: IntervalSet | None
    hyper: dict


def make_config(scenario_id: str, n: int | None = None, grid=None) -> ScenarioConfig:
    """Build a scenario configuration, filling in the study defaults."""
    scenario = _scenario(scenario_id)
    if not scenario.columns:
        if n not in (None, 0):
            raise ParameterError(f"{scenario_id} has no data-generating process")
        n = 0
    else:
        n = DEFAULT_SAMPLE_SIZE if n is None else int(n)
        if n < 1:
            raise ParameterError(f"sample size must be >= 1, got {n}")
    if grid is None:
        grid = default_grid(scenario_id)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ParameterError("grid must be strictly increasing with >= 2 points")
    return ScenarioConfig(scenario_id, n, grid, scenario.true_set, scenario.hyper())


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observable sample of one scenario, column-labelled for serialization."""

    scenario_id: str
    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise ParameterError("values must be (n, k) matching the column names")
        if not np.isfinite(self.values).all():
            row, col = np.argwhere(~np.isfinite(self.values))[0]
            raise ParameterError(f"non-finite value in row {row}, column {self.columns[col]}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.values:
                fh.write(",".join(f"{x:.12g}" for x in row) + "\n")


def load_dataset(path, scenario_id: str) -> Dataset:
    """Read a dataset written by :meth:`Dataset.to_csv`."""
    expected = _scenario(scenario_id).columns
    if not expected:
        raise ParameterError(f"{scenario_id} has no data-generating process")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        columns = tuple(header.split(","))
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if columns != expected:
        raise ParameterError(f"expected columns {expected}, found {columns}")
    return Dataset(scenario_id, columns, values)


def generate_data(cfg: ScenarioConfig, rng: RngStream) -> Dataset:
    """Draw one observable sample from the scenario's data generating process."""
    scenario = _scenario(cfg.scenario_id)
    if not scenario.columns:
        raise ParameterError(f"{cfg.scenario_id} has no data-generating process")
    return Dataset(cfg.scenario_id, scenario.columns, scenario.generate(cfg.n, rng))


# --- identified-set functionals -------------------------------------------

def censoring_bounds(m1: DiscreteMeasure, m2: DiscreteMeasure) -> IntervalSet | None:
    """[mean of lower measure, mean of upper measure]; None when inverted."""
    lo = expectation(m1, lambda a: a)
    hi = expectation(m2, lambda a: a)
    if hi < lo:
        return None
    return IntervalSet(lo, hi)


def reverse_regression_bounds(m: DiscreteMeasure) -> IntervalSet | None:
    """Direct/reverse regression slope bracket from a joint (y, z) measure.

    Requires a positive y-z covariance; draws violating the sign constraint
    (or with a degenerate z marginal) are reported as None.
    """
    syz = covariance(m, 0, 1)
    if syz <= 0:
        return None
    szz = covariance(m, 1, 1)
    if szz <= 0:
        return None
    syy = covariance(m, 0, 0)
    direct = syz / szz
    reverse = syy / syz
    return IntervalSet(min(direct, reverse), max(direct, reverse))


def instrument_ratio_bounds(m: DiscreteMeasure) -> IntervalSet | None:
    """Cross-moment ratio bounds from a joint (y1, y2, x, z) measure.

    Uses raw (uncentered) cross moments.  Requires a positive instrument
    moment E[z x] and ordered numerators; otherwise the draw is skipped.
    """
    ezx = expectation(m, lambda a: a[:, 2] * a[:, 3])
    if ezx <= 0:
        return None
    lo = expectation(m, lambda a: a[:, 0] * a[:, 3]) / ezx
    hi = expectation(m, lambda a: a[:, 1] * a[:, 3]) / ezx
    if lo > hi:
        return None
    return IntervalSet(lo, hi)


# --- per-scenario data, hyperparameters and prepared draws -----------------
# A scenario's prepare(cfg, mode, dataset) runs once per batch, after
# prepare_draw has checked the mode and the dataset.  It returns the batch's
# attempt(rng), a functools.partial of a module-level function so that it
# pickles for pool workers.

def _process_draw(spec: DirichletProcessSpec, data, rng: RngStream) -> DiscreteMeasure:
    """One draw of the process: from its prior when ``data`` is None, else its posterior."""
    if data is None:
        return draw_prior(spec, rng)
    return draw_posterior(spec, data, rng)


def _toy_attempt(rng):
    return IntervalSet(rng.uniform(), 1.0 + rng.uniform())


def _prepare_toy(cfg, mode, dataset):
    return _toy_attempt


def _generate_censored(n, rng):
    y1 = sample_normal(0.0, 0.1, rng, size=n)
    y2 = sample_normal(5.0, 0.1, rng, size=n)
    return np.column_stack((y1, y2))


def _censored_attempt(spec1, spec2, y1, y2, rng):
    r1, r2 = rng.split(0), rng.split(1)
    return censoring_bounds(_process_draw(spec1, y1, r1), _process_draw(spec2, y2, r2))


def _prepare_censored(cfg, mode, dataset):
    n0_1, n0_2 = cfg.hyper["n0"]
    mu1, mu2 = cfg.hyper["base_mean"]
    var1, var2 = cfg.hyper["base_var"]
    spec1 = DirichletProcessSpec(n0_1, partial(sample_normal, mu1, var1))
    spec2 = DirichletProcessSpec(n0_2, partial(sample_normal, mu2, var2))
    if mode == "prior":
        return partial(_censored_attempt, spec1, spec2, None, None)
    return partial(_censored_attempt, spec1, spec2,
                   dataset.column("y1"), dataset.column("y2"))


def _joint_attempt(bounds, spec, data, rng):
    return bounds(_process_draw(spec, data, rng))


def _prepare_joint(bounds, cfg, mode, dataset):
    """Prepared draw of a regression scenario: ``bounds`` of one joint process draw."""
    mean, cov = cfg.hyper["base_mean"], cfg.hyper["base_cov"]
    base = partial(sample_mvnormal, mean, cov, chol=cholesky_factor(cov))
    spec = DirichletProcessSpec(cfg.hyper["n0"], base)
    return partial(_joint_attempt, bounds, spec, None if mode == "prior" else dataset.values)


def _generate_errors_in_variables(n, rng):
    latent = sample_normal(0.0, 1.0, rng, size=n)
    noise = sample_mvnormal(np.zeros(2), np.eye(2), rng, size=n)
    y = latent + noise[:, 0]  # true slope 1
    z = latent + noise[:, 1]
    return np.column_stack((y, z))


def _prepare_errors_in_variables(cfg, mode, dataset):
    return _prepare_joint(reverse_regression_bounds, cfg, mode, dataset)


def _interval_regression_hyper() -> dict:
    repair = psd_repair(INTERVAL_REGRESSION_RAW_COV, eigen_floor=1e-6)
    if repair.clipped:
        log.info(
            "interval_regression base covariance was not PSD; "
            "eigenvalues clipped at 1e-6"
        )
    return {"n0": 20.0, "base_mean": np.array([0.0, 4.0, 0.0, 0.5]),
            "base_cov": repair.matrix, "base_cov_clipped": repair.clipped}


def _generate_interval_regression(n, rng):
    z = rng.uniform(size=n)
    x = z + sample_normal(0.0, 1.0, rng, size=n)
    y1 = 2.0 * x + sample_normal(0.0, 0.1, rng, size=n)
    y2 = 6.0 * x + sample_normal(0.0, 0.1, rng, size=n)
    return np.column_stack((y1, y2, x, z))


def _prepare_interval_regression(cfg, mode, dataset):
    return _prepare_joint(instrument_ratio_bounds, cfg, mode, dataset)


class BinaryCounts(NamedTuple):
    """Cell counts of the masked binary sample: observed 1s, observed 0s, missing."""

    n1: int
    n0_obs: int
    m: int


def count_binary(dataset: Dataset) -> BinaryCounts:
    """Tally the three observable cells; rejects malformed rows."""
    if dataset.columns != SCENARIOS["binary_missing"].columns:
        raise ParameterError(f"expected a masked binary dataset, got {dataset.columns}")
    yd = dataset.column("yd")
    d = dataset.column("d")
    valid = np.isin(yd, (0.0, 1.0)) & np.isin(d, (0.0, 1.0)) & (yd <= d)
    if not np.all(valid):
        bad = int(np.flatnonzero(~valid)[0])
        raise ParameterError(f"malformed row {bad}: (yd, d) = ({yd[bad]}, {d[bad]})")
    n1 = int(np.sum(yd == 1.0))
    n0_obs = int(np.sum((d == 1.0) & (yd == 0.0)))
    m = int(np.sum(d == 0.0))
    return BinaryCounts(n1, n0_obs, m)


def binary_posterior_params(alpha, counts: BinaryCounts) -> np.ndarray:
    """Conjugate update of the three-cell Dirichlet parameters (exact sums)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3,) or np.any(alpha <= 0):
        raise ParameterError("alpha must be three positive numbers")
    return alpha + np.array([counts.n1, counts.n0_obs, counts.m], dtype=float)


def _generate_binary(n, rng):
    y = (rng.uniform(size=n) < 0.8).astype(float)
    d = (rng.uniform(size=n) < 0.5).astype(float)
    return np.column_stack((y * d, d))


def _binary_attempt(alpha, rng):
    cells = sample_dirichlet(alpha, rng)
    return IntervalSet(float(cells[0]), float(cells[0] + cells[2]))


def _prepare_binary(cfg, mode, dataset):
    alpha = cfg.hyper["alpha"]
    if mode == "posterior":
        alpha = binary_posterior_params(alpha, count_binary(dataset))
    return partial(_binary_attempt, DirichletParams(alpha))


# --- the scenario table --------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Everything the package knows about one scenario; add a scenario by adding one."""

    columns: tuple[str, ...]  # empty: no data-generating process, no posterior
    grid_range: tuple[float, float]
    true_set: IntervalSet | None
    shapes: tuple[float, float] | None  # family-IV (p, q); None: no prior wiring
    hyper: Callable[[], dict]  # builds a fresh ScenarioConfig.hyper
    generate: Callable[[int, RngStream], np.ndarray] | None  # (n, rng) -> (n, k) values
    # (cfg, mode, dataset) -> attempt(rng), once per batch; an attempt's None skips
    prepare: Callable[..., Callable[[RngStream], IntervalSet | None]]


SCENARIOS = MappingProxyType({
    "toy_analytic": Scenario(
        columns=(), grid_range=(0.0, 2.5), true_set=None, shapes=None,
        hyper=dict, generate=None, prepare=_prepare_toy,
    ),
    "interval_censored": Scenario(
        columns=("y1", "y2"), grid_range=(-3.0, 12.0),
        true_set=IntervalSet(0.0, 5.0), shapes=(2.0, 2.0),
        hyper=lambda: {"n0": (10.0, 20.0), "base_mean": (0.0, 10.0),
                       "base_var": (1.0, 1.0)},
        generate=_generate_censored, prepare=_prepare_censored,
    ),
    "errors_in_variables": Scenario(
        columns=("y", "z"), grid_range=(0.0, 3.0),
        true_set=IntervalSet(0.5, 2.0), shapes=(1.0, 0.5),
        hyper=lambda: {"n0": 20.0, "base_mean": np.zeros(2),
                       "base_cov": np.array([[2.0, 0.9], [0.9, 2.0]])},
        generate=_generate_errors_in_variables,
        prepare=_prepare_errors_in_variables,
    ),
    "interval_regression": Scenario(
        columns=("y1", "y2", "x", "z"), grid_range=(-1.0, 20.0),
        true_set=IntervalSet(2.0, 6.0), shapes=(1.0, 0.5),
        hyper=_interval_regression_hyper,
        generate=_generate_interval_regression,
        prepare=_prepare_interval_regression,
    ),
    "binary_missing": Scenario(
        columns=("yd", "d"), grid_range=(0.0, 1.0),
        true_set=IntervalSet(0.4, 0.9), shapes=(1.0, 0.5),
        hyper=lambda: {"alpha": np.array([2.0, 3.0, 1.0])},
        generate=_generate_binary, prepare=_prepare_binary,
    ),
})

SCENARIO_IDS = tuple(SCENARIOS)


def _scenario(scenario_id: str) -> Scenario:
    try:
        return SCENARIOS[scenario_id]
    except KeyError:
        raise ParameterError(f"unknown scenario {scenario_id!r}") from None


def prepare_draw(
    cfg: ScenarioConfig,
    mode: str,
    dataset: Dataset | None = None,
) -> Callable[[RngStream], IntervalSet | None]:
    """Check a batch's mode and dataset once; return its ``attempt(rng)``.

    The attempt makes one realization of the scenario's random identified
    interval from ``rng``, or returns None when a scenario guard fails (the
    draw is skipped).  Whatever does not depend on the stream (process specs,
    data columns, conjugate parameters, covariance factors) is computed here,
    once.  Posterior mode requires a dataset from :func:`generate_data`.
    """
    if mode not in ("prior", "posterior"):
        raise ParameterError(f"mode must be 'prior' or 'posterior', got {mode!r}")
    sid = cfg.scenario_id
    scenario = _scenario(sid)
    if mode == "posterior":
        if not scenario.columns:
            raise ParameterError(f"{sid} has no posterior")
        if dataset is None:
            raise ParameterError("posterior draws need a dataset")
        if dataset.scenario_id != sid:
            raise ParameterError(
                f"dataset was generated for {dataset.scenario_id!r}, not {sid!r}"
            )
    return scenario.prepare(cfg, mode, dataset)


def draw_set(
    cfg: ScenarioConfig,
    mode: str,
    rng: RngStream,
    dataset: Dataset | None = None,
) -> IntervalSet | None:
    """One realization of the scenario's random identified interval.

    Same as ``prepare_draw(cfg, mode, dataset)(rng)``; batches prepare once.
    """
    return prepare_draw(cfg, mode, dataset)(rng)


# --- batch assembly ----------------------------------------------------------

# (attempt, master_seed, role), set once in each pool worker by _init_worker
_worker_job = None


def _init_worker(attempt, master_seed, role):
    global _worker_job
    _worker_job = (attempt, master_seed, role)


def _run_chunk(attempt, master_seed, role, attempts: range):
    """Outcomes of a contiguous range of attempts, in index order, run as consumed."""
    return (attempt(rng) for rng in attempt_streams(master_seed, role, attempts))


def _pool_chunk(attempts: range):
    """Outcomes up to the first error, and that error (or None): the caller
    raises it only if it consumes the failing attempt, as a serial run would."""
    outcomes = []
    try:
        for outcome in _run_chunk(*_worker_job, attempts):
            outcomes.append(outcome)
    except Exception as exc:
        return outcomes, exc
    return outcomes, None


def _pool_outcomes(executor, chunks):
    for outcomes, error in executor.map(_pool_chunk, chunks):
        yield from outcomes
        if error is not None:
            raise error


def max_workers() -> int:
    """The number of CPUs this process may run on: the largest worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_workers(workers: int) -> int:
    """Return ``workers`` if it lies in ``[1, max_workers()]``; raise otherwise.

    Starts no process, so a bad count fails before any pool exists.
    """
    limit = max_workers()
    if not 1 <= workers <= limit:
        raise ParameterError(f"workers must lie in [1, {limit}] on this machine, "
                             f"got {workers}")
    return workers


def run_attempts(attempt, n_draws: int, master_seed: int, role: int, workers: int,
                 label: str):
    """Run attempts 0, 1, 2, ... in index order until ``n_draws`` are accepted.

    ``attempt(rng)`` returns a result, or None for a skip; attempt j always
    uses the substream keyed by (master_seed, role, j), so the outcome is the
    same for any worker count.  Attempts run in contiguous chunks whose
    streams are seeded a chunk at a time (:func:`attempt_streams`).  The
    first block holds ``n_draws`` attempts; each top-up block is sized by the
    acceptance rate so far, so a batch that mostly skips builds few blocks.
    Attempts past the ``n_draws``-th acceptance are never consumed: a serial
    run does not make them, and a pool run drops them and any error they
    raised.  A pool worker receives ``attempt`` once; its tasks carry only
    attempt ranges.  The pool has at most :func:`max_workers` processes,
    whatever ``workers`` asks for; outputs do not depend on the worker count.
    Returns ``(attempt_indices, results, skipped)``.  Raises
    :class:`SkipBudgetError`, its message opened by ``label``, when skips
    exhaust ``50 * n_draws + 1000`` attempts.
    """
    if n_draws < 1:
        raise ParameterError("n_draws must be >= 1")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    workers = min(workers, max_workers())
    indices, results = [], []
    skipped = next_index = 0
    attempt_cap = 50 * n_draws + 1000
    executor = None
    if workers > 1:
        executor = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                       initargs=(attempt, master_seed, role))
    try:
        while len(results) < n_draws:
            need = n_draws - len(results)
            if next_index + need > attempt_cap:
                raise SkipBudgetError(
                    f"{label}: skip rate too high; {skipped} skips in {next_index} attempts",
                    skipped=skipped, attempts=next_index)
            # expect `need` acceptances at the rate seen so far
            size = max(need, need * next_index // max(len(results), 1))
            block = range(next_index, min(next_index + size, attempt_cap))
            next_index = block.stop
            if executor is None:
                outcomes = _run_chunk(attempt, master_seed, role, block)
            else:
                step = max(1, len(block) // (4 * workers))
                chunks = [block[i:i + step] for i in range(0, len(block), step)]
                outcomes = _pool_outcomes(executor, chunks)
            for i, res in zip(block, outcomes):
                if res is None:
                    skipped += 1
                    continue
                indices.append(i)
                results.append(res)
                need -= 1
                if not need:
                    break
    finally:
        if executor is not None:
            executor.shutdown()
    return indices, results, skipped


def _then_uniform(attempt, rng):
    """An attempt's interval and the next uniform of its stream; None for a skip."""
    interval = attempt(rng)
    return None if interval is None else (interval, rng.uniform())


def draw_set_batch(
    cfg: ScenarioConfig,
    mode: str,
    n_draws: int,
    master_seed: int,
    dataset: Dataset | None = None,
    workers: int = 1,
    role: int | None = None,
) -> SetDrawBatch:
    """Collect ``n_draws`` accepted interval draws, skipping guard violations.

    Each accepted attempt then draws one more uniform, the batch's
    ``gamma_uniforms``, for :func:`~partialid.priors.draw_gammas`.
    Byte-identical for any worker count; see :func:`run_attempts`.
    """
    if role is None:
        role = ROLE_PRIOR_SETS if mode == "prior" else ROLE_POSTERIOR_SETS
    indices, results, skipped = run_attempts(
        partial(_then_uniform, prepare_draw(cfg, mode, dataset)),
        n_draws, master_seed, role, workers, f"{cfg.scenario_id} {mode}",
    )
    intervals, uniforms = zip(*results)
    return SetDrawBatch([iv.lo for iv in intervals], [iv.hi for iv in intervals], mode,
                        cfg.scenario_id, skipped=skipped, attempt_indices=indices,
                        gamma_uniforms=uniforms)


# --- closed-form oracles -----------------------------------------------------

def analytic_coverage_toy(gamma):
    """Closed-form prior coverage of the toy random interval."""
    g = np.asarray(gamma, dtype=float)
    out = np.where(
        (0.0 <= g) & (g <= 1.0), g, np.where((1.0 < g) & (g <= 2.0), 2.0 - g, 0.0)
    )
    return float(out) if np.isscalar(gamma) else out


def analytic_capacity_toy(probe: IntervalSet) -> float:
    """Closed-form probability that the toy random interval hits the probe.

    The interval [lo, hi] with lo ~ U[0,1], hi ~ U[1,2] independent hits
    [a, b] iff lo <= b and hi >= a, giving a product of two uniform CDFs.
    """
    p_lo = min(max(probe.hi, 0.0), 1.0)
    p_hi = min(max(2.0 - probe.lo, 0.0), 1.0)
    return p_lo * p_hi


def analytic_coverage_binary(gamma, alpha):
    """Closed-form coverage of the three-cell Dirichlet random interval.

    The lower endpoint is Beta(a1, a2 + a3) and the upper is Beta(a1 + a3, a2),
    and since lower <= upper almost surely the coverage at gamma is the
    difference of their CDFs.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3,) or np.any(alpha <= 0):
        raise ParameterError("alpha must be three positive numbers")
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0) or np.any(g > 1):
        raise ParameterError("gamma must lie in [0, 1]")
    lower_cdf = beta_cdf(g, alpha[0], alpha[1] + alpha[2])
    upper_cdf = beta_cdf(g, alpha[0] + alpha[2], alpha[1])
    out = lower_cdf - upper_cdf
    return float(out) if np.isscalar(gamma) else out
