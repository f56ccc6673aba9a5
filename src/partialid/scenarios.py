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
from .distributions import beta_cdf, psd_repair, sample_mvnormal, sample_normal, sample_dirichlet
from .errors import ParameterError, SkipBudgetError
from .random_sets import IntervalSet, SetDrawBatch
from .rng import RngStream, substream

log = logging.getLogger(__name__)

# Stream roles: disjoint index blocks so every workflow stage has its own
# independent substream family under a single master seed.
ROLE_DATA = 0
ROLE_PRIOR_SETS = 1
ROLE_POSTERIOR_SETS = 2
ROLE_PRIOR_GAMMA = 3
ROLE_POSTERIOR_GAMMA = 4
ROLE_HELDOUT_SETS = 5

_ROLE_SHIFT = 32


def attempt_stream(master_seed: int, role: int, attempt: int) -> RngStream:
    """The stream owned by one attempt of one workflow stage."""
    if attempt < 0 or attempt >= 2**_ROLE_SHIFT:
        raise ParameterError(f"attempt index out of range: {attempt}")
    return substream(master_seed, (role << _ROLE_SHIFT) + attempt)


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


# --- per-scenario data, hyperparameters and interval draws -----------------
# Draw functions run after draw_set has checked the mode and the dataset.

def _draw_toy(cfg, mode, rng, dataset):
    return IntervalSet(rng.uniform(), 1.0 + rng.uniform())


def _generate_censored(n, rng):
    y1 = sample_normal(0.0, 0.1, rng, size=n)
    y2 = sample_normal(5.0, 0.1, rng, size=n)
    return np.column_stack((y1, y2))


def _draw_censored(cfg, mode, rng, dataset):
    n0_1, n0_2 = cfg.hyper["n0"]
    mu1, mu2 = cfg.hyper["base_mean"]
    var1, var2 = cfg.hyper["base_var"]
    spec1 = DirichletProcessSpec(n0_1, partial(sample_normal, mu1, var1))
    spec2 = DirichletProcessSpec(n0_2, partial(sample_normal, mu2, var2))
    r1, r2 = rng.split(0), rng.split(1)
    if mode == "prior":
        m1 = draw_prior(spec1, r1)
        m2 = draw_prior(spec2, r2)
    else:
        m1 = draw_posterior(spec1, dataset.column("y1"), r1)
        m2 = draw_posterior(spec2, dataset.column("y2"), r2)
    return censoring_bounds(m1, m2)


def _joint_measure(cfg, mode, rng, dataset) -> DiscreteMeasure:
    """One draw of the joint process behind the two regression scenarios."""
    base = partial(sample_mvnormal, cfg.hyper["base_mean"], cfg.hyper["base_cov"])
    spec = DirichletProcessSpec(cfg.hyper["n0"], base)
    if mode == "prior":
        return draw_prior(spec, rng)
    return draw_posterior(spec, dataset.values, rng)


def _generate_errors_in_variables(n, rng):
    latent = sample_normal(0.0, 1.0, rng, size=n)
    noise = sample_mvnormal(np.zeros(2), np.eye(2), rng, size=n)
    y = latent + noise[:, 0]  # true slope 1
    z = latent + noise[:, 1]
    return np.column_stack((y, z))


def _draw_errors_in_variables(cfg, mode, rng, dataset):
    return reverse_regression_bounds(_joint_measure(cfg, mode, rng, dataset))


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


def _draw_interval_regression(cfg, mode, rng, dataset):
    return instrument_ratio_bounds(_joint_measure(cfg, mode, rng, dataset))


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


def _draw_binary(cfg, mode, rng, dataset):
    alpha = cfg.hyper["alpha"]
    if mode == "posterior":
        alpha = binary_posterior_params(alpha, count_binary(dataset))
    cells = sample_dirichlet(alpha, rng)
    return IntervalSet(float(cells[0]), float(cells[0] + cells[2]))


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
    draw: Callable[..., IntervalSet | None]  # (cfg, mode, rng, dataset); None skips


SCENARIOS = MappingProxyType({
    "toy_analytic": Scenario(
        columns=(), grid_range=(0.0, 2.5), true_set=None, shapes=None,
        hyper=dict, generate=None, draw=_draw_toy,
    ),
    "interval_censored": Scenario(
        columns=("y1", "y2"), grid_range=(-3.0, 12.0),
        true_set=IntervalSet(0.0, 5.0), shapes=(2.0, 2.0),
        hyper=lambda: {"n0": (10.0, 20.0), "base_mean": (0.0, 10.0),
                       "base_var": (1.0, 1.0)},
        generate=_generate_censored, draw=_draw_censored,
    ),
    "errors_in_variables": Scenario(
        columns=("y", "z"), grid_range=(0.0, 3.0),
        true_set=IntervalSet(0.5, 2.0), shapes=(1.0, 0.5),
        hyper=lambda: {"n0": 20.0, "base_mean": np.zeros(2),
                       "base_cov": np.array([[2.0, 0.9], [0.9, 2.0]])},
        generate=_generate_errors_in_variables, draw=_draw_errors_in_variables,
    ),
    "interval_regression": Scenario(
        columns=("y1", "y2", "x", "z"), grid_range=(-1.0, 20.0),
        true_set=IntervalSet(2.0, 6.0), shapes=(1.0, 0.5),
        hyper=_interval_regression_hyper,
        generate=_generate_interval_regression, draw=_draw_interval_regression,
    ),
    "binary_missing": Scenario(
        columns=("yd", "d"), grid_range=(0.0, 1.0),
        true_set=IntervalSet(0.4, 0.9), shapes=(1.0, 0.5),
        hyper=lambda: {"alpha": np.array([2.0, 3.0, 1.0])},
        generate=_generate_binary, draw=_draw_binary,
    ),
})

SCENARIO_IDS = tuple(SCENARIOS)


def _scenario(scenario_id: str) -> Scenario:
    try:
        return SCENARIOS[scenario_id]
    except KeyError:
        raise ParameterError(f"unknown scenario {scenario_id!r}") from None


def draw_set(
    cfg: ScenarioConfig,
    mode: str,
    rng: RngStream,
    dataset: Dataset | None = None,
) -> IntervalSet | None:
    """One realization of the scenario's random identified interval.

    Returns None when a scenario guard fails (the draw is skipped).  Posterior
    mode requires a dataset from :func:`generate_data`.
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
    return scenario.draw(cfg, mode, rng, dataset)


# --- batch assembly ----------------------------------------------------------

# (attempt, master_seed, role), set once in each pool worker by _init_worker
_worker_job = None


def _init_worker(attempt, master_seed, role):
    global _worker_job
    _worker_job = (attempt, master_seed, role)


def _pool_attempt(index):
    attempt, master_seed, role = _worker_job
    return attempt(attempt_stream(master_seed, role, index))


def run_attempts(attempt, n_draws: int, master_seed: int, role: int, workers: int,
                 label: str):
    """Run attempts 0, 1, 2, ... in index order until ``n_draws`` are accepted.

    ``attempt(rng)`` returns a result, or None for a skip; attempt j always
    uses the substream keyed by (master_seed, role, j), so the outcome is the
    same for any worker count.  A pool worker receives ``attempt`` once; its
    tasks carry only attempt indices.  Returns ``(attempt_indices, results,
    skipped)``.  Raises :class:`SkipBudgetError`, its message opened by
    ``label``, when skips exhaust ``50 * n_draws + 1000`` attempts.
    """
    if n_draws < 1:
        raise ParameterError("n_draws must be >= 1")
    indices, results = [], []
    skipped = next_index = 0
    attempt_cap = 50 * n_draws + 1000
    executor = None
    if workers > 1:
        executor = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                       initargs=(attempt, master_seed, role))
    try:
        while len(results) < n_draws:
            # a block of `need` attempts accepts at most `need`, never overshooting
            need = n_draws - len(results)
            if next_index + need > attempt_cap:
                raise SkipBudgetError(
                    f"{label}: skip rate too high; {skipped} skips in {next_index} attempts",
                    skipped=skipped, attempts=next_index)
            block = range(next_index, next_index + need)
            next_index += need
            if executor is None:
                outcomes = [attempt(attempt_stream(master_seed, role, i)) for i in block]
            else:
                chunk = max(1, need // (4 * workers))
                outcomes = executor.map(_pool_attempt, block, chunksize=chunk)
            for i, res in zip(block, outcomes):
                if res is None:
                    skipped += 1
                else:
                    indices.append(i)
                    results.append(res)
    finally:
        if executor is not None:
            executor.shutdown()
    return indices, results, skipped


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

    Byte-identical for any worker count; see :func:`run_attempts`.
    """
    if role is None:
        role = ROLE_PRIOR_SETS if mode == "prior" else ROLE_POSTERIOR_SETS
    indices, intervals, skipped = run_attempts(
        partial(draw_set, cfg, mode, dataset=dataset),
        n_draws, master_seed, role, workers, f"{cfg.scenario_id} {mode}",
    )
    return SetDrawBatch([iv.lo for iv in intervals], [iv.hi for iv in intervals], mode,
                        cfg.scenario_id, skipped=skipped, attempt_indices=indices)


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
