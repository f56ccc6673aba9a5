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

Attempts run in blocks.  A scenario's prepared draw maps a source of
uniforms, one attempt per row, to interval endpoints and an accept mask; one
draw from one stream (:func:`draw_set`) is a block of one.
:func:`run_attempts` counts the uniforms an attempt reads on one row, and
splits a block of at least :data:`POOL_UNIFORMS` uniforms with the process's
one attempt pool.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .dirichlet import DirichletProcessSpec, process_means
from .distributions import (
    DirichletParams,
    ScalarNormal,
    beta_cdf,
    cholesky_factor,
    psd_repair,
    sample_dirichlet,
    sample_mvnormal,
    sample_normal,
)
from .errors import ParameterError, SkipBudgetError
from .random_sets import IntervalSet, SetDrawBatch
from .rng import RngStream, SeedBlock, UniformRows, substream

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
    hyper: dict

    @property
    def true_set(self) -> IntervalSet | None:
        return SCENARIOS[self.scenario_id].true_set


def make_config(scenario_id: str, n: int | None = None, grid=None) -> ScenarioConfig:
    """Build a scenario configuration, filling in the study defaults."""
    scenario = _scenario(scenario_id)
    if not scenario.columns:
        if n is not None:
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
        if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
            raise ParameterError("grid must be strictly increasing with >= 2 points")
        if not np.isfinite(grid).all():
            raise ParameterError(f"grid points must be finite, got {grid[~np.isfinite(grid)][0]}")
    return ScenarioConfig(scenario_id, n, grid, scenario.hyper())


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observable sample of one scenario: ``values`` is ``(n, k)``, one row per
    observation and one column per name of the scenario's ``columns``, in that
    order, as its data-generating process draws them.  The dataset holds a
    read-only float copy of the values it is given, checked once."""

    scenario_id: str
    values: np.ndarray

    def __post_init__(self):
        columns = _scenario(self.scenario_id).columns
        if not columns:
            raise ParameterError(f"{self.scenario_id} has no data-generating process")
        try:
            values = np.array(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"values must be numbers: {exc}") from None
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.values.shape[1:] != (len(columns),) or self.n < 1:
            raise ParameterError(f"values must be (n >= 1, {len(columns)}) for "
                                 f"{self.scenario_id}, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            row, col = np.argwhere(~np.isfinite(self.values))[0]
            raise ParameterError(f"non-finite value in row {row}, column {columns[col]}")

    @property
    def columns(self) -> tuple[str, ...]:
        return SCENARIOS[self.scenario_id].columns

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def generate_data(cfg: ScenarioConfig, rng: RngStream) -> Dataset:
    """Draw one observable sample from the scenario's data generating process."""
    scenario = _scenario(cfg.scenario_id)
    if not scenario.columns:
        raise ParameterError(f"{cfg.scenario_id} has no data-generating process")
    return Dataset(cfg.scenario_id, scenario.generate(cfg.n, rng))


# --- identified-set functionals -------------------------------------------
# A Dirichlet-process scenario's interval is a map of feature means of its
# process draws (dirichlet.process_means): the ``*_features`` functions map
# atoms (..., k, d) to features (..., q, k), and the ``*_rows`` functions map
# means (..., q), one draw per leading index, to (lo, hi, accept); a draw
# failing a guard is not accepted.  They stay private:
# SCENARIOS binds them in partials at import, and a pool pickles each by its
# module-level name.

def _interval(lo, hi, accept) -> IntervalSet | None:
    return IntervalSet(float(lo), float(hi)) if accept else None


def _moment_features(a):  # y, z, yz, zz, yy of atoms (y, z)
    y, z = a[..., 0], a[..., 1]
    return np.stack((y, z, y * z, z * z, y * y), axis=-2)


def _instrument_features(a):  # y1 z, y2 z, x z of atoms (y1, y2, x, z)
    out = np.empty(a.shape[:-2] + (3, a.shape[-2]))
    for i in range(3):  # in place: faster than stacking three products of strided columns
        np.multiply(a[..., i], a[..., 3], out=out[..., i, :])
    return out


def _reverse_regression_rows(m):
    ey, ez = m[..., 0], m[..., 1]
    syz, szz = m[..., 2] - ey * ez, m[..., 3] - ez * ez
    with np.errstate(divide="ignore", invalid="ignore"):  # in rows the guard rejects
        direct, reverse = syz / szz, (m[..., 4] - ey * ey) / syz
    # min and max of (direct, reverse) as Python's min and max take them
    lo = np.where(reverse < direct, reverse, direct)
    hi = np.where(reverse > direct, reverse, direct)
    return lo, hi, ~(syz <= 0) & ~(szz <= 0)


def _instrument_ratio_rows(m):
    ezx = m[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):  # in rows the guard rejects
        lo, hi = m[..., 0] / ezx, m[..., 1] / ezx
    return lo, hi, ~(ezx <= 0) & ~(lo > hi)


# --- per-scenario data, hyperparameters and prepared draws -----------------
# A scenario's prepare(cfg, mode, dataset) runs once per batch, after
# prepare_draw has checked the mode and the dataset, and returns its draw: a
# map of one source, a stream or a UniformRows, to (lo, hi, accept), reading
# each row's uniforms in order, as many whatever their values.  Unaccepted
# rows are skips, accepted ones without lo <= hi errors; it never raises for
# one row.  A draw is a module-level function or a functools.partial of one,
# so that it pickles.

def _toy_draw(source):
    x = source.uniform(2)
    return x[..., 0], 1.0 + x[..., 1], np.ones(x.shape[:-1], dtype=bool)


def _prepare_toy(cfg, mode, dataset):
    return _toy_draw


def _generate_censored(n, rng):
    y1 = sample_normal(0.0, 0.1, rng, size=n)
    y2 = sample_normal(5.0, 0.1, rng, size=n)
    return np.column_stack((y1, y2))


def _censored_draw(spec1, spec2, t1, t2, source):
    lo = process_means(spec1, source, None, t1)[..., 0]
    hi = process_means(spec2, source, None, t2)[..., 0]
    return lo, hi, ~(hi < lo)


def _prepare_censored(cfg, mode, dataset):
    """The two processes read disjoint uniforms of the attempt stream, in turn.
    Each base is a :class:`~partialid.distributions.ScalarNormal`, so each
    prior side's mean is one normal variate (:func:`process_means`)."""
    n0_1, n0_2 = cfg.hyper["n0"]
    mu1, mu2 = cfg.hyper["base_mean"]
    var1, var2 = cfg.hyper["base_var"]
    spec1 = DirichletProcessSpec(n0_1, ScalarNormal(mu1, var1))
    spec2 = DirichletProcessSpec(n0_2, ScalarNormal(mu2, var2))
    t1 = t2 = None
    if mode == "posterior":  # the (1, n) data tables of the atoms themselves
        t1, t2 = (np.ascontiguousarray(dataset.column(c)[None, :]) for c in ("y1", "y2"))
    return partial(_censored_draw, spec1, spec2, t1, t2)


def _joint_draw(features, bounds_rows, spec, table, source):
    return bounds_rows(process_means(spec, source, features, table))


def _prepare_joint(features, bounds_rows, cfg, mode, dataset):
    """Prepared draw of a regression scenario: ``bounds_rows`` of the means of
    ``features`` under one joint process draw, the data's table built here."""
    mean, cov = cfg.hyper["base_mean"], cfg.hyper["base_cov"]
    base = partial(sample_mvnormal, mean, cov, chol=cholesky_factor(cov))
    spec = DirichletProcessSpec(cfg.hyper["n0"], base)
    table = None if mode == "prior" else np.ascontiguousarray(features(dataset.values))
    return partial(_joint_draw, features, bounds_rows, spec, table)


def _generate_errors_in_variables(n, rng):
    latent = sample_normal(0.0, 1.0, rng, size=n)
    noise = sample_mvnormal(np.zeros(2), np.eye(2), rng, size=n)
    y = latent + noise[:, 0]  # true slope 1
    z = latent + noise[:, 1]
    return np.column_stack((y, z))


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


class BinaryCounts(NamedTuple):
    """Cell counts of the masked binary sample: observed 1s, observed 0s, missing."""

    n1: int
    n0_obs: int
    m: int


def count_binary(dataset: Dataset) -> BinaryCounts:
    """Tally the three observable cells; rejects malformed rows."""
    if dataset.scenario_id != "binary_missing":
        raise ParameterError(f"expected a binary_missing dataset, got {dataset.scenario_id!r}")
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


def _binary_draw(alpha, source):
    cells = sample_dirichlet(alpha, source)
    return cells[..., 0], cells[..., 0] + cells[..., 2], np.ones(cells.shape[:-1], dtype=bool)


def _prepare_binary(cfg, mode, dataset):
    alpha = cfg.hyper["alpha"]
    if mode == "posterior":
        alpha = binary_posterior_params(alpha, count_binary(dataset))
    return partial(_binary_draw, DirichletParams(alpha))


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
    prepare: Callable[..., Callable]  # (cfg, mode, dataset) -> draw, once per batch


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
        prepare=partial(_prepare_joint, _moment_features, _reverse_regression_rows),
    ),
    "interval_regression": Scenario(
        columns=("y1", "y2", "x", "z"), grid_range=(-1.0, 20.0),
        true_set=IntervalSet(2.0, 6.0), shapes=(1.0, 0.5),
        hyper=_interval_regression_hyper,
        generate=_generate_interval_regression,
        prepare=partial(_prepare_joint, _instrument_features, _instrument_ratio_rows),
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
) -> Callable:
    """Check a batch's mode and dataset once; return its picklable draw.

    The draw maps one source, a stream or a
    :class:`~partialid.rng.UniformRows`, to ``(lo, hi, accept)``, one attempt
    per row (a failed scenario guard is a skip, not accepted).  It reads the
    same number of uniforms from every row, whatever they are, which
    :func:`run_attempts` counts.  Whatever does not depend on the uniforms
    (process specs, data columns, conjugate parameters, covariance factors) is
    computed here, once.  Posterior mode requires a dataset from
    :func:`generate_data`.
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

    ``prepare_draw(cfg, mode, dataset)(rng)`` as an interval, or None for a
    skip: a block of one, read from ``rng``.  Batches prepare once.
    """
    return _interval(*prepare_draw(cfg, mode, dataset)(rng))


# --- batch assembly ----------------------------------------------------------

#: Most uniforms a chunk's array holds (256 KB of doubles), so a batch's
#: memory does not grow with its size or its data.
CHUNK_UNIFORMS = 2**15

#: Fewest uniforms, attempts times uniforms per attempt, of a block that is
#: split among the attempt pool's processes; a smaller block is one share,
#: run here.  Through a warm pool of one process on 2 CPUs, a block of 1000
#: interval_censored prior attempts (260000 uniforms) ran slower split than
#: whole, and 1000 errors_in_variables prior attempts (502000) about 1.4x
#: faster; blocks of 3000 to 66000 uniforms lost 0.6 to 1.3 ms each.
POOL_UNIFORMS = 2**18

_pool = None  # (processes, executor): the attempt pool this process's runs share


def _attempt_pool(processes: int) -> ProcessPoolExecutor:
    """This process's attempt pool of ``processes`` processes: started by the
    first block that needs it, kept for later runs, and replaced only for
    another size."""
    global _pool
    if _pool is not None and _pool[0] != processes:
        shutdown_attempt_pool()
    if _pool is None:
        _pool = (processes, ProcessPoolExecutor(max_workers=processes))
    return _pool[1]


def shutdown_attempt_pool() -> None:
    """Shut down this process's attempt pool, if it has one, and wait for its
    processes; the next block over :data:`POOL_UNIFORMS` starts another.  An
    interpreter's exit shuts it down too."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool[1].shutdown(cancel_futures=True)


def _submit(processes: int, draw: Callable, m: int, master_seed: int, share: range):
    """A future of :func:`_task` on ``share`` from this process's attempt pool
    of ``processes`` processes, replaced first if one of its processes died
    since its last block."""
    try:
        return _attempt_pool(processes).submit(_task, draw, m, master_seed, share)
    except BrokenProcessPool:
        shutdown_attempt_pool()
        return _attempt_pool(processes).submit(_task, draw, m, master_seed, share)


def _result(future, draw: Callable, m: int, master_seed: int, share: range):
    """The outcome of a share the pool ran, or, if a process of the pool died
    on the way, of the same share run here: it seeds its own streams, so the
    two are equal."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        first = share.start % 2**_ROLE_SHIFT
        log.warning("the attempt pool broke (%s); attempts %d to %d run here",
                    exc, first, first + len(share) - 1)
        shutdown_attempt_pool()
        return _task(draw, m, master_seed, share)


def _forget_attempt_pool() -> None:
    global _pool
    _pool = None  # a forked child does not own its parent's pool


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_attempt_pool)


def _task(draw: Callable, m: int, master_seed: int, streams: range):
    """``(lo, hi, accept, gamma_uniforms)`` of the attempt streams ``streams``,
    one row each: one share of a block, whose attempts read ``m`` uniforms
    each.  It seeds its own streams in one :class:`~partialid.rng.SeedBlock`
    and runs them in chunks of at most :data:`CHUNK_UNIFORMS` uniforms, each
    row the interval's ``m`` uniforms and the gamma uniform last."""
    seeds = SeedBlock(master_seed, streams)
    step, parts = max(1, CHUNK_UNIFORMS // (m + 1)), []
    for i in range(0, len(streams), step):
        u = seeds.uniforms(m + 1, streams[i:i + step])
        # a copy, so a chunk's array is freed before the outputs are joined
        parts.append((*draw(UniformRows(u)), u[:, -1].copy()))
    return tuple(np.concatenate(out) for out in zip(*parts))


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


def check_attempts(n_draws: int, workers: int) -> None:
    """Raise unless ``n_draws`` and ``workers`` are each at least 1.

    A count above the CPUs is capped where it is used, not rejected here.
    """
    if n_draws < 1:
        raise ParameterError("n_draws must be >= 1")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")


def run_attempts(draw: Callable, n_draws: int, master_seed: int, role: int,
                 workers: int, label: str):
    """Run attempts of ``draw`` (:func:`prepare_draw`) 0, 1, 2, ... in index
    order until ``n_draws`` are accepted.

    Attempt j uses the stream keyed by (master_seed, role, j), whatever the
    worker count.  The uniforms m an attempt reads are counted once, here, by
    one draw from a row of 0.5s: every variate is one uniform by inverse CDF,
    with no rejection, so a row reads m whatever its uniforms.
    The first block holds ``n_draws`` attempts, each top-up block as many as
    the acceptance rate so far asks.
    A block of at least :data:`POOL_UNIFORMS` uniforms (attempts times
    ``m + 1``) is shares of ``ceil(len(block) / workers)`` attempts; a smaller
    one, or any at ``workers`` 1, is one share.  A share (:func:`_task`)
    carries only the draw, m and its attempt range, seeds its own streams and
    runs them in chunks: attempt j's m uniforms are row j of the chunk's array
    (at most :data:`CHUNK_UNIFORMS`), the gamma uniform last.  This process
    computes the first share of every block while its attempt pool of
    ``workers - 1`` processes runs the others: the first split block starts
    the pool, later runs reuse it, and it ends at exit
    (:func:`shutdown_attempt_pool`).  A pool one of whose processes died is
    dropped: a block that finds it so starts a new one, and a share it was
    running runs here.  Shares are consumed in attempt order; those not
    started when the block's acceptances are in are cancelled, and the block
    waits for those running.  Attempts past the ``n_draws``-th acceptance
    are never counted and their errors never raised; a consumed, accepted one
    without ``lo <= hi`` raises :class:`ParameterError`.  Returns
    ``(attempt_indices, lo, hi, gamma_uniforms, skipped)``.  Raises
    :class:`SkipBudgetError`, its message opened by ``label``, when skips
    exhaust ``50 * n_draws + 1000`` attempts.
    """
    check_attempts(n_draws, workers)
    workers = min(workers, max_workers())
    probe = UniformRows(np.broadcast_to(0.5, (1, 2**40)))  # read-only: allocates nothing
    draw(probe)
    m = probe.at
    taken = []  # (indices, lo, hi, gamma uniforms) of each share's acceptances
    need, skipped, next_index = n_draws, 0, 0
    attempt_cap = min(50 * n_draws + 1000, 2**_ROLE_SHIFT)
    base = role << _ROLE_SHIFT
    while need:
        if next_index + need > attempt_cap:
            raise SkipBudgetError(
                f"{label}: skip rate too high; {skipped} skips in {next_index} attempts",
                skipped=skipped, attempts=next_index)
        # expect `need` acceptances at the rate seen so far
        size = max(need, need * next_index // max(n_draws - need, 1))
        streams = range(base + next_index, base + min(next_index + size, attempt_cap))
        next_index = streams.stop - base
        split = workers if len(streams) * (m + 1) >= POOL_UNIFORMS else 1
        step = -(-len(streams) // split)
        shares = [streams[i:i + step] for i in range(0, len(streams), step)]
        # the pool runs the later shares while this process computes the first
        futures = [_submit(workers - 1, draw, m, master_seed, share) for share in shares[1:]]
        outcomes = [partial(_task, draw, m, master_seed, shares[0]),
                    *(partial(_result, future, draw, m, master_seed, share)
                      for future, share in zip(futures, shares[1:]))]
        try:
            for share, outcome in zip(shares, outcomes):
                lo, hi, accept, u = outcome()
                rows = np.flatnonzero(accept)[:need]
                skipped += int(rows[-1] + 1 if len(rows) == need else len(share)) - len(rows)
                first = share.start - base  # the attempt of row 0
                bad = rows[~(lo[rows] <= hi[rows])]
                if bad.size:
                    raise ParameterError(f"{label}: attempt {first + bad[0]} drew the "
                                         f"invalid interval [{lo[bad[0]]}, {hi[bad[0]]}]")
                taken.append((first + rows, lo[rows], hi[rows], u[rows]))
                need -= len(rows)
                if not need:
                    break
        finally:  # a share past the last acceptance is not started, or not read
            for future in futures:
                future.cancel()
            wait(futures)  # and none outlives its block
    return (*(np.concatenate(part) for part in zip(*taken)), skipped)


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

    Attempt j's interval is ``draw_set(cfg, mode, attempt_stream(master_seed,
    role, j), dataset)`` and its ``gamma_uniforms`` entry, for
    :func:`~partialid.priors.draw_gammas`, that stream's next uniform: an
    attempt reads one stream, in order.  Every block of attempts is shares
    that seed their own streams (:func:`run_attempts`), so the batch is
    byte-identical for any worker count.  At ``workers`` 2 or more, the
    blocks of at least :data:`POOL_UNIFORMS` uniforms are split with the
    process's one attempt pool, which the first such block starts and an exit
    ends.
    """
    if role is None:
        role = ROLE_PRIOR_SETS if mode == "prior" else ROLE_POSTERIOR_SETS
    indices, lo, hi, gamma_uniforms, skipped = run_attempts(
        prepare_draw(cfg, mode, dataset), n_draws, master_seed, role, workers,
        f"{cfg.scenario_id} {mode}")
    return SetDrawBatch(lo, hi, mode, cfg.scenario_id, skipped=skipped,
                        attempt_indices=indices, gamma_uniforms=gamma_uniforms)


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
