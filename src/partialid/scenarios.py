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
                           outcome; conjugate three-cell Dirichlet, whose
                           interval [p1, p1 + p3] is drawn as two Betas;
                           closed-form coverage available.

Draws violating a scenario guard (inverted bounds, nonpositive denominators)
are reported as skips, never reordered or hidden.

Attempts run in blocks.  A scenario's prepared draw maps a source of
uniforms, one attempt per row, to interval endpoints and an accept mask; one
draw from one stream (:func:`draw_set`) is a block of one.
:func:`run_attempts` counts the uniforms an attempt reads on one row, and
splits a block of at least :data:`POOL_UNIFORMS` uniforms with the process's
one attempt pool: ``workers - 1`` processes, each handed its share down its
own pipe by the main thread, with no thread, queue or future between.
"""

from __future__ import annotations

import atexit
import contextlib
import logging
import multiprocessing.connection
import os
import sys
from dataclasses import dataclass
from functools import partial
from multiprocessing import process as mp_process
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .dirichlet import DirichletProcessSpec, process_means
from .distributions import (
    EIGEN_FLOOR,
    MultivariateNormal,
    NormalProducts,
    ScalarNormal,
    beta_cdf,
    psd_repair,
    sample_beta,
    sample_mvnormal,
    sample_normal,
)
from .errors import ParameterError, SkipBudgetError, as_grid, as_int, as_reals, as_unit
from .random_sets import IntervalSet, SetDrawBatch
from .rng import RngStream, UniformRows, seed_words, stream_uniforms, substream

log = logging.getLogger(__name__)

# Stream roles: disjoint index blocks so every workflow stage has its own
# independent substream family under a single master seed.
ROLE_DATA = 0
ROLE_PRIOR_SETS = 1
ROLE_POSTERIOR_SETS = 2
ROLE_HELDOUT_SETS = 5

_ROLE_SHIFT = 32


def _role_base(role: int) -> int:
    """The stream index of attempt 0 of ``role``; a role lies in ``[0, 2**32)``,
    so that every attempt's index lies in ``[0, 2**64)``."""
    if not 0 <= role < 2**_ROLE_SHIFT:
        raise ParameterError(f"role must lie in [0, 2**{_ROLE_SHIFT}), got {role}")
    return int(role) << _ROLE_SHIFT  # a numpy integer would wrap


def attempt_stream(master_seed: int, role: int, attempt: int) -> RngStream:
    """The stream owned by one attempt of one workflow stage."""
    base = _role_base(role)
    if attempt < 0 or attempt >= 2**_ROLE_SHIFT:
        raise ParameterError(f"attempt index out of range: {attempt}")
    return substream(master_seed, base + int(attempt))  # a numpy integer overflows past 2**63


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


def step_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Points from ``lo`` to ``hi`` about ``step`` apart, for a finite spec numpy can allocate."""
    if not (np.isfinite(as_reals("grid spec", [lo, hi, step])).all() and hi > lo and step > 0):
        raise ParameterError(f"bad grid spec: lo={lo}, hi={hi}, step={step}")
    span = (float(hi) - float(lo)) / float(step)  # inf, not numpy's warning, when it overflows
    # numpy sizes an array in bytes, which its index type must count
    if not span < np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise ParameterError(f"grid spec lo={lo}, hi={hi}, step={step} has too many points")
    return np.linspace(lo, hi, int(round(span)) + 1)


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
    scenario = _scenario(scenario_id) if n is None else _with_data(scenario_id)
    n = as_int("n", n, 1) if n is not None else (DEFAULT_SAMPLE_SIZE if scenario.columns else 0)
    if grid is None:
        grid = step_grid(*scenario.grid_range, _GRID_STEP)
    else:
        grid = as_grid("grid", grid)
        # the histogram's range is the grid's ends
        if grid.size < 2 or not np.isfinite(grid[[0, -1]]).all():
            raise ParameterError("grid must be strictly increasing with >= 2 points, all finite")
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
        columns = _with_data(self.scenario_id).columns
        values = as_reals("values", self.values).copy()
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
    return Dataset(cfg.scenario_id, _with_data(cfg.scenario_id).generate(cfg.n, rng))


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
    out = np.empty(a.shape[:-2] + (5, a.shape[-2]))
    out[..., 0, :], out[..., 1, :] = y, z
    for i, (p, q) in enumerate(((y, z), (z, z), (y, y)), 2):
        np.multiply(p, q, out=out[..., i, :])
    return out


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


def _prepare_joint(law, features, bounds_rows, cfg, mode, dataset):
    """Prepared draw of a regression scenario: ``bounds_rows`` of the means of
    ``features`` under one joint process draw whose base is ``law`` of the
    base mean and covariance, the data's table built here.  A law that states
    the weighted means of its features, a
    :class:`~partialid.distributions.NormalProducts`, draws no atoms, and
    takes no ``features`` (:func:`process_means`)."""
    base = law(cfg.hyper["base_mean"], cfg.hyper["base_cov"])
    spec = DirichletProcessSpec(cfg.hyper["n0"], base)
    table = None if mode == "prior" else np.ascontiguousarray(features(dataset.values))
    atom_features = None if hasattr(base, "weighted_means") else features
    return partial(_joint_draw, atom_features, bounds_rows, spec, table)


def _generate_errors_in_variables(n, rng):
    latent = sample_normal(0.0, 1.0, rng, size=n)
    noise = sample_mvnormal(np.zeros(2), np.eye(2), rng, size=n)
    y = latent + noise[:, 0]  # true slope 1
    z = latent + noise[:, 1]
    return np.column_stack((y, z))


def _interval_regression_hyper() -> dict:
    repair = psd_repair(INTERVAL_REGRESSION_RAW_COV)
    if repair.clipped:
        log.info("interval_regression base covariance was not PSD; "
                 "eigenvalues clipped at %g", EIGEN_FLOOR)
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


def _cell_params(alpha) -> np.ndarray:
    """The three Dirichlet cell parameters as floats, each finite and positive."""
    cells = as_reals("alpha", alpha)
    if cells.shape != (3,):
        raise ParameterError(f"alpha must be three numbers, got {alpha!r}")
    if not ((0 < cells) & (cells < np.inf)).all():  # NaN fails both
        raise ParameterError(f"alpha must be finite and positive, got {alpha!r}")
    return cells


def binary_posterior_params(alpha, counts: BinaryCounts) -> np.ndarray:
    """Conjugate update of the three-cell Dirichlet parameters (exact sums)."""
    return _cell_params(alpha) + np.array([counts.n1, counts.n0_obs, counts.m], dtype=float)


def _generate_binary(n, rng):
    y = (rng.uniform(size=n) < 0.8).astype(float)
    d = (rng.uniform(size=n) < 0.5).astype(float)
    return np.column_stack((y * d, d))


def _binary_draw(a1, a2, a3, source):
    # [p1, p1 + p3] of a Dirichlet(a1, a2, a3) draw p, from two Betas: by
    # aggregation p1 + p3 ~ Beta(a1 + a3, a2), and by neutrality
    # p1 / (p1 + p3) ~ Beta(a1, a3), independent of it
    hi = sample_beta(a1 + a3, a2, source)
    lo = hi * sample_beta(a1, a3, source)
    return lo, hi, np.ones(np.shape(hi), dtype=bool)


def _prepare_binary(cfg, mode, dataset):
    alpha = cfg.hyper["alpha"]
    if mode == "posterior":
        alpha = binary_posterior_params(alpha, count_binary(dataset))
    a1, a2, a3 = _cell_params(alpha).tolist()
    return partial(_binary_draw, a1, a2, a3)


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
        prepare=partial(_prepare_joint, MultivariateNormal, _moment_features,
                        _reverse_regression_rows),
    ),
    "interval_regression": Scenario(
        columns=("y1", "y2", "x", "z"), grid_range=(-1.0, 20.0),
        true_set=IntervalSet(2.0, 6.0), shapes=(1.0, 0.5),
        hyper=_interval_regression_hyper,
        generate=_generate_interval_regression,
        prepare=partial(_prepare_joint, NormalProducts, _instrument_features,
                        _instrument_ratio_rows),
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


def _with_data(scenario_id: str) -> Scenario:
    """The record of a scenario that generates data; :class:`ParameterError` otherwise."""
    scenario = _scenario(scenario_id)
    if not scenario.columns:
        raise ParameterError(f"{scenario_id} has no data-generating process")
    return scenario


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
    scenario = _with_data(sid) if mode == "posterior" else _scenario(sid)
    if mode == "posterior":
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

#: Uniforms, as whole rows, of a chunk (256 KB of doubles) where that is more
#: rows than the 64-row floor of :func:`chunk_rows`, as for short rows.
CHUNK_UNIFORMS = 2**15

#: Fewest uniforms, attempts times uniforms per attempt, of a block that is
#: split among the attempt pool's processes; a smaller block is one share,
#: run here.  Through a warm pool of one process on 2 CPUs, blocks of 133760
#: to 251000 uniforms of the other scenarios ran 0.51x to 0.93x as long split
#: as whole, and 4095 toy uniforms 1.3x to 2.1x; interval_censored's 1000
#: prior attempts (260000), 1.12x to 1.17x then, now run 0.55x to 0.82x
#: (6.6 to 6.8 ms whole, 3.7 to 5.4 ms split, in 10 alternating pairs of
#: processes); end to end, 2**17 beat 2**18 in 10 of 10 alternating
#: parallel_posterior pairs.
POOL_UNIFORMS = 2**17


def chunk_rows(m: int) -> int:
    """The rows of a chunk of attempts that read ``m`` uniforms each: the one chunk rule.

    A chunk has ``CHUNK_UNIFORMS // m`` rows, and at least 64 while 64 rows
    hold at most 2**18 uniforms (2 MB); at least one, whatever ``m``.  So a
    chunk's buffer holds at most max(2**18, ``m``) uniforms at any batch size
    or n, and a share reuses one (:func:`_task`).  A draw call has a fixed cost
    of 70 to 190 µs, which the 14 to 21 rows that 2**15 uniforms give a
    study-size posterior did not spread; 48 to 96 rows ran alike, 128 and 256 slowed the
    interval_regression posterior, and a pure uniform count (2**16 or 2**17)
    slowed the errors_in_variables prior, whose draw builds (rows, 5, k)
    features.  At n = 1000, with the gamma uniform: toy_analytic and
    binary_missing (m = 3) run 10922 rows a chunk, interval_censored's prior
    (m = 260) 126, interval_regression's prior (m = 338) 96,
    errors_in_variables' prior (m = 502) 65, and the three posteriors (m =
    1191, 1281 and 2144) 64; none meets the 2**18 cap,
    which leaves 1 or 2 posterior rows at n = 10**5, and one row at m = 10**6.
    """
    return max(1, CHUNK_UNIFORMS // m, min(64, 2**18 // m))


_pool = []  # [(parent's end of a pipe, pool process)]: the pool this process's runs share


def _attempt_pool(processes: int) -> list:
    """This process's pool of ``processes`` processes: kept across runs, replaced if resized."""
    if len(_pool) != processes:
        shutdown_attempt_pool()
        # fork on Linux, as measured, whatever the start method (run_attempts)
        context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
        for _ in range(processes):
            here, there = context.Pipe()
            process = context.Process(target=_serve, args=(there, here))
            process.start()  # the fork closes the earlier ends in its copy of _pool
            there.close()
            _pool.append((here, process))
    return _pool


def shutdown_attempt_pool() -> None:
    """Shut down this process's attempt pool, if any, and join its processes; an exit does too."""
    global _pool
    pool, _pool = _pool, []
    for here, _ in pool:  # every end first: a process ends when its pipe does
        here.close()
    for _, process in pool:
        process.join()


def _serve(there, here) -> None:
    """A pool process: sends back each share's outcome, or error, until its pipe ends."""
    here.close()  # its copy of the parent's end, which would keep the pipe open
    with contextlib.suppress(EOFError, OSError):
        while True:
            task, share = there.recv()
            there.send(task(share))


def _forget_attempt_pool() -> None:
    for here, process in _pool:  # a forked child does not own its parent's pool
        here.close()
        # nor join its processes, as multiprocessing's exit hook would
        mp_process._children.discard(process)
    _pool.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_attempt_pool)
# multiprocessing's exit hook, registered when multiprocessing.connection was
# imported, joins the pool's processes; this one runs first and ends them
atexit.register(shutdown_attempt_pool)


def _with_gamma_uniform(draw: Callable, source):
    """``draw(source)``'s arrays, then each row's next uniform, the gamma uniform
    of :func:`~partialid.priors.draw_gammas`."""
    return (*draw(source), source.uniform())


def _task(draw: Callable, m: int, master_seed: int, streams: range):
    """Each array ``draw`` returns for the attempt streams ``streams``, one row
    each, or the error they raised: one share of a block, whose attempts read
    ``m`` uniforms each.  It computes the seed words of its streams at once
    (:func:`~partialid.rng.seed_words`) and runs them in chunks of
    :func:`chunk_rows` rows, each drawn into one buffer of the share
    (:func:`~partialid.rng.stream_uniforms`); an array the draw returns that
    is a view of the buffer is copied before the next chunk overwrites it."""
    try:
        words = seed_words(master_seed, np.arange(streams.start, streams.stop, dtype=np.uint64))
        rows = min(chunk_rows(m), len(streams))
        buffer = np.empty((rows, m))
        parts = []
        for i in range(0, len(streams), rows):
            u = stream_uniforms(words[i:i + rows], m, out=buffer)
            parts.append([a.copy() if np.may_share_memory(a, buffer) else a
                          for a in draw(UniformRows(u))])
        return tuple(np.concatenate(out) for out in zip(*parts))
    except Exception as exc:  # run_attempts raises it if it consumes the share
        return exc


def max_workers() -> int:
    """The number of CPUs this process may run on: the largest worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_workers(workers: int) -> int:
    """Return ``workers`` if it lies in ``[1, max_workers()]``; raise otherwise.

    Starts no process, so a bad count fails before any pool exists.
    """
    workers = as_int("workers", workers)
    limit = max_workers()
    if not 1 <= workers <= limit:
        raise ParameterError(f"workers must lie in [1, {limit}] on this machine, "
                             f"got {workers}")
    return workers


def check_attempts(n_draws: int, workers: int) -> tuple[int, int]:
    """Return ``n_draws`` and ``workers`` as ints; raise unless each is an
    integer of at least 1 and ``n_draws`` at most 2**32, a role's attempts.
    A worker count above the CPUs is capped where it is used, not rejected."""
    n_draws = as_int("n_draws", n_draws, 1)
    if n_draws > 2**_ROLE_SHIFT:
        raise ParameterError(f"n_draws must be <= 2**{_ROLE_SHIFT}, got {n_draws}")
    return n_draws, as_int("workers", workers, 1)


def run_attempts(draw: Callable, n_draws: int, master_seed: int, role: int,
                 workers: int, label: str):
    """Run attempts of ``draw`` (:func:`prepare_draw`) 0, 1, 2, ... in index
    order until ``n_draws`` are accepted.

    Attempt j uses the stream keyed by (master_seed, role, j), whatever the
    worker count.  The draw is wrapped once in :func:`_with_gamma_uniform`,
    and the uniforms m an attempt of it reads are counted once, here, by one
    draw from a row of 0.5s: every variate is one uniform by inverse CDF, with
    no rejection, so a row reads m whatever its uniforms.  The first block
    holds ``n_draws`` attempts, each top-up block as many as the acceptance
    rate so far asks.  A block of at least :data:`POOL_UNIFORMS` uniforms
    (attempts times m) is shares of ``ceil(len(block) / workers)`` attempts; a
    smaller one, or any at ``workers`` 1, is one share (:func:`_task`), which
    carries only the draw, m and its attempt range.  This process's attempt
    pool is ``workers - 1`` processes, each with a pipe: the first split block
    starts it, later runs reuse it, and it ends at exit
    (:func:`shutdown_attempt_pool`).  On Linux it forks them whatever start
    method is set, so a process that runs threads should run at ``workers``
    1.  The pool serves one thread at a time: runs in two threads at once at
    ``workers`` 2 or more would read each other's replies.  The main thread
    sends each pool process one later share of the block, computes the first
    share itself, and then reads every later share's reply in share order: an
    outcome, or the error the share raised.  A process found dead has its
    share run here, which gives the same bytes; the other processes' replies
    are still read, and then the pool is dropped: the next block starts
    another.  Any other exception while the block runs, such
    as an interrupt in the middle of a reply, drops the pool too, so no reply
    is left for a later block to read as its own.  Only then are the shares
    consumed, in attempt order, up to the ``n_draws``-th acceptance: a share's
    error is raised where it is reached, and so is :class:`ParameterError`
    for an accepted attempt without ``lo <= hi``; later attempts are never
    counted and their errors never raised.  Returns
    ``(attempt_indices, lo, hi, *columns, skipped)``: ``columns`` are the
    accepted rows of each further array of the wrapped draw, the gamma
    uniforms last.  Raises :class:`ParameterError` for a role outside
    ``[0, 2**32)`` or a count or seed that is not an integer, and
    :class:`SkipBudgetError`, its message opened by ``label``, when skips
    exhaust ``50 * n_draws + 1000`` attempts.
    """
    base = _role_base(role)
    n_draws, workers = check_attempts(n_draws, workers)
    master_seed = as_int("master_seed", master_seed)  # before any pool or draw
    others = min(workers, max_workers()) - 1  # the pool's processes; this one draws too
    draw = partial(_with_gamma_uniform, draw)
    probe = UniformRows(np.broadcast_to(0.5, (1, 2**40)))  # read-only: allocates nothing
    draw(probe)
    m = probe.at
    task = partial(_task, draw, m, master_seed)  # the outcome of a share, here or in the pool
    taken = []  # (indices, lo, hi, *columns) of each share's acceptances
    need, skipped, next_index = n_draws, 0, 0
    attempt_cap = min(50 * n_draws + 1000, 2**_ROLE_SHIFT)
    while need:
        if next_index + need > attempt_cap:
            raise SkipBudgetError(
                f"{label}: skip rate too high; {skipped} skips in {next_index} attempts",
                skipped=skipped, attempts=next_index)
        # expect `need` acceptances at the rate seen so far
        size = max(need, need * next_index // max(n_draws - need, 1))
        streams = range(base + next_index, base + min(next_index + size, attempt_cap))
        next_index = streams.stop - base
        pool = _attempt_pool(others) if others and len(streams) * m >= POOL_UNIFORMS else []
        step = -(-len(streams) // (len(pool) + 1))
        shares = [streams[i:i + step] for i in range(0, len(streams), step)]
        try:
            for (here, _), share in zip(pool, shares[1:]):
                with contextlib.suppress(OSError):  # a dead process: reading its reply fails
                    here.send((task, share))
            outcomes = [task(shares[0])]  # the first share runs here, the others there
            lost = False
            for (here, _), share in zip(pool, shares[1:]):
                try:
                    outcomes.append(here.recv())
                except (EOFError, OSError) as exc:  # its process died: it runs here
                    log.warning("the attempt pool lost a share (%r); it runs here", exc)
                    lost = True
                    outcomes.append(task(share))  # it seeds its own streams: the same outcome
            if lost:  # after the live processes' replies: the next block starts another
                shutdown_attempt_pool()
        except BaseException:  # interrupted, maybe mid-message: the next block starts another
            shutdown_attempt_pool()
            raise
        for share, outcome in zip(shares, outcomes):
            if isinstance(outcome, Exception):  # the error the share raised
                raise outcome
            lo, hi, accept, *columns = outcome
            rows = np.flatnonzero(accept)[:need]
            skipped += int(rows[-1] + 1 if len(rows) == need else len(share)) - len(rows)
            first = share.start - base  # the attempt of row 0
            bad = rows[~(lo[rows] <= hi[rows])]
            if bad.size:
                raise ParameterError(f"{label}: attempt {first + bad[0]} drew the "
                                     f"invalid interval [{lo[bad[0]]}, {hi[bad[0]]}]")
            taken.append((first + rows, lo[rows], hi[rows], *(c[rows] for c in columns)))
            need -= len(rows)
            if not need:
                break
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
    role, j), dataset)``.  :func:`run_attempts` keeps the accepted rows of
    every array the draw returns, with that stream's next uniform appended
    by its one wrapper: the ``gamma_uniforms`` entry, for
    :func:`~partialid.priors.draw_gammas`.  Its shares seed their own streams,
    so the batch is byte-identical for any worker count; at ``workers`` 2 or
    more, large blocks are split with the process's one attempt pool.
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
    g = as_reals("gamma", gamma)
    if np.isnan(g).any():
        raise ParameterError("gamma must not be NaN")
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
    alpha = _cell_params(alpha)
    g = as_unit("gamma", gamma)
    lower_cdf = beta_cdf(g, alpha[0], alpha[1] + alpha[2])
    upper_cdf = beta_cdf(g, alpha[0] + alpha[2], alpha[1])
    out = lower_cdf - upper_cdf
    return float(out) if np.isscalar(gamma) else out
