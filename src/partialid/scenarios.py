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

Attempts run in blocks.  A scenario's prepared draw declares how many
uniforms an attempt takes from each of its streams and maps arrays of them,
one attempt per row, to interval endpoints and an accept mask; one draw from
one stream (:func:`draw_set`) is a block of one.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .dirichlet import (
    DirichletProcessSpec,
    process_draw,
    process_uniforms,
    row_covariance,
    row_means,
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
        if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
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
        row_fmt = ",".join(["%.12g"] * len(self.columns)) + "\n"
        text = ",".join(self.columns) + "\n" + "".join(
            [row_fmt % row for row in zip(*self.values.T.tolist())])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_dataset(path, scenario_id: str) -> Dataset:
    """Read a dataset written by :meth:`Dataset.to_csv`."""
    expected = _scenario(scenario_id).columns
    if not expected:
        raise ParameterError(f"{scenario_id} has no data-generating process")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        columns = tuple(header.split(","))
        lines = fh.read().splitlines()
    if not any(line.strip() for line in lines):  # numpy would warn, then read (0,) values
        raise ParameterError(f"dataset file {path} has no rows")
    try:
        values = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParameterError(f"malformed dataset file {path}: {exc}") from None
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
# Each maps process draws -- normalized weights (..., L) and atoms (..., L) or
# (..., L, d), one draw per leading index -- to (lo, hi, accept); a draw failing
# a guard is not accepted.  They stay private: SCENARIOS binds them in partials
# at import, and a pool pickles each by its module-level name.

def _interval(lo, hi, accept) -> IntervalSet | None:
    return IntervalSet(float(lo), float(hi)) if accept else None


def _censoring_rows(w1, a1, w2, a2):
    lo, hi = row_means(w1, a1), row_means(w2, a2)
    return lo, hi, ~(hi < lo)


def _reverse_regression_rows(w, a):
    syz = row_covariance(w, a, 0, 1)
    szz = row_covariance(w, a, 1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # in rows the guard rejects
        direct, reverse = syz / szz, row_covariance(w, a, 0, 0) / syz
    # min and max of (direct, reverse) as Python's min and max take them
    lo = np.where(reverse < direct, reverse, direct)
    hi = np.where(reverse > direct, reverse, direct)
    return lo, hi, ~(syz <= 0) & ~(szz <= 0)


def _instrument_ratio_rows(w, a):
    z = a[..., 3]
    ezx = row_means(w, a[..., 2] * z)
    with np.errstate(divide="ignore", invalid="ignore"):  # in rows the guard rejects
        lo = row_means(w, a[..., 0] * z) / ezx
        hi = row_means(w, a[..., 1] * z) / ezx
    return lo, hi, ~(ezx <= 0) & ~(lo > hi)


# --- per-scenario data, hyperparameters and prepared draws -----------------
# A scenario's prepare(cfg, mode, dataset) runs once per batch, after
# prepare_draw has checked the mode and the dataset.  Its draw is a
# functools.partial of a module-level function, so that it pickles.

class PreparedDraw(NamedTuple):
    """A scenario's interval draw for one batch: a uniform layout and the draw.

    ``layout`` maps each stream key of an attempt, ``()`` for the attempt
    stream and ``(k,)`` for its split k, to the uniforms the interval takes
    from it.  ``draw`` maps a dict of one source per key, streams or
    :class:`~partialid.rng.UniformRows`, to ``(lo, hi, accept)``.  Unaccepted
    rows are skips, accepted ones without ``lo <= hi`` errors; it never raises
    for one row.
    """

    layout: dict
    draw: Callable

    def __call__(self, rng: RngStream) -> IntervalSet | None:
        """One interval from ``rng`` and its splits, or None for a skip: a block of one."""
        return _interval(*self.draw({key: rng.split(*key) if key else rng
                                     for key in self.layout}))


def _toy_draw(sources):
    x = sources[()].uniform(2)
    return x[..., 0], 1.0 + x[..., 1], np.ones(x.shape[:-1], dtype=bool)


def _prepare_toy(cfg, mode, dataset):
    return PreparedDraw({(): 2}, _toy_draw)


def _generate_censored(n, rng):
    y1 = sample_normal(0.0, 0.1, rng, size=n)
    y2 = sample_normal(5.0, 0.1, rng, size=n)
    return np.column_stack((y1, y2))


def _censored_draw(spec1, spec2, y1, y2, sources):
    return _censoring_rows(*process_draw(spec1, sources[(0,)], y1),
                           *process_draw(spec2, sources[(1,)], y2))


def _prepare_censored(cfg, mode, dataset):
    """The two processes draw from the attempt stream's splits 0 and 1."""
    n0_1, n0_2 = cfg.hyper["n0"]
    mu1, mu2 = cfg.hyper["base_mean"]
    var1, var2 = cfg.hyper["base_var"]
    spec1 = DirichletProcessSpec(n0_1, partial(sample_normal, mu1, var1))
    spec2 = DirichletProcessSpec(n0_2, partial(sample_normal, mu2, var2))
    y1 = y2 = None
    if mode == "posterior":
        y1, y2 = dataset.column("y1"), dataset.column("y2")
    n = 0 if y1 is None else len(y1)
    layout = {(): 0, (0,): process_uniforms(spec1, 1, n), (1,): process_uniforms(spec2, 1, n)}
    return PreparedDraw(layout, partial(_censored_draw, spec1, spec2, y1, y2))


def _joint_draw(bounds_rows, spec, data, sources):
    return bounds_rows(*process_draw(spec, sources[()], data))


def _prepare_joint(bounds_rows, cfg, mode, dataset):
    """Prepared draw of a regression scenario: ``bounds_rows`` of one joint process draw."""
    mean, cov = cfg.hyper["base_mean"], cfg.hyper["base_cov"]
    base = partial(sample_mvnormal, mean, cov, chol=cholesky_factor(cov))
    spec = DirichletProcessSpec(cfg.hyper["n0"], base)
    data = None if mode == "prior" else dataset.values
    m = process_uniforms(spec, len(mean), 0 if data is None else len(data))
    return PreparedDraw({(): m}, partial(_joint_draw, bounds_rows, spec, data))


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


def _binary_draw(alpha, sources):
    cells = sample_dirichlet(alpha, sources[()])
    return cells[..., 0], cells[..., 0] + cells[..., 2], np.ones(cells.shape[:-1], dtype=bool)


def _prepare_binary(cfg, mode, dataset):
    alpha = cfg.hyper["alpha"]
    if mode == "posterior":
        alpha = binary_posterior_params(alpha, count_binary(dataset))
    return PreparedDraw({(): 3}, partial(_binary_draw, DirichletParams(alpha)))


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
    prepare: Callable[..., PreparedDraw]  # (cfg, mode, dataset), once per batch


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
        prepare=partial(_prepare_joint, _reverse_regression_rows),
    ),
    "interval_regression": Scenario(
        columns=("y1", "y2", "x", "z"), grid_range=(-1.0, 20.0),
        true_set=IntervalSet(2.0, 6.0), shapes=(1.0, 0.5),
        hyper=_interval_regression_hyper,
        generate=_generate_interval_regression,
        prepare=partial(_prepare_joint, _instrument_ratio_rows),
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
) -> PreparedDraw:
    """Check a batch's mode and dataset once; return its :class:`PreparedDraw`.

    It declares the uniforms an attempt takes from each of its streams, and
    maps them, one attempt per row, to intervals and an accept mask (a failed
    scenario guard is a skip); called with a stream, it makes one interval.
    Whatever does not depend on the uniforms (process specs, data columns,
    conjugate parameters, covariance factors) is computed here, once.
    Posterior mode requires a dataset from :func:`generate_data`.
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

    Same as ``prepare_draw(cfg, mode, dataset)(rng)``: a block of one, read
    from ``rng`` and its splits.  Batches prepare once.
    """
    return prepare_draw(cfg, mode, dataset)(rng)


# --- batch assembly ----------------------------------------------------------

#: Most uniforms a chunk's array holds per stream key (256 KB of doubles), so
#: a batch's memory does not grow with its size or its data.
CHUNK_UNIFORMS = 2**15


def _chunk(prepared: PreparedDraw, seeds: SeedBlock):
    """``(lo, hi, accept, gamma_uniforms)`` of the attempt streams of ``seeds``,
    one row each."""
    streams = range(seeds.start, seeds.stop)
    uniforms = {}
    for key, m in prepared.layout.items():  # the attempt stream adds the gamma uniform
        keyed = seeds.split(*key) if key else seeds
        uniforms[key] = keyed.uniforms(m if key else m + 1, streams)
    return (*prepared.draw({key: UniformRows(u) for key, u in uniforms.items()}),
            uniforms[()][:, -1])


def _task(prepared: PreparedDraw, seeds: SeedBlock, rows_cap: int):
    """:func:`_chunk` over parts of at most ``rows_cap`` rows of ``seeds``, its
    outputs concatenated: one pool task."""
    parts = [_chunk(prepared, seeds.part(range(i, min(i + rows_cap, seeds.stop))))
             for i in range(seeds.start, seeds.stop, rows_cap)]
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


def attempt_pool(workers: int):
    """A process pool of ``min(workers, max_workers())`` processes to share among
    the batches of a run, as a context manager; None when that is one process."""
    workers = min(workers, max_workers())
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def run_attempts(prepared: PreparedDraw, n_draws: int, master_seed: int, role: int,
                 workers: int, label: str, pool=None):
    """Run attempts 0, 1, 2, ... in index order until ``n_draws`` are accepted.

    Attempt j uses the streams keyed by (master_seed, role, j) and their
    splits, whatever the worker count.  Attempts run in chunks: per stream key
    of ``prepared.layout``, attempt j's uniforms are row j of the chunk's
    array (at most :data:`CHUNK_UNIFORMS`), the gamma uniform last in the
    attempt stream's row.  The first block holds ``n_draws`` attempts, each
    top-up block as many as the acceptance rate so far asks.  Attempts past
    the ``n_draws``-th acceptance are never counted and their errors never
    raised; a consumed, accepted one without ``lo <= hi`` raises
    :class:`ParameterError`.  ``pool`` (:func:`attempt_pool`) runs a block as
    tasks of ``ceil(len(block) / (2 * workers))`` attempts, each looped over
    in chunks; without one, ``workers > 1`` starts a pool for this call.  Returns
    ``(attempt_indices, lo, hi, gamma_uniforms, skipped)``.  Raises
    :class:`SkipBudgetError`, its message opened by ``label``, when skips
    exhaust ``50 * n_draws + 1000`` attempts.
    """
    if n_draws < 1:
        raise ParameterError("n_draws must be >= 1")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    workers = min(workers, max_workers())
    if pool is None and workers > 1:
        with attempt_pool(workers) as pool:
            return run_attempts(prepared, n_draws, master_seed, role, workers, label, pool)
    taken = []  # (indices, lo, hi, gamma uniforms) of each chunk's acceptances
    need, skipped, next_index = n_draws, 0, 0
    attempt_cap = min(50 * n_draws + 1000, 2**_ROLE_SHIFT)
    rows_cap = max(1, CHUNK_UNIFORMS // (1 + max(prepared.layout.values())))
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
        # a task is a chunk serially; with a pool, about 1 / (2 * workers) of the block
        step = rows_cap if pool is None else -(-len(streams) // (2 * workers))
        chunks = [streams[i:i + step] for i in range(0, len(streams), step)]
        seeds = SeedBlock(master_seed, streams)
        for key in prepared.layout:  # the seed words of every key, once per block
            if key:
                seeds.split(*key)
        # serially a chunk is computed when it is consumed; a task gets its
        # share of the seed words and runs it in chunks
        parts = map(seeds.part, chunks)
        outcomes = (map(_chunk, repeat(prepared), parts) if pool is None
                    else pool.map(_task, repeat(prepared), parts, repeat(rows_cap)))
        for chunk, (lo, hi, accept, u) in zip(chunks, outcomes):
            rows = np.flatnonzero(accept)[:need]
            skipped += int(rows[-1] + 1 if len(rows) == need else len(chunk)) - len(rows)
            first = chunk.start - base  # the attempt of row 0
            bad = rows[~(lo[rows] <= hi[rows])]
            if bad.size:
                raise ParameterError(f"{label}: attempt {first + bad[0]} drew the invalid "
                                     f"interval [{lo[bad[0]]}, {hi[bad[0]]}]")
            taken.append((first + rows, lo[rows], hi[rows], u[rows]))
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
    pool=None,
) -> SetDrawBatch:
    """Collect ``n_draws`` accepted interval draws, skipping guard violations.

    Attempt j's uniforms are row j of its chunk's array per stream key, the
    last of its attempt stream's row its ``gamma_uniforms`` entry for
    :func:`~partialid.priors.draw_gammas` (:func:`run_attempts`): its interval
    is ``draw_set(cfg, mode, attempt_stream(master_seed, role, j), dataset)``
    and its gamma uniform that stream's next.  Byte-identical for any worker
    count; ``pool`` shares an :func:`attempt_pool` among a run's batches.
    """
    if role is None:
        role = ROLE_PRIOR_SETS if mode == "prior" else ROLE_POSTERIOR_SETS
    indices, lo, hi, gamma_uniforms, skipped = run_attempts(
        prepare_draw(cfg, mode, dataset), n_draws, master_seed, role, workers,
        f"{cfg.scenario_id} {mode}", pool)
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
