"""Conditional priors for the partially identified parameter, and marginal sampling.

Four families of conditional priors on the interval [lo, hi] delivered by one
draw of the identified set, each drawn by inverse CDF from one uniform:

* ``I``   — normal centered at the interval midpoint, truncated to the interval;
* ``II``  — normal centered at zero, truncated to the interval;
* ``III`` — uniform on the interval (flat);
* ``IV``  — shifted-and-scaled Beta(p, q) supported on the interval.

The two-stage marginal sampler draws the identified interval first (prior or
posterior) and then the parameter from its conditional prior given that draw;
because the parameter is conditionally independent of the data given the
identified quantities, this yields draws from its marginal prior/posterior.
The second stage is one vectorised step on a batch of interval draws.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .distributions import sample_beta, sample_truncated_normal
from .errors import ParameterError, as_int, as_reals, check_positive
from .random_sets import SetDrawBatch
from .rng import UniformRows
from .scenarios import SCENARIOS, Dataset, ScenarioConfig, draw_set_batch

FAMILIES = ("I", "II", "III", "IV")

#: Below this width all families collapse to the midpoint (point-identified limit).
DEGENERATE_WIDTH = 1e-12


@dataclass(frozen=True)
class ConditionalPriorSpec:
    """One of the four conditional prior families with its hyperparameters."""

    family: str
    tau0_sq: float = 1.0
    sigma0_sq: float = 2.0
    p: float = 1.0
    q: float = 0.5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"family must be one of {FAMILIES}, got {self.family!r}")
        check_positive(tau0_sq=self.tau0_sq, sigma0_sq=self.sigma0_sq, p=self.p, q=self.q)


def default_prior_spec(scenario_id: str, family: str) -> ConditionalPriorSpec:
    """Study hyperparameters: the scenario's Beta (p, q), variances 1 and 2."""
    scenario = SCENARIOS.get(scenario_id)
    if scenario is None or scenario.shapes is None:
        raise ParameterError(
            f"no default conditional prior wiring for scenario {scenario_id!r}"
        )
    p, q = scenario.shapes
    return ConditionalPriorSpec(family=family, tau0_sq=1.0, sigma0_sq=2.0, p=p, q=q)


class MarginalSampleBatch(SetDrawBatch):
    """Paired (gamma, interval) draws from the marginal prior or posterior.

    A :class:`SetDrawBatch` whose draws each carry a gamma inside the interval.
    It shares every array, count and flag of ``batch``, already checked and
    read-only, and checks and copies only ``gammas``.
    """

    __slots__ = ("gammas",)

    def __init__(self, batch: SetDrawBatch, gammas):
        if not isinstance(batch, SetDrawBatch):
            raise ParameterError(f"batch must be a SetDrawBatch, got {type(batch).__name__}")
        for name in SetDrawBatch.__slots__:
            setattr(self, name, getattr(batch, name))
        gammas = as_reals("gammas", gammas).copy()
        if gammas.shape != self.lo.shape:
            raise ParameterError("gammas must align with the batch's draws")
        if not np.all((self.lo <= gammas) & (gammas <= self.hi)):  # NaN fails both
            raise ParameterError("every gamma must lie in its paired interval")
        gammas.setflags(write=False)
        self.gammas = gammas


def draw_gammas(spec: ConditionalPriorSpec, batch: SetDrawBatch) -> MarginalSampleBatch:
    """One gamma per interval of ``batch``, drawn as one vectorised step.

    Draw j transforms ``batch.gamma_uniforms[j]``, the uniform its attempt
    stream drew after the interval, so it never fails and never redraws the
    interval.  An interval narrower than :data:`DEGENERATE_WIDTH` gives its
    midpoint.  The result wraps ``batch``: it shares its intervals, uniforms,
    skip account and high-skip flag, and does not warn again.
    """
    if batch.gamma_uniforms is None:
        raise ParameterError("drawing gammas needs the batch's gamma_uniforms")
    rng = UniformRows(batch.gamma_uniforms[:, None])
    lo, mid = batch.lo, 0.5 * (batch.lo + batch.hi)
    degenerate = batch.hi - lo < DEGENERATE_WIDTH
    hi = np.where(degenerate, lo + 1.0, batch.hi)  # a stand-in whose draw is discarded
    if spec.family == "I":
        draws = sample_truncated_normal(mid, spec.tau0_sq, lo, hi, rng)
    elif spec.family == "II":
        draws = sample_truncated_normal(0.0, spec.sigma0_sq, lo, hi, rng)
    elif spec.family == "III":
        draws = lo + (hi - lo) * rng.uniform()
    else:
        draws = lo + (hi - lo) * sample_beta(spec.p, spec.q, rng)
    return MarginalSampleBatch(batch, np.where(degenerate, mid, draws))


def marginal_sample(
    cfg: ScenarioConfig,
    spec: ConditionalPriorSpec,
    mode: str,
    n_draws: int,
    master_seed: int,
    dataset: Dataset | None = None,
    workers: int = 1,
    role: int | None = None,
) -> MarginalSampleBatch:
    """Draw ``n_draws`` (gamma, interval) pairs from the marginal distribution.

    :func:`draw_gammas` on the :func:`~partialid.scenarios.draw_set_batch` of
    the same arguments; ``role`` keys the attempt streams of both stages.
    """
    batch = draw_set_batch(cfg, mode, n_draws, master_seed, dataset=dataset,
                           workers=workers, role=role)
    return draw_gammas(spec, batch)


@dataclass(frozen=True)
class Histogram:
    """Equal-width bin counts with out-of-range tallies."""

    edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int


def histogram(values, bins: int, value_range) -> Histogram:
    """Bin counts on [lo, hi]; values outside land in the overflow tallies.

    ``value_range`` is two numbers; the values and both range ends must be finite.
    """
    bins = as_int("bins", bins, 1)
    ends = as_reals("value_range", value_range)
    if ends.shape != (2,):
        raise ParameterError(f"value_range must be two numbers, got {reprlib.repr(value_range)}")
    lo, hi = ends.tolist()
    if not -np.inf < lo < hi < np.inf:
        raise ParameterError(f"need finite lo < hi, got [{lo}, {hi}]")
    values = as_reals("values", values)
    if not np.isfinite(values).all():
        raise ParameterError(f"values must be finite, got {values[~np.isfinite(values)][0]}")
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return Histogram(
        edges=edges,
        counts=counts,
        underflow=int(np.sum(values < lo)),
        overflow=int(np.sum(values > hi)),
    )
