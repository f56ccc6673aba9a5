"""Conditional priors for the partially identified parameter, and marginal sampling.

Four families of conditional priors on the interval [lo, hi] delivered by one
draw of the identified set:

* ``I``   — normal centered at the interval midpoint, accepted by rejection
            into the interval (bounded by an attempt budget);
* ``II``  — normal centered at zero, truncated to the interval by inverse CDF;
* ``III`` — uniform on the interval (flat);
* ``IV``  — shifted-and-scaled Beta(p, q) supported on the interval.

The two-stage marginal sampler draws the identified interval first (prior or
posterior) and then the parameter from its conditional prior given that draw;
because the parameter is conditionally independent of the data given the
identified quantities, this yields draws from its marginal prior/posterior.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import sample_beta, sample_normal, sample_truncated_normal
from .errors import ParameterError, RejectionBudgetError
from .random_sets import IntervalSet, SetDrawBatch
from .scenarios import (
    SCENARIOS,
    Dataset,
    ROLE_POSTERIOR_GAMMA,
    ROLE_PRIOR_GAMMA,
    ScenarioConfig,
    prepare_draw,
    run_attempts,
)

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
    max_rejections: int = 100_000

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not (self.tau0_sq > 0 and self.sigma0_sq > 0):
            raise ParameterError("prior variances must be positive")
        if not (self.p > 0 and self.q > 0):
            raise ParameterError("Beta shapes must be positive")
        if self.max_rejections < 1:
            raise ParameterError("max_rejections must be >= 1")


def default_prior_spec(scenario_id: str, family: str) -> ConditionalPriorSpec:
    """Study hyperparameters: the scenario's Beta (p, q), variances 1 and 2."""
    scenario = SCENARIOS.get(scenario_id)
    if scenario is None or scenario.shapes is None:
        raise ParameterError(
            f"no default conditional prior wiring for scenario {scenario_id!r}"
        )
    p, q = scenario.shapes
    return ConditionalPriorSpec(family=family, tau0_sq=1.0, sigma0_sq=2.0, p=p, q=q)


def _sample_gamma(spec: ConditionalPriorSpec, interval: IntervalSet, rng):
    """Return (gamma, attempts); attempts > 1 only for the rejection family."""
    lo, hi = interval.lo, interval.hi
    width = hi - lo
    if width < DEGENERATE_WIDTH:
        return interval.midpoint, 1
    if spec.family == "I":
        center = interval.midpoint
        for attempt in range(1, spec.max_rejections + 1):
            x = sample_normal(center, spec.tau0_sq, rng)
            if lo <= x <= hi:
                return x, attempt
        raise RejectionBudgetError(
            f"no acceptance in {spec.max_rejections} proposals for [{lo}, {hi}]",
            interval=interval,
            center=center,
            attempts=spec.max_rejections,
        )
    if spec.family == "II":
        return sample_truncated_normal(0.0, spec.sigma0_sq, lo, hi, rng), 1
    if spec.family == "III":
        return lo + width * rng.uniform(), 1
    return lo + width * sample_beta(spec.p, spec.q, rng), 1


def sample_gamma_given_theta(
    spec: ConditionalPriorSpec, interval: IntervalSet, rng
) -> float:
    """One draw of the partially identified parameter given its interval."""
    gamma, _ = _sample_gamma(spec, interval, rng)
    return float(gamma)


class MarginalSampleBatch(SetDrawBatch):
    """Paired (gamma, interval) draws from the marginal prior or posterior.

    A :class:`SetDrawBatch` whose draws each carry a gamma inside the interval,
    plus the family-I ``rejection_stats`` (proposals per draw -> draws).
    """

    __slots__ = ("gammas", "rejection_stats")

    def __init__(self, gammas, lo, hi, source, scenario_id, skipped=0,
                 rejection_stats=None, attempt_indices=None):
        super().__init__(lo, hi, source, scenario_id, skipped, attempt_indices)
        gammas = np.array(gammas, dtype=float)
        if gammas.shape != self.lo.shape:
            raise ParameterError("gammas, lo, hi must be aligned 1-d arrays")
        if np.any(gammas < self.lo) or np.any(gammas > self.hi):
            raise ParameterError("every gamma must lie in its paired interval")
        gammas.setflags(write=False)
        self.gammas = gammas
        self.rejection_stats = dict(rejection_stats or {})


def _marginal_attempt(draw, spec, rng):
    interval = draw(rng)
    if interval is None:
        return None
    gamma, attempts = _sample_gamma(spec, interval, rng)
    return float(gamma), interval.lo, interval.hi, attempts


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

    Interval draws rejected by the scenario guards propagate as skips; the
    conditional prior is always evaluated at hyperparameters recomputed from
    the freshly drawn identified quantities, never at data-independent ones.
    """
    if role is None:
        role = ROLE_PRIOR_GAMMA if mode == "prior" else ROLE_POSTERIOR_GAMMA
    indices, results, skipped = run_attempts(
        partial(_marginal_attempt, prepare_draw(cfg, mode, dataset), spec),
        n_draws, master_seed, role, workers, f"{cfg.scenario_id} {mode}",
    )
    gammas, lo, hi, attempts = zip(*results)
    rejection_stats = dict(Counter(attempts)) if spec.family == "I" else {}
    return MarginalSampleBatch(
        gammas, lo, hi, mode, cfg.scenario_id,
        skipped=skipped, rejection_stats=rejection_stats, attempt_indices=indices,
    )


@dataclass(frozen=True)
class Histogram:
    """Equal-width bin counts with out-of-range tallies."""

    edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int


def histogram(values, bins: int, value_range) -> Histogram:
    """Bin counts on [lo, hi]; values outside land in the overflow tallies."""
    lo, hi = float(value_range[0]), float(value_range[1])
    if bins < 1:
        raise ParameterError("bins must be >= 1")
    if not lo < hi:
        raise ParameterError(f"need lo < hi, got [{lo}, {hi}]")
    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return Histogram(
        edges=edges,
        counts=counts,
        underflow=int(np.sum(values < lo)),
        overflow=int(np.sum(values > hi)),
    )
