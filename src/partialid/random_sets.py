"""Monte Carlo estimation for random interval identified sets.

Coverage functions, capacity functionals, credible regions, and point
estimates, all computed from batches of simulated interval draws.  Intervals
are closed everywhere: a grid point sitting exactly on an endpoint counts as
covered, and two intervals sharing only an endpoint count as hitting.  The
estimators count draws by binary search in endpoints sorted once per batch:
O((G + N) log N) time and O(G + N) memory for G grid points over N draws.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

#: Skip fraction above which a batch carries a data-quality warning.
HIGH_SKIP_RATE = 0.05

_PACKAGE = __name__.partition(".")[0] + "."


@dataclass(frozen=True)
class IntervalSet:
    """A closed interval [lo, hi]; one realization of a random identified set."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ParameterError(f"inverted interval [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "IntervalSet") -> bool:
        return self.lo <= other.hi and self.hi >= other.lo


class SetDrawBatch:
    """A batch of interval draws from one source, with skip accounting.

    ``skipped`` counts draws the scenario rejected (guard violations such as
    inverted bounds); they are surfaced here rather than silently reordered.
    ``attempt_indices`` optionally records which attempt produced each stored
    draw, which lets run outputs reconcile rows against skips, and
    ``gamma_uniforms`` the uniform in [0, 1) that attempt drew after its
    interval, for a second-stage draw given the interval.  A batch whose
    ``skip_rate`` exceeds :data:`HIGH_SKIP_RATE` sets ``high_skip_warning`` and
    warns at construction, naming the first caller outside the package, unless
    ``warn`` is false (a batch made from one that has warned).
    Marginal (gamma, interval) batches are a subclass, so both kinds follow
    the same rules.
    """

    __slots__ = ("lo", "hi", "source", "scenario_id", "skipped", "attempt_indices",
                 "gamma_uniforms", "high_skip_warning", "_lo_sorted", "_hi_sorted")

    def __init__(self, lo, hi, source: str, scenario_id: str, skipped: int = 0,
                 attempt_indices=None, gamma_uniforms=None, *, warn: bool = True):
        lo = np.array(lo, dtype=float)
        hi = np.array(hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ParameterError("lo and hi must be 1-d arrays of equal length")
        if not np.all(lo <= hi):
            raise ParameterError("NaN endpoints and inverted draws must be skipped, not stored")
        if source not in ("prior", "posterior"):
            raise ParameterError(f"source must be 'prior' or 'posterior', got {source!r}")
        if skipped < 0:
            raise ParameterError("skipped count cannot be negative")
        self.lo = lo
        self.hi = hi
        self.source = source
        self.scenario_id = scenario_id
        self.skipped = int(skipped)
        if attempt_indices is not None:
            attempt_indices = np.array(attempt_indices, dtype=int)
            if attempt_indices.shape != lo.shape:
                raise ParameterError("attempt_indices must align with the draws")
        self.attempt_indices = attempt_indices
        if gamma_uniforms is not None:
            gamma_uniforms = np.array(gamma_uniforms, dtype=float)
            if gamma_uniforms.shape != lo.shape or not np.all(
                    (0 <= gamma_uniforms) & (gamma_uniforms < 1)):
                raise ParameterError("gamma_uniforms must be aligned uniforms in [0, 1)")
            gamma_uniforms.setflags(write=False)
        self.gamma_uniforms = gamma_uniforms
        self._lo_sorted, self._hi_sorted = np.sort(lo), np.sort(hi)
        for arr in (lo, hi, self._lo_sorted, self._hi_sorted):
            arr.setflags(write=False)
        self.high_skip_warning = self.skip_rate > HIGH_SKIP_RATE
        if self.high_skip_warning and warn:
            # name the first caller outside the package (skip_file_prefixes is 3.12+)
            frame, level = sys._getframe(1), 2
            while frame is not None and frame.f_globals.get("__name__", "").startswith(_PACKAGE):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"{scenario_id} {source} batch skipped {self.skipped} of "
                f"{self.skipped + len(self)} draws ({self.skip_rate:.1%})",
                stacklevel=level,
            )

    def __len__(self):
        return self.lo.shape[0]

    @property
    def skip_rate(self) -> float:
        total = self.skipped + len(self)
        return self.skipped / total if total else 0.0

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.scenario_id!r}, {self.source}, n={len(self)}, "
            f"skipped={self.skipped})"
        )


@dataclass(frozen=True)
class CoverageCurve:
    """Pointwise Monte Carlo coverage estimates over a grid."""

    grid: np.ndarray
    values: np.ndarray
    mc_draws: int


def _require_nonempty(batch: SetDrawBatch):
    if len(batch) == 0:
        raise ParameterError("batch is empty")


def _hit_fraction(batch: SetDrawBatch, a, b):
    """Fraction of draws meeting [a, b]: a miss has lo > b or hi < a, never both."""
    return (np.searchsorted(batch._lo_sorted, b, side="right")
            - np.searchsorted(batch._hi_sorted, a, side="left")) / len(batch)


def estimate_coverage(batch: SetDrawBatch, grid) -> CoverageCurve:
    """Fraction of draws covering each grid point, in O((G + N) log N) time.

    Counted by binary search in the batch's sorted endpoints; O(G + N) memory.
    """
    _require_nonempty(batch)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterError("grid must be a nonempty 1-d array")
    if np.any(np.isnan(grid)) or np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be strictly increasing, without NaN")
    values = _hit_fraction(batch, grid, grid)
    return CoverageCurve(grid=grid.copy(), values=values, mc_draws=len(batch))


def estimate_capacity(batch: SetDrawBatch, probe: IntervalSet) -> float:
    """Fraction of draws hitting the closed probe: two binary searches, O(log N)."""
    _require_nonempty(batch)
    return float(_hit_fraction(batch, probe.lo, probe.hi))


@dataclass(frozen=True)
class CredibleRegion:
    """An interval containing the whole random set with the target probability."""

    region: IntervalSet
    containment: float
    alpha: float


def credible_region(batch: SetDrawBatch, alpha: float) -> CredibleRegion:
    """Smallest endpoint-quantile interval containing a fraction >= alpha of draws.

    Starts from the (1-alpha)/2 lower quantile of the left endpoints and the
    matching upper quantile of the right endpoints, then walks both cut points
    outward one order statistic at a time until the fraction of draws fully
    inside reaches alpha.  Monotone in alpha by construction; alpha = 1 gives
    the hull of all draws.
    """
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    if batch.source != "posterior":
        raise ParameterError("credible regions are defined for posterior batches")
    _require_nonempty(batch)
    n = len(batch)
    k = int(np.floor((1.0 - alpha) / 2.0 * n))
    while True:
        q_lo = batch._lo_sorted[k]
        q_hi = batch._hi_sorted[n - 1 - k]
        contained = float(np.mean((batch.lo >= q_lo) & (batch.hi <= q_hi)))
        if contained >= alpha or k == 0:
            break
        k -= 1
    return CredibleRegion(IntervalSet(float(q_lo), float(q_hi)), contained, alpha)


def point_estimate_set(batch: SetDrawBatch) -> IntervalSet:
    """Interval of Monte Carlo mean endpoints (the posterior-mean bounds)."""
    _require_nonempty(batch)
    return IntervalSet(float(batch.lo.mean()), float(batch.hi.mean()))
