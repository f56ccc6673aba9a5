"""Monte Carlo estimation for random interval identified sets.

Coverage functions, capacity functionals, credible regions, and point
estimates, all computed from batches of simulated interval draws.  Intervals
are closed everywhere: a grid point sitting exactly on an endpoint counts as
covered, and two intervals sharing only an endpoint count as hitting.  A
batch keeps its endpoints and their sorted copies as the four rows of one
read-only array, sorted once in place.  Coverage and capacity count draws by
binary search in the sorted rows: O((G + N) log N) time and O(G + N) memory
for G grid points over N draws.  A credible region takes its ends from them by
index and counts the draws inside in one O(N) pass.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, as_grid, as_int, as_level, as_reals

#: Skip fraction above which a batch carries a data-quality warning.
HIGH_SKIP_RATE = 0.05

_PACKAGE = __name__.partition(".")[0] + "."


@dataclass(frozen=True)
class IntervalSet:
    """A closed interval [lo, hi]; one realization of a random identified set."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = as_reals("lo", self.lo), as_reals("hi", self.hi)  # either may be infinite
        if lo.size != 1 or hi.size != 1:
            raise ParameterError(f"lo and hi must be one number each, got [{self.lo}, {self.hi}]")
        if not lo <= hi:  # NaN fails
            raise ParameterError(f"inverted interval [{self.lo}, {self.hi}]")


def _attempt_indices(values) -> np.ndarray:
    """A new int64 array of ``values``; :class:`ParameterError` unless each is
    an integer of at least 0 that fits int64."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting of lists
        arr = np.asarray(None)
    if arr.size and arr.dtype.kind not in "iu":
        raise ParameterError(f"attempt_indices must be numbers: integers, got {arr.dtype}")
    indices = arr.astype(np.int64)  # a uint64 above the int64 range wraps negative
    if indices.size and indices.min() < 0:
        raise ParameterError("attempt_indices must be numbers: at least 0 and within int64")
    return indices


class SetDrawBatch:
    """A batch of interval draws from one source, with skip accounting.

    ``skipped`` counts draws the scenario rejected (guard violations such as
    inverted bounds); they are surfaced here rather than silently reordered.
    ``attempt_indices`` optionally records which attempt produced each stored
    draw, which lets run outputs reconcile rows against skips, and
    ``gamma_uniforms`` the uniform in [0, 1) that attempt drew after its
    interval, for a second-stage draw given the interval.  A batch whose
    ``skip_rate`` exceeds :data:`HIGH_SKIP_RATE` sets ``high_skip_warning`` and
    warns at construction, naming the first caller outside the package.
    Marginal (gamma, interval) batches are a subclass that wraps a built
    batch, so both kinds follow the same rules and a batch warns once.
    """

    __slots__ = ("lo", "hi", "source", "scenario_id", "skipped", "attempt_indices",
                 "gamma_uniforms", "high_skip_warning", "_lo_sorted", "_hi_sorted")

    def __init__(self, lo, hi, source: str, scenario_id: str, skipped: int = 0,
                 attempt_indices=None, gamma_uniforms=None):
        lo, hi = as_reals("lo", lo), as_reals("hi", hi)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ParameterError("lo and hi must be 1-d arrays of equal length")
        if not np.all(lo <= hi):
            raise ParameterError("NaN endpoints and inverted draws must be skipped, not stored")
        if source not in ("prior", "posterior"):
            raise ParameterError(f"source must be 'prior' or 'posterior', got {source!r}")
        skipped = as_int("skipped", skipped, 0)
        # the endpoints, then their sorted copies, as the rows of one buffer;
        # rows taken before setflags would stay writeable
        ends = np.empty((4, lo.size))
        ends[0], ends[1] = lo, hi
        ends[2:] = ends[:2]
        ends[2:].sort(axis=1)
        ends.setflags(write=False)
        self.lo, self.hi, self._lo_sorted, self._hi_sorted = ends
        self.source = source
        self.scenario_id = scenario_id
        self.skipped = skipped
        if attempt_indices is not None:
            attempt_indices = _attempt_indices(attempt_indices)
            if attempt_indices.shape != lo.shape:
                raise ParameterError("attempt_indices must align with the draws")
        self.attempt_indices = attempt_indices
        if gamma_uniforms is not None:
            gamma_uniforms = as_reals("gamma_uniforms", gamma_uniforms).copy()
            if gamma_uniforms.shape != lo.shape or not np.all(
                    (0 <= gamma_uniforms) & (gamma_uniforms < 1)):
                raise ParameterError("gamma_uniforms must be aligned uniforms in [0, 1)")
            gamma_uniforms.setflags(write=False)
        self.gamma_uniforms = gamma_uniforms
        self.high_skip_warning = self.skip_rate > HIGH_SKIP_RATE
        if self.high_skip_warning:
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
    return (batch._lo_sorted.searchsorted(b, "right")
            - batch._hi_sorted.searchsorted(a, "left")) / len(batch)


def estimate_coverage(batch: SetDrawBatch, grid) -> CoverageCurve:
    """Fraction of draws covering each grid point, in O((G + N) log N) time.

    Counted by binary search in the batch's sorted endpoints; O(G + N) memory.
    """
    _require_nonempty(batch)
    grid = as_grid("grid", grid)
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
    """Equal-tailed endpoint-quantile interval containing a fraction >= alpha of draws.

    With k = floor((1 - alpha) n / 2), taken in integers, the region runs from
    the k-th smallest left endpoint to the k-th largest right endpoint (from
    0).  At most k draws start below it and at most k end above it, so at
    least n - 2k >= alpha n lie inside.  Monotone in alpha; alpha = 1 gives
    the hull of all draws.
    """
    alpha = as_level("alpha", alpha)
    if batch.source != "posterior":
        raise ParameterError("credible regions are defined for posterior batches")
    _require_nonempty(batch)
    n = len(batch)
    p, q = alpha.as_integer_ratio()
    k = (q - p) * n // (2 * q)
    q_lo, q_hi = batch._lo_sorted[k], batch._hi_sorted[n - 1 - k]
    contained = float(np.count_nonzero((batch.lo >= q_lo) & (batch.hi <= q_hi)) / n)
    return CredibleRegion(IntervalSet(float(q_lo), float(q_hi)), contained, alpha)


def point_estimate_set(batch: SetDrawBatch) -> IntervalSet:
    """Interval of Monte Carlo mean endpoints (the posterior-mean bounds);
    :class:`ParameterError` if an end takes both infinities, whose mean is
    undefined."""
    _require_nonempty(batch)
    means = []
    for end, ends, ordered in (("lower", batch.lo, batch._lo_sorted),
                               ("upper", batch.hi, batch._hi_sorted)):
        if ordered[0] == -np.inf and ordered[-1] == np.inf:
            raise ParameterError(f"the mean of the {end} ends is undefined: "
                                 "they include both -inf and +inf")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = ends.mean()
        if not np.isfinite(mean):
            # an infinite end, or finite ends whose sum overflowed, to inf or,
            # with both signs, to nan; the sum of ends / n does neither
            mean = (ends / len(ends)).sum()
        means.append(float(mean))
    return IntervalSet(*means)
