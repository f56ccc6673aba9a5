"""Truncated stick-breaking simulation of Dirichlet-process priors and posteriors.

A process draw is represented as a :class:`DiscreteMeasure`: atoms in R^d with
normalized weights.  Prior draws place K atoms sampled from the base measure,
where the stick-breaking weights are truncated at K and renormalized.  The
truncation level is chosen from the known law of the discarded tail mass:
minus the log of the tail is Gamma(K, rate n0), so K can be picked to keep the
tail below a tolerance with high probability.  Posterior draws mix the
truncated prior atoms with the observed data points through a Beta(n, n0)
split and symmetric-Dirichlet data weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .distributions import DirichletParams, gamma_quantile, sample_beta, sample_dirichlet
from .errors import ParameterError
from .rng import RngStream


@lru_cache(maxsize=None)
def choose_truncation_level(n0: float, eps: float, delta: float) -> int:
    """Smallest K such that P(truncation tail mass > eps) <= delta.

    The tail mass after keeping K sticks satisfies -ln(tail) ~ Gamma(K, n0),
    so the condition is equivalent to the delta-quantile of Gamma(K, n0)
    reaching -ln(eps).
    """
    if not n0 > 0:
        raise ParameterError(f"concentration must be positive, got {n0}")
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ParameterError("eps and delta must lie strictly in (0, 1)")
    target = -np.log(eps)

    def ok(k: int) -> bool:
        return gamma_quantile(delta, k, n0) >= target

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2  # ok(lo) is False (or hi == 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class TruncationPolicy:
    """Either a fixed number of sticks or an (eps, delta) error target."""

    fixed_k: int | None = None
    eps: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.fixed_k is not None:
            if self.fixed_k < 1:
                raise ParameterError("fixed_k must be >= 1")
            if self.eps is not None or self.delta is not None:
                raise ParameterError("give either fixed_k or (eps, delta), not both")
        else:
            if self.eps is None or self.delta is None:
                raise ParameterError("need fixed_k or both eps and delta")
            if not (0 < self.eps < 1 and 0 < self.delta < 1):
                raise ParameterError("eps and delta must lie strictly in (0, 1)")

    @classmethod
    def fixed(cls, k: int) -> "TruncationPolicy":
        return cls(fixed_k=k)

    @classmethod
    def by_error(cls, eps: float, delta: float) -> "TruncationPolicy":
        return cls(eps=eps, delta=delta)

    def resolve(self, n0: float) -> int:
        if self.fixed_k is not None:
            return self.fixed_k
        return choose_truncation_level(n0, self.eps, self.delta)


#: Keeps the truncation error negligible next to Monte Carlo error at ~1000 draws.
DEFAULT_TRUNCATION = TruncationPolicy.by_error(eps=1e-3, delta=0.01)


@dataclass(frozen=True)
class DirichletProcessSpec:
    """Concentration, base-measure sampler, and truncation policy.

    ``base_sampler(rng, size)`` must return ``size`` i.i.d. atoms from the
    base measure, shaped ``(size,)`` for scalar atoms or ``(size, d)``.
    """

    concentration: float
    base_sampler: Callable[[RngStream, int], np.ndarray]
    truncation: TruncationPolicy = DEFAULT_TRUNCATION

    def __post_init__(self):
        if not self.concentration > 0:
            raise ParameterError(
                f"concentration must be positive, got {self.concentration}"
            )


class DiscreteMeasure:
    """Finitely supported probability measure: weighted atoms in R^d.

    Weights are normalized at construction and the arrays are frozen, so a
    measure can be shared freely once built.
    """

    __slots__ = ("atoms", "weights")

    def __init__(self, atoms, weights):
        atoms = np.array(atoms, dtype=float)
        weights = np.array(weights, dtype=float)
        if weights.ndim != 1 or atoms.shape[0] != weights.shape[0]:
            raise ParameterError(
                f"atoms ({atoms.shape}) and weights ({weights.shape}) do not align"
            )
        if atoms.shape[0] == 0:
            raise ParameterError("a measure needs at least one atom")
        if np.any(weights < 0):
            raise ParameterError("weights must be nonnegative")
        total = weights.sum()
        if not total > 0:
            raise ParameterError("weights must have positive total mass")
        self.atoms = atoms
        self.weights = weights / total
        self.atoms.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return 1 if self.atoms.ndim == 1 else self.atoms.shape[1]

    def __repr__(self):
        return f"DiscreteMeasure({len(self)} atoms, dim={self.dim})"


def stick_weights(n0: float, k: int, rng: RngStream) -> tuple[np.ndarray, float]:
    """Raw (unnormalized) stick-breaking weights and the leftover tail mass.

    Weight j is v_j * prod_{i<j}(1 - v_i) with v_i i.i.d. Beta(1, n0); the
    tail is prod_{i<=k}(1 - v_i), the mass the truncation discards.
    """
    if k < 1:
        raise ParameterError("need at least one stick")
    v = sample_beta(1.0, n0, rng, size=k)
    remaining = np.cumprod(1.0 - v)
    weights = v * np.concatenate(([1.0], remaining[:-1]))
    return weights, float(remaining[-1])


def draw_prior(spec: DirichletProcessSpec, rng: RngStream) -> DiscreteMeasure:
    """One truncated draw from the process prior."""
    k = spec.truncation.resolve(spec.concentration)
    weights, _ = stick_weights(spec.concentration, k, rng)
    atoms = np.asarray(spec.base_sampler(rng, k), dtype=float)
    if atoms.shape[0] != k:
        raise ParameterError(
            f"base sampler returned {atoms.shape[0]} atoms, expected {k}"
        )
    return DiscreteMeasure(atoms, weights)


@lru_cache(maxsize=8)
def _data_weight_params(n: int) -> DirichletParams:
    """Dirichlet(1, ..., 1) parameters of n data weights, checked once per size."""
    return DirichletParams(np.ones(n))


def draw_posterior(
    spec: DirichletProcessSpec, data, rng: RngStream
) -> DiscreteMeasure:
    """One truncated draw from the process posterior given observed points.

    The draw places mass rho ~ Beta(n, n0) on the n data points (split by a
    symmetric Dirichlet) and mass 1 - rho on a fresh truncated prior draw.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    if n == 0:
        raise ParameterError("posterior draw needs data; use draw_prior otherwise")
    k = spec.truncation.resolve(spec.concentration)
    prior_w, _ = stick_weights(spec.concentration, k, rng)
    prior_atoms = np.asarray(spec.base_sampler(rng, k), dtype=float)
    if prior_atoms.ndim != data.ndim or (
        prior_atoms.ndim == 2 and prior_atoms.shape[1] != data.shape[1]
    ):
        raise ParameterError(
            f"base-measure atoms {prior_atoms.shape} and data {data.shape} "
            "have different dimensions"
        )
    rho = sample_beta(float(n), spec.concentration, rng)
    data_w = sample_dirichlet(_data_weight_params(n), rng)
    weights = np.concatenate(((1.0 - rho) * prior_w / prior_w.sum(), rho * data_w))
    atoms = np.concatenate((prior_atoms, data), axis=0)
    return DiscreteMeasure(atoms, weights)


def expectation(measure: DiscreteMeasure, h) -> float:
    """Weighted average of ``h`` over the atoms.

    ``h`` receives the full atom array and must return one value per atom.
    """
    values = np.asarray(h(measure.atoms), dtype=float)
    if values.shape != (len(measure),):
        raise ParameterError(
            f"h must map the atom array to shape ({len(measure)},), got {values.shape}"
        )
    return float(measure.weights @ values)


def covariance(measure: DiscreteMeasure, i: int, j: int) -> float:
    """Population covariance of coordinates i and j under the measure."""
    coords = measure.atoms if measure.atoms.ndim == 2 else measure.atoms[:, None]
    d = coords.shape[1]
    if not (0 <= i < d and 0 <= j < d):
        raise ParameterError(f"coordinates ({i}, {j}) out of range for dim {d}")
    w = measure.weights
    xi = coords[:, i]
    xj = coords[:, j]
    mean_i = float(w @ xi)
    mean_j = float(w @ xj)
    return float(w @ (xi * xj)) - mean_i * mean_j
