"""Truncated stick-breaking simulation of Dirichlet-process priors and posteriors.

A process draw is a row of normalized weights and the row of atoms in R^d they
sit on (:func:`process_draw`).  Prior draws place K atoms sampled from the base
measure, where the stick-breaking weights are truncated at K and renormalized.
The truncation level is chosen from the known law of the discarded tail mass:
minus the log of the tail is Gamma(K, rate n0), so K is the smallest level
that keeps the tail below ``TRUNCATION_EPS`` with probability
1 - ``TRUNCATION_DELTA`` (Muliere & Tardella, 1998).  Posterior draws mix the
truncated prior atoms with the observed data points through a Beta(n, n0)
split and symmetric-Dirichlet data weights.

The arithmetic is row-wise, the blocked view of truncated stick-breaking of
Ishwaran & James (2001): :func:`process_draw`, :func:`row_means` and
:func:`row_covariance` make one draw per row of uniforms, and one draw from a
stream is a block of one, so a row equals its own draw bit for bit.
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


#: The (eps, delta) truncation rule: keep the discarded tail mass below eps
#: with probability 1 - delta, which keeps the truncation error negligible next
#: to Monte Carlo error at ~1000 draws.
TRUNCATION_EPS = 1e-3
TRUNCATION_DELTA = 0.01


@dataclass(frozen=True)
class DirichletProcessSpec:
    """Concentration and base-measure sampler of a Dirichlet process.

    ``base_sampler(rng, size)`` must return ``size`` i.i.d. atoms from the
    base measure, shaped ``(size,)`` for scalar atoms or ``(size, d)``.
    """

    concentration: float
    base_sampler: Callable[[RngStream, int], np.ndarray]

    def __post_init__(self):
        if not self.concentration > 0:
            raise ParameterError(
                f"concentration must be positive, got {self.concentration}"
            )


def stick_weights(n0: float, k: int, rng: RngStream) -> tuple[np.ndarray, float]:
    """Raw (unnormalized) stick-breaking weights and the leftover tail mass.

    Weight j is v_j * prod_{i<j}(1 - v_i) with v_i i.i.d. Beta(1, n0); the
    tail is prod_{i<=k}(1 - v_i), the mass the truncation discards.  A
    :class:`~partialid.rng.UniformRows` gives one draw, and one tail, per row.
    """
    if k < 1:
        raise ParameterError("need at least one stick")
    v = sample_beta(1.0, n0, rng, size=k)
    remaining = np.cumprod(1.0 - v, axis=-1)
    weights = v * np.concatenate((np.ones_like(remaining[..., :1]), remaining[..., :-1]),
                                 axis=-1)
    return weights, remaining[..., -1]


@lru_cache(maxsize=8)
def _data_weight_params(n: int) -> DirichletParams:
    """Dirichlet(1, ..., 1) parameters of n data weights, checked once per size."""
    return DirichletParams(np.ones(n))


def process_uniforms(spec: DirichletProcessSpec, atom_size: int, n: int = 0) -> int:
    """The uniforms one :func:`process_draw` takes, for atoms of ``atom_size``
    uniforms and a posterior on n points (0: the prior)."""
    k = choose_truncation_level(spec.concentration, TRUNCATION_EPS, TRUNCATION_DELTA)
    return k * (1 + atom_size) + (n > 0) + (n if n > 1 else 0)


def process_draw(spec: DirichletProcessSpec, source, data=None):
    """Normalized weights and their atoms of truncated draws, one draw per row:
    the prior, or given n data points the posterior, which puts mass
    rho ~ Beta(n, n0) on the data (last, split by a symmetric Dirichlet) and
    1 - rho on the k prior atoms.

    ``source`` is a stream, for one draw, or a :class:`~partialid.rng.UniformRows`,
    for one draw per row.  A draw takes k sticks, k atoms, then rho and n data
    weights (none for n = 1).
    """
    n0 = spec.concentration
    k = choose_truncation_level(n0, TRUNCATION_EPS, TRUNCATION_DELTA)
    weights, _ = stick_weights(n0, k, source)
    atoms = np.asarray(spec.base_sampler(source, k), dtype=float)
    lead = weights.shape[:-1]  # the rows of a block, () for one draw
    if atoms.shape[:len(lead) + 1] != weights.shape:
        raise ParameterError(f"base sampler returned atoms {atoms.shape}, expected {k}")
    if data is not None:
        data = np.asarray(data, dtype=float)
        if atoms.shape[len(lead) + 1:] != data.shape[1:]:
            raise ParameterError(f"base-measure atoms {atoms.shape[len(lead):]} and data "
                                 f"{data.shape} have different dimensions")
        n = len(data)
        if n == 0:
            raise ParameterError("a posterior draw needs data; pass None for the prior")
        rho = sample_beta(float(n), n0, source, size=1)
        data_w = sample_dirichlet(_data_weight_params(n), source)
        weights = np.concatenate(((1.0 - rho) * weights / weights.sum(axis=-1, keepdims=True),
                                  rho * data_w), axis=-1)
        atoms = np.concatenate((atoms, np.broadcast_to(data, lead + data.shape)),
                               axis=len(lead))
    return weights / weights.sum(axis=-1, keepdims=True), atoms


def row_means(weights, values) -> np.ndarray:
    """Means of ``values`` under normalized ``weights``, row by row (the last axis).

    Each row is the dot product ``weights[r] @ values[r]``, bit for bit.
    """
    return np.matmul(weights[..., None, :], values[..., :, None])[..., 0, 0]


def row_covariance(weights, atoms, i: int, j: int) -> np.ndarray:
    """Covariance of coordinates i and j of ``atoms`` (..., L, d), row by row."""
    xi, xj = atoms[..., i], atoms[..., j]
    return row_means(weights, xi * xj) - row_means(weights, xi) * row_means(weights, xj)
