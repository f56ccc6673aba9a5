"""Sampling primitives, special functions, and covariance repair.

All samplers are deterministic transforms of uniforms taken from an
:class:`~partialid.rng.RngStream` — inverse-CDF wherever a quantile function
exists, never unbounded rejection — so a stream's uniform sequence maps to the
same variates on every platform; each variate takes one uniform.  The hot
paths use closed-form quantiles: Exp(1), ``-log1p(-u)``, for Dirichlet
parameters equal to 1 (the Bayesian-bootstrap weights of a posterior draw,
Rubin 1981); Beta(1, b), ``-expm1(log1p(-u) / b)``, for stick-breaking
fractions; and a log-space truncated-normal quantile built from ``log_ndtr``
and ``ndtri_exp``.  Other shapes invert the regularized incomplete gamma and
beta functions of ``scipy.special``, which meets the 1e-10 absolute-accuracy
requirement on the unit interval; ``scipy.stats`` is not imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import ParameterError, as_reals, check_finite, check_positive
from .rng import RngStream


def sample_beta(a: float, b: float, rng: RngStream, size=None):
    """Beta(a, b) draws by inverse CDF, in closed form when ``a == 1``."""
    check_positive(a=a, b=b)
    u = rng.uniform(size)
    if a == 1:
        # I_x(1, b) = 1 - (1 - x)**b inverts exactly
        return -np.expm1(np.log1p(-u) / b)
    return special.betaincinv(a, b, u)


def check_dirichlet(alpha) -> np.ndarray:
    """``alpha`` as a float array; :class:`ParameterError` unless it is a
    nonempty 1-d vector of finite positive numbers."""
    try:
        alpha = np.asarray(alpha, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"Dirichlet parameters must be numbers, got {alpha!r}") from None
    if alpha.ndim != 1 or alpha.size == 0:
        raise ParameterError("alpha must be a nonempty 1-d vector")
    ok = (0 < alpha) & (alpha < np.inf)  # NaN fails both
    if not ok.all():
        raise ParameterError(f"Dirichlet parameters must be finite and positive, "
                             f"got {alpha[~ok][0]}")
    return alpha


def sample_dirichlet(alpha, rng: RngStream) -> np.ndarray:
    """One draw from a Dirichlet distribution on the simplex, or one per row of
    a :class:`~partialid.rng.UniformRows` (shaped ``(rows, K)``).

    Uses the normalized-gamma construction.  A component with parameter 1 is
    an Exp(1) variate, ``-log1p(-u)``; the others invert the regularized
    incomplete gamma function.  ``alpha`` is checked on every call
    (:func:`check_dirichlet`).  One component takes no uniform.
    A draw whose K uniforms are all zero, which does not happen in practice,
    gives NaN weights rather than an error.
    """
    alpha = check_dirichlet(alpha)
    u = rng.uniform(size=alpha.size if alpha.size > 1 else 0)
    if alpha.size == 1:
        return np.ones(u.shape[:-1] + (1,))
    g = -np.log1p(-u)
    shaped = np.flatnonzero(alpha != 1.0)
    if shaped.size:
        g[..., shaped] = special.gammaincinv(alpha[shaped], u[..., shaped])
    return g / g.sum(axis=-1, keepdims=True)


def sample_normal(mu: float, sigma2: float, rng: RngStream, size=None):
    """N(mu, sigma2) draws via the normal quantile transform (sigma2 is a variance)."""
    check_finite(mu=mu)
    check_positive(sigma2=sigma2)
    z = special.ndtri(rng.uniform(size))
    return mu + np.sqrt(sigma2) * z


@dataclass(frozen=True)
class ScalarNormal:
    """The N(mu, var) base measure of a Dirichlet process: called as
    ``(rng, size)`` it draws ``size`` atoms by :func:`sample_normal`, and its
    fields state the law, which lets a process draw the mean of its atoms as
    one variate (:func:`~partialid.dirichlet.process_means`)."""

    mu: float
    var: float

    def __post_init__(self):
        check_finite(mu=self.mu)
        check_positive(variance=self.var)

    def __call__(self, rng: RngStream, size=None):
        return sample_normal(self.mu, self.var, rng, size)


def cholesky_factor(cov) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite covariance matrix."""
    check_finite(covariance=cov)
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ParameterError(f"expected a square covariance matrix, got shape {cov.shape}")
    if not np.array_equal(cov, cov.T):
        raise ParameterError("covariance matrix must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ParameterError(
            "covariance is not positive definite; apply psd_repair first"
        ) from None


def sample_mvnormal(mean, cov, rng: RngStream, size=None, *, chol=None):
    """Multivariate normal draws: Cholesky factor applied to quantile-transformed uniforms.

    ``cov`` must be symmetric positive definite; run :func:`psd_repair` first
    if it is not.  A caller drawing repeatedly from one distribution passes
    ``chol=cholesky_factor(cov)`` to skip the per-call check and factorization.
    Returns shape ``(d,)`` for ``size=None``, else ``(size, d)``.
    """
    check_finite(mean=mean)
    mean = np.asarray(mean, dtype=float)
    cov = as_reals("covariance", cov)
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise ParameterError(
            f"dimension mismatch: mean has shape {mean.shape}, cov has shape {cov.shape}"
        )
    if chol is None:
        chol = cholesky_factor(cov)
    d = mean.size
    u = rng.uniform(size=d if size is None else (size, d))
    z = special.ndtri(u)
    # a stack of draws (rows of a UniformRows) multiplies one matrix at a time
    return mean + z @ chol.T


def sample_truncated_normal(mu, sigma2, lo, hi, rng: RngStream, size=None):
    """N(mu, sigma2) conditioned on [lo, hi], drawn by inverse CDF.

    With standardized bounds a < b and M = Phi(b) - Phi(a), the draw x solves
    Phi(x) = Phi(a) + u M, or equally Phi(-x) = Phi(-b) + (1 - u) M.  Both are
    solved in log space, and x is taken from the first where it is <= 0 and
    from the second otherwise, so ``ndtri_exp`` always inverts a lower-tail
    probability that ``log_ndtr`` holds to full relative precision, even with
    both bounds 60 standard deviations out.  ``mu``, ``lo`` and ``hi`` may be
    arrays of ``size`` elements, one truncated normal each, drawn elementwise.
    """
    lo, hi = as_reals("lo", lo), as_reals("hi", hi)  # either may be infinite
    if not (lo < hi).all():
        lo, hi = np.broadcast_arrays(lo, hi)
        k = np.flatnonzero(~(lo < hi))[0]
        raise ParameterError(f"need lo < hi, got [{lo.flat[k]}, {hi.flat[k]}]")
    check_finite(mu=mu)
    check_positive(sigma2=sigma2)
    sigma = math.sqrt(sigma2)
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    log_below_a = special.log_ndtr(a)
    log_above_b = special.log_ndtr(-b)
    # log M as log Phi(b') + log(1 - Phi(a') / Phi(b')) over [a', b'], the
    # reflection of [a, b] with a' + b' <= 0 (same mass), which leans to the
    # lower tail, where log_ndtr keeps full relative precision
    log_near = special.log_ndtr(np.minimum(b, -a))
    log_far = np.minimum(log_below_a, log_above_b)  # log Phi(a'), Phi monotone
    log_mass = log_near + np.log(-np.expm1(log_far - log_near))
    u = rng.uniform(size)
    below = special.ndtri_exp(np.logaddexp(log_below_a, np.log(u) + log_mass))
    above = -special.ndtri_exp(np.logaddexp(log_above_b, np.log1p(-u) + log_mass))
    x = mu + sigma * np.where(below <= 0, below, above)
    # clip to [lo, hi]: guards the last-ulp rounding at the ends
    return np.minimum(np.maximum(x, lo), hi)


def beta_cdf(x, a: float, b: float):
    """Regularized incomplete beta function I_x(a, b) on [0, 1]."""
    check_positive(a=a, b=b)
    arr = np.asarray(x, dtype=float)
    if not np.all((0 <= arr) & (arr <= 1)):  # NaN fails both
        raise ParameterError("beta_cdf argument must lie in [0, 1]")
    out = special.betainc(a, b, arr)
    return float(out) if np.isscalar(x) else out


class PsdRepair(NamedTuple):
    matrix: np.ndarray
    clipped: bool


#: Smallest eigenvalue :func:`psd_repair` leaves in a matrix.
EIGEN_FLOOR = 1e-6


def psd_repair(m) -> PsdRepair:
    """Clip the spectrum of a symmetric matrix from below at :data:`EIGEN_FLOOR`.

    Returns the repaired matrix together with a flag telling whether any
    eigenvalue actually had to be raised.  Inputs whose smallest eigenvalue
    already meets the floor are returned unchanged.
    """
    check_finite(matrix=m)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ParameterError("matrix must be symmetric")
    w, v = np.linalg.eigh(m)
    if w.min() >= EIGEN_FLOOR:
        return PsdRepair(m.copy(), False)
    repaired = (v * np.maximum(w, EIGEN_FLOOR)) @ v.T
    repaired = (repaired + repaired.T) / 2.0
    return PsdRepair(repaired, True)
