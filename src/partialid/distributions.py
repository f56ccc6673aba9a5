"""Sampling primitives, special functions, and covariance repair.

All samplers are deterministic transforms of uniforms taken from an
:class:`~partialid.rng.RngStream` — inverse-CDF wherever a quantile function
exists, never unbounded rejection — so a stream's uniform sequence maps to the
same variates on every platform; each variate takes one uniform.  Every Beta
variate goes through :func:`beta_quantile`: the closed form
``-expm1(log1p(-u) / b)`` for Beta(1, b), every stick-breaking fraction; for
other shapes in [1, 1e4]^2 a table built once per shape per process, within
1e-10 of the inverse regularized incomplete beta function and in [0, 1], as
the inverse is; and that inverse, ``betaincinv``, for the rest.  The
truncated normal has a log-space quantile built from ``log_ndtr`` and
``ndtri_exp``.  ``scipy.stats`` is not imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import ParameterError, as_reals, as_symmetric, as_unit, check_finite, check_positive
from .rng import RngStream


#: Least and greatest Beta shape parameter :func:`beta_quantile` tabulates,
#: the square CI's accuracy sweep covers (``.github/scripts/beta_quantile_sweep.py``).
BETA_TABLE_SHAPES = (1.0, 1e4)

# the table's nodes: ndtri of every positive uniform on the 2**-53 lattice
# lies in [-8.3, 8.3]
_T_END, _NODES = 8.3, 256
_STEP = 2 * _T_END / (_NODES - 1)


def beta_quantile(a: float, b: float, u):
    """The Beta(a, b) quantile of each uniform in ``u``, the path of every Beta variate.

    It is the closed form at ``a == 1``.  With both shapes in
    :data:`BETA_TABLE_SHAPES` it is a table built once per shape per process
    (:func:`_beta_table`) and evaluated at t = ``ndtri(u)``: within 1e-10 of
    ``betaincinv``, exactly 0 at u = 0 and clipped to [0, 1].  Any other
    shape, or a table with a coefficient that is not finite, inverts by
    ``betaincinv``.  The path is fixed by (a, b) alone, so a uniform gives the
    same bits in every batch, chunk and process.  At u = 1 it is exactly 1 on
    every path, with no warning.  A ``u`` outside [0, 1], NaN too, raises
    :class:`ParameterError`; :func:`sample_beta` skips that check and the
    u = 1 case, as a stream's uniforms lie in [0, 1).
    """
    u = as_unit("u", u)
    top = u == 1
    if not top.any():
        return _beta_quantile(a, b, u)
    # the closed form would take log1p(-1), the table its value at t = 8.3
    return np.where(top, 1.0, _beta_quantile(a, b, np.where(top, 0.0, u)))[()]


def _beta_quantile(a: float, b: float, u):
    """:func:`beta_quantile` of uniforms known to lie in [0, 1]."""
    check_positive(a=a, b=b)  # before the cache: NaN and arrays raise here
    if a == 1:
        # I_x(1, b) = 1 - (1 - x)**b inverts exactly
        return -np.expm1(np.log1p(-u) / b)
    least, greatest = BETA_TABLE_SHAPES
    inside = least <= min(a, b) and max(a, b) <= greatest
    coef = _beta_table(float(a), float(b)) if inside else None
    if coef is None:
        return special.betaincinv(a, b, u)
    u = np.asarray(u, dtype=float)
    # ndtri(0) is -inf: clip before the step index is taken (minimum and
    # maximum, as np.clip's dispatch costs more than a chunk's few rho values)
    s = (np.minimum(np.maximum(special.ndtri(u), -_T_END), _T_END) + _T_END) / _STEP
    k = np.minimum(s.astype(np.intp), _NODES - 2)
    s -= k
    x = coef[5][k]
    for c in coef[4::-1]:
        x *= s
        x += c[k]
    return np.where(u > 0, np.minimum(np.maximum(x, 0.0), 1.0), 0.0)[()]  # a scalar for a scalar u


@lru_cache(maxsize=128)  # about 12 KB a shape
def _beta_table(a: float, b: float) -> np.ndarray | None:
    """The (6, _NODES - 1) coefficients, lowest power first, of the quintic
    Hermite interpolant of the Beta(a, b) quantile x(t) = F^-1(Phi(t)) on 256
    evenly spaced t in [-8.3, 8.3] (numerical inversion, Hörmann and Leydold
    2003), or None if one is not finite.  Node values are ``betaincinv``'s,
    the upper half by the reflection 1 - I^-1(b, a, Phi(-t)); the derivatives
    come from the density, x' = phi(t) / f(x) and x'' = x' (-t - x' (log f)'(x)).
    """
    t = np.linspace(-_T_END, _T_END, _NODES)
    low = t < 0
    # below the median x is inverted, above it 1 - x (by reflection), so
    # each tail keeps the value near 0 to full relative precision and
    # log(1 - x) stays finite where x rounds to 1
    x, xc = np.empty(_NODES), np.empty(_NODES)
    x[low] = special.betaincinv(a, b, special.ndtr(t[low]))
    xc[~low] = special.betaincinv(b, a, special.ndtr(-t[~low]))
    xc[low], x[~low] = 1 - x[low], 1 - xc[~low]
    log_density = (a - 1) * np.log(x) + (b - 1) * np.log(xc) - special.betaln(a, b)
    dx = np.exp(-0.5 * t * t - 0.5 * math.log(2 * math.pi) - log_density)
    d2x = dx * (-t - dx * ((a - 1) / x - (b - 1) / xc))
    # one quintic per step in s = (t - t_k) / _STEP on [0, 1]
    d, s2 = _STEP * dx, _STEP**2 * d2x
    rise, d0, d1, s0, s1 = np.diff(x), d[:-1], d[1:], s2[:-1], s2[1:]
    coef = np.array([
        x[:-1], d0, s0 / 2,
        10 * rise - 6 * d0 - 4 * d1 - 1.5 * s0 + 0.5 * s1,
        -15 * rise + 8 * d0 + 7 * d1 + 1.5 * s0 - s1,
        6 * rise - 3 * (d0 + d1) - 0.5 * (s0 - s1),
    ])
    return coef if np.isfinite(coef).all() else None


def sample_beta(a: float, b: float, rng: RngStream, size=None):
    """Beta(a, b) draws: :func:`beta_quantile` of ``size`` uniforms."""
    return _beta_quantile(a, b, rng.uniform(size))


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
    try:
        return np.linalg.cholesky(as_symmetric("covariance", cov))
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
    mean = as_reals("mean", mean)
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
    out = special.betainc(a, b, as_unit("x", x))
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
    m = as_symmetric("matrix", m)
    w, v = np.linalg.eigh(m)
    if w.min() >= EIGEN_FLOOR:
        return PsdRepair(m.copy(), False)
    repaired = (v * np.maximum(w, EIGEN_FLOOR)) @ v.T
    repaired = (repaired + repaired.T) / 2.0
    return PsdRepair(repaired, True)
