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
from dataclasses import dataclass, field
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
    """:func:`beta_quantile` of uniforms known to lie in [0, 1].  The closed
    form makes one array of ``u``'s shape and changes it in place, and returns
    a scalar for a scalar or 0-d ``u``; ``u`` itself is only read."""
    check_positive(a=a, b=b)  # before the cache: NaN and arrays raise here
    if a == 1:
        # I_x(1, b) = 1 - (1 - x)**b inverts exactly: -expm1(log1p(-u) / b),
        # each step in place in one new array (u is the source's, never written)
        x = np.negative(u, out=np.empty(np.shape(u)))
        np.log1p(x, out=x)
        x /= b
        np.expm1(x, out=x)
        return np.negative(x, out=x)[()]  # a scalar for a scalar u
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
    """The N(mu, var) base measure of a Dirichlet process, checked when made:
    called as ``(rng, size)`` it draws ``size`` atoms by :func:`sample_normal`,
    and its fields state the law, which lets a process draw the mean of its
    atoms as one variate (:func:`~partialid.dirichlet.process_means`), by
    :meth:`weighted_means`, with no further check."""

    mu: float
    var: float

    def __post_init__(self):
        check_finite(mu=self.mu)
        check_positive(variance=self.var)

    def weighted_means(self, weights, total, source):
        """The mean of the atoms under ``weights`` / ``total``, shaped ``(..., 1)``,
        one draw per row of ``weights`` ``(..., k)`` and ``total`` ``(..., 1)``:
        given the weights w it is exactly N(mu, var Σw² / total²), so it reads
        one uniform of ``source``, whatever k."""
        spread = np.sqrt(np.sum(weights * weights, axis=-1, keepdims=True)) / total
        return self.mu + spread * (math.sqrt(self.var) * special.ndtri(source.uniform(1)))

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


@dataclass(frozen=True, eq=False)
class MultivariateNormal:
    """The N(mean, cov) law, checked and factored when made, as the base
    measure of a Dirichlet process is, once a batch: called as ``(rng, size)``
    it draws ``size`` variates, shaped as :func:`sample_mvnormal`'s, with no
    further check.  It keeps read-only copies of ``mean`` and ``cov`` and the
    lower Cholesky factor ``chol``."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_finite(mean=self.mean)
        mean = as_reals("mean", self.mean).copy()
        cov = as_reals("covariance", self.cov).copy()
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ParameterError(
                f"dimension mismatch: mean has shape {mean.shape}, cov has shape {cov.shape}"
            )
        for name, value in (("mean", mean), ("cov", cov), ("chol", cholesky_factor(cov))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __call__(self, rng: RngStream, size=None):
        d = self.mean.size
        u = rng.uniform(size=d if size is None else (size, d))
        # a stack of draws (rows of a UniformRows) multiplies one matrix at a
        # time; the mean is added in place
        x = special.ndtri(u) @ self.chol.T
        if x.ndim == 1:
            x += self.mean
            return x
        # tiled along each row of the flat (rows, size * d) view: one long
        # inner loop a row, in place of size loops of d, with the same sums
        k = x.shape[-2]
        flat = x.reshape(math.prod(x.shape[:-2]), k * d)
        flat += np.tile(self.mean, k)
        return flat.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class NormalProducts:
    """N(mean, cov) atoms, featured as the last coordinate times each of the
    others: the base measure of a Dirichlet process whose features are the
    products z v of an instrument z, the last coordinate, with each other
    coordinate v.  It is checked and factored when made, by
    :class:`MultivariateNormal` with z moved first, and its fields state the
    law of the weighted means of the features, which a process draws
    (:meth:`weighted_means`) with no further check and no atoms.

    Given z, v = c + beta z + e, with e ~ N(0, S) independent of z and S the
    Schur complement of z's variance.  The factor of the covariance with z
    first is [[sd, 0], [sd beta, L_S]], L_S the lower factor of S, so beta
    and L_S come from it, which exists whenever ``cov`` is positive definite;
    S is not formed and factored apart, as its eigenvalues may span many
    orders (1e-6, 2e-6 and 0.158 for the repaired interval_regression base)."""

    mean: np.ndarray
    cov: np.ndarray
    sd: float = field(init=False, repr=False)  # of z
    beta: np.ndarray = field(init=False, repr=False)
    intercept: np.ndarray = field(init=False, repr=False)  # c
    noise: np.ndarray = field(init=False, repr=False)  # L_S

    def __post_init__(self):
        law = MultivariateNormal(self.mean, self.cov)
        if law.mean.size < 2:
            raise ParameterError(f"products need at least two coordinates, got {law.mean.size}")
        chol = cholesky_factor(np.roll(law.cov, 1, axis=(0, 1)))  # z first
        sd = float(chol[0, 0])
        beta = chol[1:, 0] / sd
        intercept = law.mean[:-1] - beta * law.mean[-1]
        for name, value in (("mean", law.mean), ("cov", law.cov), ("beta", beta),
                            ("intercept", intercept), ("noise", chol[1:, 1:].copy())):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "sd", sd)

    def weighted_means(self, weights, total, source):
        """The means of the d - 1 products under ``weights`` / ``total``, shaped
        ``(..., d - 1)``, one draw per row of ``weights`` ``(..., k)`` and
        ``total`` ``(..., 1)``.  It reads k values of z, then d - 1 standard
        normals xi, from ``source``: with A = Σ w z, B = Σ w z² and
        C = Σ (w z)², the weighted sum Σ w z v is exactly
        c A + beta B + sqrt(C) L_S xi given the weights and z."""
        z = special.ndtri(source.uniform(weights.shape[-1]))
        z *= self.sd
        z += self.mean[-1]
        wz = weights * z
        a = wz.sum(axis=-1, keepdims=True)
        b = np.sum(wz * z, axis=-1, keepdims=True)
        c = np.sum(wz * wz, axis=-1, keepdims=True)
        xi = special.ndtri(source.uniform(self.beta.size))
        # L_S xi as row-wise sums, so a row's bits do not depend on its block
        noise = np.sum(xi[..., None, :] * self.noise, axis=-1)
        return (self.intercept * a + self.beta * b + np.sqrt(c) * noise) / total


def sample_mvnormal(mean, cov, rng: RngStream, size=None):
    """Multivariate normal draws: Cholesky factor applied to quantile-transformed uniforms.

    ``cov`` must be symmetric positive definite; run :func:`psd_repair` first
    if it is not.  A caller drawing repeatedly from one law makes one
    :class:`MultivariateNormal`, which checks and factors it once.
    Returns shape ``(d,)`` for ``size=None``, else ``(size, d)``.
    """
    return MultivariateNormal(mean, cov)(rng, size)


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
