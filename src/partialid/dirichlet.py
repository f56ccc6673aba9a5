"""Truncated stick-breaking simulation of Dirichlet-process priors and posteriors.

Every functional the scenarios take of a process draw is a mean, and a mean is
linear in the measure, so a draw is never materialised: :func:`process_means`
returns the weighted means of a few features of each draw.  Prior draws place
K atoms sampled from the base measure, where the stick-breaking weights are
truncated at K and renormalized.  The truncation level is chosen from the
known law of the discarded tail mass: minus the log of the tail is Gamma(K,
rate n0), so K, the smallest level that keeps the tail below
``TRUNCATION_EPS`` with probability 1 - ``TRUNCATION_DELTA`` (Muliere &
Tardella, 1998), is the ceiling of the Gamma shape that
``scipy.special.gdtrib`` solves for.  A base measure that states the law of
its weighted feature means needs no atoms.  For a
:class:`~partialid.distributions.ScalarNormal` N(mu, var), featured as the
atoms themselves, given the weights w the weighted mean of K i.i.d. atoms is
exactly N(mu, var Σw² / (Σw)²), one normal variate.  For a
:class:`~partialid.distributions.NormalProducts` N(mean, cov), featured as
the last coordinate z times each of the d - 1 others, given w and the K
values of z the weighted means are exactly jointly normal: K values of z and
d - 1 normal variates in place of dK atom coordinates.
Posterior draws mix the truncated prior with the observed data points through
a Beta(n, n0) split and symmetric-Dirichlet data weights (Ferguson, 1973; the
Bayesian bootstrap of Rubin, 1981), whose side is one weighted sum over the
data's feature table.  Their prior side carries only 1 - rho ~ Beta(n0, n),
so the measure they draw discards (1 - rho) times the tail, and the same
(eps, delta) rule, by a union bound over the two factors, keeps fewer sticks:
at n = 1000, 93 in place of 167 at n0 = 20.

The arithmetic is row-wise, the blocked view of truncated stick-breaking of
Ishwaran & James (2001): :func:`process_means` makes one draw per row of
uniforms, and one draw from a stream is a block of one, so a row equals its
own draw bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special

from .distributions import sample_beta
from .errors import ParameterError, as_int, check_positive
from .rng import RngStream


#: The (eps, delta) truncation rule: keep the discarded tail mass below eps
#: with probability 1 - delta, which keeps the truncation error negligible next
#: to Monte Carlo error at ~1000 draws.
TRUNCATION_EPS = 1e-3
TRUNCATION_DELTA = 0.01

#: Most sticks a truncated draw keeps: K grows linearly in the concentration,
#: and this admits n0 up to about 9401.3, where one row of sticks is 512 KB.
MAX_TRUNCATION_LEVEL = 2**16


def choose_truncation_level(n0: float, n: int = 0) -> int:
    """Smallest K with P(discarded mass > TRUNCATION_EPS) <= TRUNCATION_DELTA,
    for a prior draw (``n`` 0) or a posterior draw given ``n`` data points.

    A prior draw discards the tail T_K after K sticks: -ln(T_K) ~ Gamma(K,
    rate n0), whose CDF at -ln(eps), P(T_K > eps), falls as K grows;
    ``scipy.special.gdtrib`` inverts that CDF in the shape, and K is the
    ceiling of the shape at which it equals delta.  A posterior draw puts
    only 1 - rho ~ Beta(n0, n) on its prior side and discards (1 - rho) T_K.
    Its K is the smallest that meets the rule by a union bound over the two
    independent factors: with s the Beta(n0, n) quantile at 1 - delta / 2,
    P(1 - rho > s) = delta / 2, and K keeps P(T_K > eps / s) <= delta / 2,
    the ceiling of ``gdtrib`` at delta / 2 and ln(s / eps); it is 1 if
    s <= eps, and never more than the prior's K.  K does not increase in n:
    at n = 1000, 93 at n0 = 20 and 46 at n0 = 10, against the prior's 167
    and 90.  Raises :class:`ParameterError` for a concentration that is not
    a positive real number or an ``n`` that is not an integer of at least 0,
    both checked before the cache of levels sees them, and when the prior's K
    would exceed :data:`MAX_TRUNCATION_LEVEL` or its shape is not finite.
    """
    check_positive(concentration=n0)
    return _truncation_level(n0, as_int("n", n, 0))


@lru_cache(maxsize=None)
def _truncation_level(n0: float, n: int) -> int:
    if n:
        prior = _truncation_level(n0, 0)
        half = TRUNCATION_DELTA / 2
        s = special.betaincinv(n0, n, 1 - half)  # P(1 - rho > s) = delta / 2
        if s <= TRUNCATION_EPS:
            return 1
        shape = special.gdtrib(n0, half, math.log(s / TRUNCATION_EPS))
        return math.ceil(shape) if shape < prior else prior  # also a nan shape
    shape = special.gdtrib(n0, TRUNCATION_DELTA, -math.log(TRUNCATION_EPS))
    if not shape <= MAX_TRUNCATION_LEVEL:  # also a shape that is inf or nan
        raise ParameterError(f"concentration {n0} needs {shape} sticks, more than "
                             f"the {MAX_TRUNCATION_LEVEL} a draw may keep")
    return max(1, math.ceil(shape))


@dataclass(frozen=True)
class DirichletProcessSpec:
    """Concentration and base-measure sampler of a Dirichlet process.

    ``base_sampler(rng, size)`` must return ``size`` i.i.d. atoms from the
    base measure, shaped ``(size,)`` for scalar atoms or ``(size, d)``; or the
    base states the law of its weighted feature means, as a
    :class:`~partialid.distributions.ScalarNormal` or a
    :class:`~partialid.distributions.NormalProducts`
    (:func:`process_means`).
    """

    concentration: float
    base_sampler: Callable[[RngStream, int], np.ndarray]

    def __post_init__(self):
        choose_truncation_level(self.concentration)  # raises for a bad concentration


def stick_weights(n0: float, k: int, rng: RngStream) -> tuple[np.ndarray, float]:
    """Raw (unnormalized) stick-breaking weights and the leftover tail mass.

    Weight j is v_j * prod_{i<j}(1 - v_i) with v_i i.i.d. Beta(1, n0); the
    tail is prod_{i<=k}(1 - v_i), the mass the truncation discards.  A
    :class:`~partialid.rng.UniformRows` gives one draw, and one tail, per row.
    It makes two arrays of the sticks' shape, v and the running products of
    1 - v, and changes each in place: ``cumprod(out=)`` for the products,
    then the weights are written over v, with no concatenated copy.
    """
    v = sample_beta(1.0, n0, rng, size=as_int("k", k, 1))
    remaining = np.subtract(1.0, v)
    np.cumprod(remaining, axis=-1, out=remaining)
    # v becomes the weights: v[..., 1:] *= remaining[..., :-1], taken over the
    # flat run of rows, as numpy would buffer the rows' strided views; the
    # first weight of each row, v itself, is put back
    head = v[..., 0].copy()
    v.reshape(-1)[1:] *= remaining.reshape(-1)[:-1]  # both new, C-contiguous
    v[..., 0] = head
    return v, remaining[..., -1].copy()


def process_means(spec: DirichletProcessSpec, source, features=None, data_table=None):
    """Means of q features under truncated draws, one draw per row, shaped
    ``(..., q)``: the prior, or given the ``(q, n)`` data table, ``features``
    of n data points, the posterior, which puts mass rho ~ Beta(n, n0) on the
    data (split by a symmetric Dirichlet) and 1 - rho on the k prior atoms.

    ``features`` maps atoms ``(..., k)`` or ``(..., k, d)`` to their feature
    values ``(..., q, k)``; None makes scalar atoms their own feature, q = 1.
    ``source`` is a stream, for one draw, or a
    :class:`~partialid.rng.UniformRows`, for one draw per row.  A draw takes k
    sticks, k atoms, then rho and n data weights (none for n = 1), with k =
    ``choose_truncation_level(n0, n)``: a posterior draw discards only its
    prior side's share 1 - rho of the tail, and keeps fewer sticks, the more
    data it has; a data table with no column raises before any draw.  A base
    that states the law of its weighted feature means (a ``weighted_means``
    method) takes no ``features`` and draws those means in place of the
    atoms, given the weights w: a
    :class:`~partialid.distributions.ScalarNormal` reads one variate, its
    mean being exactly mu + sqrt(var Σw²) / Σw times it, and a
    :class:`~partialid.distributions.NormalProducts` k instrument values and
    d - 1 normals.  A mean is linear in the measure, so each side is one
    weighted sum divided by its weights' total, and every row makes the same
    products whatever the rows.

    Each large temporary of a block is made once and changed in place: the
    sticks (:func:`stick_weights`), the atoms (a
    :class:`~partialid.distributions.MultivariateNormal` adds its mean to its
    product) and the ``(rows, n)`` data weights, negated and ``log1p``'d in
    one array.  The uniforms are only read, never written.
    """
    n0 = spec.concentration
    n = 0 if data_table is None else data_table.shape[-1]
    if data_table is not None and n == 0:
        raise ParameterError("a posterior draw needs data; pass None for the prior")
    k = choose_truncation_level(n0, n)
    weights, _ = stick_weights(n0, k, source)
    total = weights.sum(axis=-1, keepdims=True)
    base = spec.base_sampler
    if hasattr(base, "weighted_means"):  # a base that states their law
        if features is not None:
            raise ParameterError(f"a {type(base).__name__} base draws the means of its "
                                 "features; pass features=None")
        means = base.weighted_means(weights, total, source)
    else:
        atoms = np.asarray(base(source, k), dtype=float)
        lead = weights.shape[:-1]  # the rows of a block, () for one draw
        if atoms.shape[:len(lead) + 1] != weights.shape:
            raise ParameterError(f"base sampler returned atoms {atoms.shape}, expected {k}")
        if features is None and atoms.ndim != len(lead) + 1:
            raise ParameterError(f"atoms of shape {atoms.shape[len(lead) + 1:]} need features")
        values = atoms[..., None, :] if features is None else features(atoms)
        means = (values @ weights[..., None])[..., 0] / total
    if data_table is None:
        return means
    if data_table.shape != (means.shape[-1], n):
        raise ParameterError(f"{means.shape[-1]} features of the base-measure atoms, "
                             f"data table {data_table.shape}")
    rho = sample_beta(float(n), n0, source, size=1)
    if n == 1:
        return (1.0 - rho) * means + rho * data_table[:, 0]
    # log1p(-u) is minus the Exp(1) variate of a Dirichlet(1, ..., 1) weight;
    # the sign cancels in the ratio
    g = np.negative(source.uniform(n))
    np.log1p(g, out=g)
    data_means = (data_table @ g[..., None])[..., 0] / g.sum(axis=-1, keepdims=True)
    return (1.0 - rho) * means + rho * data_means
