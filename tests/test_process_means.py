"""Process means against the concatenated draw, and Ferguson's exact moments.

``process_means`` never builds a process draw.  The concatenated computation
it replaced, one row of normalized weights over the k prior atoms followed by
the n data points, survives here only, as the oracle the Dirichlet-process
scenarios are checked against: the two regression scenarios bit for bit, and
interval_censored, whose prior side is one normal variate in place of k atoms,
in law given the same sticks.  The moment tests check the draws against exact
moments of the Dirichlet process (Ferguson, 1973).
"""

import dataclasses
from functools import partial

import numpy as np
import pytest
from scipy import special

from partialid import (
    Dataset,
    DirichletProcessSpec,
    generate_data,
    make_config,
    prepare_draw,
    process_means,
)
from partialid import scenarios
from partialid.dirichlet import choose_truncation_level, stick_weights
from partialid.distributions import (
    sample_beta,
    sample_mvnormal,
)
from partialid.rng import UniformRows, seed_words, stream_uniforms
from partialid.scenarios import ROLE_DATA, attempt_stream

DP_SCENARIOS = ("interval_censored", "errors_in_variables", "interval_regression")


# --- the concatenated oracle ---------------------------------------------------

def concatenated_draw(spec, source, data=None):
    """Normalized weights and atoms of one draw per row, the data as the last n atoms."""
    n0 = spec.concentration
    k = choose_truncation_level(n0, 0 if data is None else len(data))
    weights, _ = stick_weights(n0, k, source)
    atoms = np.asarray(spec.base_sampler(source, k), dtype=float)
    lead = weights.shape[:-1]
    if data is not None:
        n = len(data)
        rho = sample_beta(float(n), n0, source, size=1)
        # Dirichlet(1, ..., 1) weights as normalised Exp(1) variates, -log1p(-u)
        # (the Bayesian bootstrap, Rubin 1981); one point takes no uniform
        data_w = np.ones(lead + (1,))
        if n > 1:
            g = -np.log1p(-source.uniform(size=n))
            data_w = g / g.sum(axis=-1, keepdims=True)
        weights = np.concatenate(((1.0 - rho) * weights / weights.sum(axis=-1, keepdims=True),
                                  rho * data_w), axis=-1)
        atoms = np.concatenate((atoms, np.broadcast_to(data, lead + data.shape)),
                               axis=len(lead))
    return weights / weights.sum(axis=-1, keepdims=True), atoms


def row_means(weights, values):
    return np.matmul(weights[..., None, :], values[..., :, None])[..., 0, 0]


def row_covariance(weights, atoms, i, j):
    xi, xj = atoms[..., i], atoms[..., j]
    return row_means(weights, xi * xj) - row_means(weights, xi) * row_means(weights, xj)


def reverse_regression_rows(w, a):
    syz = row_covariance(w, a, 0, 1)
    szz = row_covariance(w, a, 1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct, reverse = syz / szz, row_covariance(w, a, 0, 0) / syz
    lo = np.where(reverse < direct, reverse, direct)
    hi = np.where(reverse > direct, reverse, direct)
    return lo, hi, ~(syz <= 0) & ~(szz <= 0)


def instrument_ratio_rows(w, a):
    z = a[..., 3]
    ezx = row_means(w, a[..., 2] * z)
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = row_means(w, a[..., 0] * z) / ezx
        hi = row_means(w, a[..., 1] * z) / ezx
    return lo, hi, ~(ezx <= 0) & ~(lo > hi)


def oracle_draw(cfg, mode, dataset, source):
    """``(lo, hi, accept)`` of a regression scenario from the concatenated draw."""
    hyper = cfg.hyper
    mean, cov = hyper["base_mean"], hyper["base_cov"]
    spec = DirichletProcessSpec(hyper["n0"], partial(sample_mvnormal, mean, cov))
    rows = (reverse_regression_rows if cfg.scenario_id == "errors_in_variables"
            else instrument_ratio_rows)
    return rows(*concatenated_draw(spec, source, None if mode == "prior" else dataset.values))


# --- blocks of attempt rows ------------------------------------------------------

def attempt_uniforms(draw):
    """The uniforms an attempt of ``draw`` reads, counted on a row of 0.5s."""
    probe = UniformRows(np.broadcast_to(0.5, (1, 2**40)))
    draw(probe)
    return probe.at


def chunk_rows(draw):
    """The rows of a chunk of ``draw``'s attempts, each with its gamma uniform."""
    return scenarios.chunk_rows(1 + attempt_uniforms(draw))


def stream_rows(master_seed, rows, m):
    """The first ``m`` uniforms of the streams ``rows``, one row each."""
    return stream_uniforms(seed_words(master_seed, np.arange(rows.start, rows.stop)), m)


def block_uniforms(draw, master_seed, rows):
    """The uniforms of the attempt rows ``rows``, as a chunk takes them less
    the gamma uniform."""
    return stream_rows(master_seed, rows, attempt_uniforms(draw))


def process_calls(draw):
    """``(offset, spec, features, table)`` of each process_means call of a
    prepared draw, ``offset`` the column of an attempt row it starts at."""
    if draw.func is scenarios._censored_draw:
        spec1, spec2, t1, t2 = draw.args
        n = 0 if t1 is None else t1.shape[1]
        # k sticks and the one variate of the atoms' mean, then rho and n data weights
        k = choose_truncation_level(spec1.concentration, n)
        return [(0, spec1, None, t1), (k + 1 + (n > 0) + (n if n > 1 else 0), spec2, None, t2)]
    features, _, spec, table = draw.args
    return [(0, spec, features, table)]


CASES = [(sid, "prior", 30) for sid in DP_SCENARIOS] + [
    (sid, "posterior", n) for sid in DP_SCENARIOS for n in (1, 30, 1000)]
REGRESSION_CASES = [case for case in CASES if case[0] != "interval_censored"]


@pytest.mark.parametrize("sid, mode, n", REGRESSION_CASES)
def test_matches_concatenated_draws(sid, mode, n):
    cfg = make_config(sid, n=n)
    dataset = generate_data(cfg, attempt_stream(11, ROLE_DATA, 0))
    draw = prepare_draw(cfg, mode, dataset)
    u = block_uniforms(draw, 11, range(200))
    lo, hi, accept = draw(UniformRows(u))
    old_lo, old_hi, old_accept = oracle_draw(cfg, mode, dataset, UniformRows(u))
    assert np.array_equal(accept, old_accept)
    for new, old in ((lo, old_lo), (hi, old_hi)):
        assert np.all(np.abs(new[accept] - old[accept]) <= 1e-12 * (1 + np.abs(old[accept])))


@pytest.mark.parametrize("sid, mode, n", CASES)
def test_row_means_do_not_depend_on_the_chunk(sid, mode, n):
    # a row's means are the same bits in chunks of 1, 7 and a chunk's rows, which
    # makes a batch the same whatever its worker count or chunk boundaries
    cfg = make_config(sid, n=n)
    dataset = generate_data(cfg, attempt_stream(11, ROLE_DATA, 0))
    draw = prepare_draw(cfg, mode, dataset)
    u = block_uniforms(draw, 11, range(150))
    for offset, spec, features, table in process_calls(draw):
        whole = process_means(spec, UniformRows(u[:, offset:]), features, table)
        assert whole.shape[0] == 150
        for size in (1, 7, chunk_rows(draw)):
            parts = [process_means(spec, UniformRows(u[i:i + size, offset:]), features, table)
                     for i in range(0, 150, size)]
            assert np.array_equal(np.concatenate(parts), whole)


# --- interval_censored's prior side in law ----------------------------------------
# Given the stick weights w, the mean of k i.i.d. N(mu, var) atoms under w / sum(w)
# is N(mu, var sum(w^2) / sum(w)^2).  The oracle draws the k atoms; standardised
# by that spread, its prior-side mean must be N(0, 1), checked by the KS
# distance within the Dvoretzky-Kiefer-Wolfowitz bound with Massart's (1990)
# constant at failure probability LAW_ALPHA.  process_means reads the same
# sticks, then one uniform z in place of the atoms, then the same rho and data
# weights, so it differs from the oracle only by the standardised variate.  The
# variances (not 1, so sd and variance differ), LAW_ALPHA, the draws and the
# seeds were fixed before any result was seen; a failure is a defect.

LAW_DRAWS = 4000
LAW_ALPHA = 1e-6
LAW_SEED = 13


@pytest.mark.parametrize("mode", ["prior", "posterior"])
def test_censored_prior_side_follows_its_exact_law(mode):
    cfg = make_config("interval_censored", n=30)
    cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_var": (0.25, 4.0)})
    dataset = generate_data(cfg, attempt_stream(LAW_SEED, ROLE_DATA, 0))
    draw = prepare_draw(cfg, mode, dataset)
    u = block_uniforms(draw, LAW_SEED, range(LAW_DRAWS))
    bound = np.sqrt(np.log(2 / LAW_ALPHA) / (2 * LAW_DRAWS))
    for (offset, spec, _, table), column in zip(process_calls(draw), ("y1", "y2")):
        base = spec.base_sampler
        k = choose_truncation_level(spec.concentration, 0 if table is None else table.shape[1])
        rows = u[:, offset:]  # k sticks, the one variate, then rho and the data weights
        fresh = stream_rows(LAW_SEED + 1, range(LAW_DRAWS), k)
        oracle_rows = np.concatenate((rows[:, :k], fresh, rows[:, k + 1:]), axis=1)
        data = None if table is None else dataset.column(column)
        weights, atoms = concatenated_draw(spec, UniformRows(oracle_rows), data)
        w = weights[:, :k]
        spread = np.sqrt(base.var * np.sum(w * w, axis=1)) / w.sum(axis=1)
        t = (row_means(w, atoms[:, :k]) / w.sum(axis=1) - base.mu) / spread
        cdf = special.ndtr(np.sort(t))
        steps = np.arange(1, LAW_DRAWS + 1) / LAW_DRAWS
        ks = max(np.max(steps - cdf), np.max(cdf - (steps - 1 / LAW_DRAWS)))
        assert ks <= bound, (mode, column, ks, bound)
        z = special.ndtri(rows[:, k])
        means = process_means(spec, UniformRows(rows), None, table)[:, 0]
        expected = row_means(weights, atoms) + w.sum(axis=1) * spread * (z - t)
        assert np.all(np.abs(means - expected) <= 1e-12 * (1 + np.abs(expected)))


@pytest.mark.parametrize("mode, uniforms", [("prior", 259), ("posterior", 2143)])
def test_censored_attempt_uniforms(mode, uniforms):
    # k sticks and one variate per process (k = 90 and 167 in the prior, 46
    # and 93 in the posterior), then rho and the n = 1000 data weights of each
    # in the posterior
    cfg = make_config("interval_censored")
    dataset = generate_data(cfg, attempt_stream(1, ROLE_DATA, 0))
    assert attempt_uniforms(prepare_draw(cfg, mode, dataset)) == uniforms


# --- Ferguson's moments --------------------------------------------------------
# For P ~ DP(a, H), the mean functional M = E_P[X] has E[M] = E_H[X] and
# Var[M] = Var_H[X] / (a + 1), and E[Cov_P(X, Y)] = a / (a + 1) Cov_H(X, Y)
# (Ferguson, 1973).  The posterior draw mixes the truncated prior and the
# Bayesian-bootstrap data weights with rho ~ Beta(n, n0): that mixture is
# DP(n0 + n, (n0 H + sum_i delta_{x_i}) / (n0 + n)), so the same formulas hold
# with a = n0 + n and that base.
#
# Truncation: the draws renormalize the first K sticks, whose tail T has
# E[T] = (n0 / (n0 + 1))**K, K the level of the draw's data size n (0 in the
# prior).  The renormalized weights' sum of squares moves by at most 2T from
# the untruncated one, and both the variance of M and E[Cov_P] depend on the
# prior atoms only through it, times (1 - rho)^2 in a posterior draw, whose
# prior side carries 1 - rho ~ Beta(n0, n), independent of the sticks.  So
# truncation moves them by at most 2 E[(1 - rho)^2] E[T] Var_H[X] and
# 2 E[(1 - rho)^2] E[T] |Cov_H(X, Y)|, with (1 - rho)^2 = 1 in the prior; it
# leaves every mean exact.  Each check is |estimate - exact| <= 4 standard
# errors + that bound.  The tolerance and the seeds were fixed before any
# result was seen; a failure is a defect.

DRAWS = 20_000
SEED = 12
Z_MAX = 4.0


def prior_side_tail(n0, n=0):
    """E[(1 - rho)^2] E[T] of a draw given n data points: 1 - rho ~ Beta(n0, n),
    or 1 in the prior, and T the tail of its K sticks."""
    share = n0 * (n0 + 1) / ((n0 + n) * (n0 + n + 1))
    return share * (n0 / (n0 + 1.0)) ** choose_truncation_level(n0, n)


def draw_means(draw, calls):
    """Per process_means call, its means over DRAWS attempt rows, in chunks."""
    out = [[] for _ in calls]
    cap = chunk_rows(draw)
    for start in range(0, DRAWS, cap):
        u = block_uniforms(draw, SEED, range(start, min(start + cap, DRAWS)))
        for i, (offset, spec, features, table) in enumerate(calls):
            out[i].append(process_means(spec, UniformRows(u[:, offset:]), features, table))
    return [np.concatenate(means) for means in out]


def check_mean(x, exact, bound=0.0):
    se = x.std() / np.sqrt(x.size)
    assert abs(x.mean() - exact) <= Z_MAX * se + bound, (x.mean(), exact, se)


def check_variance(x, exact, bound):
    d = x - x.mean()
    s2 = np.mean(d**2)
    se = np.sqrt((np.mean(d**4) - s2**2) / x.size)
    assert abs(s2 - exact) <= Z_MAX * se + bound, (s2, exact, se)


def posterior_base(n0, under_h, at_data):
    """The expectation of a statistic under (n0 H + sum of the n deltas) / (n0 + n),
    from its expectation ``under_h`` and its ``at_data`` values at the n points."""
    return (n0 * under_h + np.sum(at_data)) / (n0 + len(at_data))


# the study's unit base variances, and 0.25 and 4, at which a base standard
# deviation and a base variance differ
@pytest.mark.parametrize("mode, base_var", [
    ("prior", (1.0, 1.0)), ("posterior", (1.0, 1.0)),
    ("prior", (0.25, 4.0)), ("posterior", (0.25, 4.0)),
], ids=["prior", "posterior", "prior-var0.25-4", "posterior-var0.25-4"])
def test_censored_endpoint_moments(mode, base_var):
    cfg = make_config("interval_censored", n=200)
    cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_var": base_var})
    dataset = generate_data(cfg, attempt_stream(SEED, ROLE_DATA, 0))
    draw = prepare_draw(cfg, mode, dataset)
    lo, hi = (m[:, 0] for m in draw_means(draw, process_calls(draw)))
    for i, (x, column) in enumerate(((lo, "y1"), (hi, "y2"))):
        n0, mu, var = (cfg.hyper[name][i] for name in ("n0", "base_mean", "base_var"))
        a, mean, second, n = n0, mu, var + mu**2, 0
        if mode == "posterior":
            y = dataset.column(column)
            a, n = n0 + y.size, y.size
            mean, second = posterior_base(n0, mu, y), posterior_base(n0, var + mu**2, y**2)
        check_mean(x, mean)
        check_variance(x, (second - mean**2) / (a + 1), 2 * prior_side_tail(n0, n) * var)


@pytest.mark.parametrize("mode", ["prior", "posterior"])
def test_errors_in_variables_expected_covariance(mode):
    cfg = make_config("errors_in_variables", n=200)
    dataset = generate_data(cfg, attempt_stream(SEED, ROLE_DATA, 0))
    draw = prepare_draw(cfg, mode, dataset)
    (m,) = draw_means(draw, process_calls(draw))
    cov_p = m[:, 2] - m[:, 0] * m[:, 1]  # features y, z, yz, zz, yy
    n0, h_cov = cfg.hyper["n0"], cfg.hyper["base_cov"][0, 1]
    a, cov, n = n0, h_cov, 0  # the base mean is zero
    if mode == "posterior":
        y, z = dataset.column("y"), dataset.column("z")
        a, n = n0 + y.size, y.size
        cov = posterior_base(n0, h_cov, y * z) - posterior_base(n0, 0.0, y) * posterior_base(
            n0, 0.0, z)
    check_mean(cov_p, a / (a + 1) * cov, 2 * prior_side_tail(n0, n) * abs(h_cov))


# errors_in_variables' bounds are ratios of centred second moments, so moving y,
# z and the base mean by constants moves no bound but for rounding; the data
# and base mean are centred at 0, where an uncentred moment would go unseen
LOCATION_SHIFT = np.array([3.0, -2.0])
LOCATION_RTOL = 1e-9  # fixed before the first run; the runs differ by at most about 3e-14


@pytest.mark.parametrize("mode", ["prior", "posterior"])
def test_errors_in_variables_bounds_are_location_invariant(mode):
    cfg = make_config("errors_in_variables", n=200)
    dataset = generate_data(cfg, attempt_stream(SEED, ROLE_DATA, 0))
    moved_cfg = dataclasses.replace(
        cfg, hyper={**cfg.hyper, "base_mean": cfg.hyper["base_mean"] + LOCATION_SHIFT})
    moved = Dataset("errors_in_variables", dataset.values + LOCATION_SHIFT)
    draw = prepare_draw(cfg, mode, dataset)
    u = block_uniforms(draw, SEED, range(200))
    lo, hi, accept = draw(UniformRows(u))
    moved_lo, moved_hi, moved_accept = prepare_draw(moved_cfg, mode, moved)(UniformRows(u))
    assert accept.any() and np.array_equal(moved_accept, accept)
    for new, old in ((moved_lo, lo), (moved_hi, hi)):
        np.testing.assert_allclose(new[accept], old[accept], rtol=LOCATION_RTOL, atol=0)


@pytest.mark.parametrize("mode", ["prior", "posterior"])
def test_interval_regression_cross_moment_means(mode):
    cfg = make_config("interval_regression", n=200)
    dataset = generate_data(cfg, attempt_stream(SEED, ROLE_DATA, 0))
    draw = prepare_draw(cfg, mode, dataset)
    (m,) = draw_means(draw, process_calls(draw))
    mu, h_cov, n0 = cfg.hyper["base_mean"], cfg.hyper["base_cov"], cfg.hyper["n0"]
    for i in range(3):  # E_P[y1 z], E_P[y2 z], E_P[x z]
        exact = h_cov[i, 3] + mu[i] * mu[3]
        if mode == "posterior":
            v = dataset.values
            exact = posterior_base(n0, exact, v[:, i] * v[:, 3])
        check_mean(m[:, i], exact)
