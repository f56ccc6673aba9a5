import itertools
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats
from scipy.linalg import eigvalsh as scipy_eigvalsh

import partialid
from partialid import (
    MultivariateNormal,
    NormalProducts,
    ParameterError,
    beta_cdf,
    beta_quantile,
    cholesky_factor,
    psd_repair,
    sample_beta,
    sample_mvnormal,
    sample_normal,
    sample_truncated_normal,
    substream,
)
from partialid import distributions
from partialid.rng import UniformRows
from partialid.scenarios import INTERVAL_REGRESSION_RAW_COV


class TestSampleBeta:
    def test_uniform_case_mean(self):
        draws = sample_beta(1.0, 1.0, substream(1, 0), size=100_000)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_skewed_mean_matches_analytic_moment(self):
        # Beta(a, b) mean is a / (a + b)
        draws = sample_beta(1.0, 20.0, substream(1, 1), size=100_000)
        assert abs(draws.mean() - 1.0 / 21.0) < 0.005

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ParameterError):
            sample_beta(0.0, 1.0, substream(1, 2))
        with pytest.raises(ParameterError):
            sample_beta(2.0, -1.0, substream(1, 2))

    def test_scalar_draw_is_float(self):
        for a, b in [(2.0, 3.0), (1.0, 0.5)]:  # incomplete-beta and closed-form paths
            x = sample_beta(a, b, substream(1, 3))
            assert isinstance(x, float)
            assert 0.0 < x < 1.0

    def test_deterministic(self):
        a = sample_beta(2.0, 3.0, substream(5, 0), size=100)
        b = sample_beta(2.0, 3.0, substream(5, 0), size=100)
        assert np.array_equal(a, b)


class TestSampleMvnormal:
    def test_standard_pair_moments(self):
        draws = sample_mvnormal([0.0, 0.0], np.eye(2), substream(3, 0), size=100_000)
        emp = np.cov(draws.T, bias=True)
        assert np.all(np.abs(emp - np.eye(2)) < 0.02)

    def test_correlated_pair_cross_moment(self):
        cov = np.array([[2.0, 0.9], [0.9, 2.0]])
        draws = sample_mvnormal([0.0, 0.0], cov, substream(3, 1), size=100_000)
        emp = np.cov(draws.T, bias=True)
        assert abs(emp[0, 1] - 0.9) < 0.03

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(ParameterError):
            sample_mvnormal(np.zeros(4), INTERVAL_REGRESSION_RAW_COV, substream(3, 2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            sample_mvnormal([0.0, 0.0, 0.0], np.eye(2), substream(3, 3))

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ParameterError):
            sample_mvnormal([0.0, 0.0], cov, substream(3, 4))


class TestMultivariateNormal:
    """A base measure checked and factored once, drawing as sample_mvnormal does."""

    cov = np.array([[2.0, 0.9], [0.9, 2.0]])

    def test_draws_mean_plus_normal_quantiles_times_the_factor(self):
        law = MultivariateNormal([1.0, -2.0], self.cov)
        chol = np.linalg.cholesky(self.cov)
        for size, shape in ((None, 2), (1, (1, 2)), (7, (7, 2))):
            u = substream(3, 5).uniform(shape)
            expected = np.array([1.0, -2.0]) + special.ndtri(u) @ chol.T
            assert np.array_equal(law(substream(3, 5), size), expected)
            assert np.array_equal(sample_mvnormal([1.0, -2.0], self.cov, substream(3, 5), size),
                                  expected)
        u = substream(3, 6).uniform(size=(5, 40))
        rows = UniformRows(u)
        expected = np.array([1.0, -2.0]) + special.ndtri(u[:, :40].reshape(5, 20, 2)) @ chol.T
        assert np.array_equal(law(rows, 20), expected) and rows.at == 40

    def test_keeps_read_only_copies_and_pickles(self):
        mean = np.array([1.0, -2.0])
        law = MultivariateNormal(mean, self.cov)
        mean[0] = 50.0
        assert law.mean.tolist() == [1.0, -2.0]
        assert np.array_equal(law.chol, cholesky_factor(self.cov))
        for field in (law.mean, law.cov, law.chol):
            assert not field.flags.writeable
        again = pickle.loads(pickle.dumps(law))
        assert np.array_equal(again(substream(3, 7), 4), law(substream(3, 7), 4))

    @pytest.mark.parametrize("mean, cov", [
        (np.zeros(4), INTERVAL_REGRESSION_RAW_COV),
        ([0.0, 0.0, 0.0], np.eye(2)),
        ([0.0, 0.0], [[1.0, 0.2], [0.3, 1.0]]),
    ], ids=("not_positive_definite", "dimension_mismatch", "asymmetric"))
    def test_a_bad_law_raises_when_it_is_made(self, mean, cov):
        with pytest.raises(ParameterError):
            MultivariateNormal(mean, cov)


class TestNormalProducts:
    """The law of the weighted means of z v, z the last coordinate of N(mean, cov) atoms."""

    mean = np.array([1.0, -0.5, 2.0, 0.5])
    cov = np.array([[1.0, 0.3, 0.2, 0.4],
                    [0.3, 2.0, 0.1, -0.6],
                    [0.2, 0.1, 1.5, 0.3],
                    [0.4, -0.6, 0.3, 1.2]])

    def test_means_are_the_conditional_normal_law(self):
        # one draw from a stream reads k values of z, then three normals; the
        # regression of v on z and the Schur complement, taken directly here
        law = NormalProducts(self.mean, self.cov)
        w = np.array([0.5, 0.2, 0.1, 0.05])
        means = law.weighted_means(w, w.sum(keepdims=True), substream(4, 1))
        u = substream(4, 1).uniform(7)
        z = self.mean[3] + np.sqrt(self.cov[3, 3]) * special.ndtri(u[:4])
        beta = self.cov[:3, 3] / self.cov[3, 3]
        schur = self.cov[:3, :3] - np.outer(self.cov[:3, 3], self.cov[:3, 3]) / self.cov[3, 3]
        c = self.mean[:3] - beta * self.mean[3]
        wz = w * z
        expected = (c * wz.sum() + beta * np.sum(wz * z) + np.sqrt(np.sum(wz * wz))
                    * (np.linalg.cholesky(schur) @ special.ndtri(u[4:]))) / w.sum()
        assert means.shape == (3,)
        np.testing.assert_allclose(means, expected, rtol=1e-13, atol=1e-15)
        rows = UniformRows(np.broadcast_to(u, (2, 7)))
        assert np.array_equal(law.weighted_means(np.tile(w, (2, 1)), np.full((2, 1), w.sum()),
                                                 rows), np.tile(means, (2, 1)))
        assert rows.at == 7

    def test_keeps_read_only_fields_and_pickles(self):
        mean = self.mean.copy()
        law = NormalProducts(mean, self.cov)
        mean[0] = 50.0
        assert law.mean.tolist() == self.mean.tolist()
        for field in (law.mean, law.cov, law.beta, law.intercept, law.noise):
            assert not field.flags.writeable
        again = pickle.loads(pickle.dumps(law))
        w = np.full(5, 0.1)
        assert np.array_equal(again.weighted_means(w, w.sum(keepdims=True), substream(4, 2)),
                              law.weighted_means(w, w.sum(keepdims=True), substream(4, 2)))

    @pytest.mark.parametrize("mean, cov", [
        (np.zeros(4), INTERVAL_REGRESSION_RAW_COV),
        ([0.0, 0.0, 0.0], np.eye(2)),
        ([0.0], [[1.0]]),
    ], ids=("not_positive_definite", "dimension_mismatch", "one_coordinate"))
    def test_a_bad_law_raises_when_it_is_made(self, mean, cov):
        with pytest.raises(ParameterError):
            NormalProducts(mean, cov)


class TestPsdRepair:
    def test_identity_untouched(self):
        out = psd_repair(np.eye(3), )
        assert not out.clipped
        assert np.array_equal(out.matrix, np.eye(3))

    def test_stated_base_covariance_is_repaired(self):
        # the raw 4x4 has negative eigenvalues; the repair must floor them
        raw_eigs = scipy_eigvalsh(INTERVAL_REGRESSION_RAW_COV)
        assert raw_eigs.min() < 0
        out = psd_repair(INTERVAL_REGRESSION_RAW_COV, )
        assert out.clipped
        repaired_eigs = scipy_eigvalsh(out.matrix)
        assert abs(repaired_eigs.min() - 1e-6) < 1e-12
        assert np.array_equal(out.matrix, out.matrix.T)

    def test_psd_input_passes_through(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            m = a @ a.T + 0.1 * np.eye(4)  # eigenvalues well above the floor
            out = psd_repair(m, )
            assert not out.clipped
            assert np.all(np.abs(out.matrix - m) < 1e-10)

    def test_repair_floor_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=(5, 5))
            m = (a + a.T) / 2.0
            out = psd_repair(m, )
            assert scipy_eigvalsh(out.matrix).min() >= 1e-6 - 1e-12

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ParameterError):
            psd_repair(m)


class TestBetaCdf:
    def test_uniform_cdf(self):
        assert beta_cdf(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_midpoint(self):
        assert beta_cdf(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_matches_quadrature_of_density(self):
        a, b = 2.0, 5.0
        from scipy.special import beta as beta_fn

        density = lambda t: t ** (a - 1) * (1 - t) ** (b - 1) / beta_fn(a, b)
        oracle, err = integrate.quad(density, 0.0, 0.3, epsabs=1e-12)
        assert err < 1e-10
        assert abs(beta_cdf(0.3, a, b) - oracle) < 1e-8

    def test_monotone_in_x(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            x1, x2 = np.sort(rng.random(2))
            a, b = rng.uniform(0.1, 10.0, size=2)
            assert beta_cdf(x1, a, b) <= beta_cdf(x2, a, b)

    def test_absolute_accuracy_against_mpmath(self):
        # arbitrary-precision oracle for the 1e-10 accuracy contract on (0, 1)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.uniform(0.01, 0.99)
            a, b = rng.uniform(0.2, 20.0, size=2)
            oracle = float(mpmath.betainc(a, b, 0, x, regularized=True))
            assert abs(beta_cdf(x, a, b) - oracle) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            beta_cdf(-0.1, 1.0, 1.0)
        with pytest.raises(ParameterError):
            beta_cdf(1.1, 1.0, 1.0)
        with pytest.raises(ParameterError):
            beta_cdf(0.5, 0.0, 1.0)
        with pytest.raises(ParameterError):
            beta_cdf(np.nan, 1.0, 1.0)


class TestTruncatedNormal:
    def test_all_draws_in_support(self):
        draws = sample_truncated_normal(1.0, 4.0, -1.0, 2.0, substream(4, 0), size=100_000)
        assert draws.min() >= -1.0
        assert draws.max() <= 2.0

    def test_symmetric_interval_mean(self):
        draws = sample_truncated_normal(2.5, 2.0, 0.0, 5.0, substream(4, 1), size=100_000)
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - 2.5) < 3 * se

    def test_mean_matches_quadrature(self):
        mu, s2, lo, hi = 0.0, 2.0, 0.0, 5.0
        sigma = np.sqrt(s2)
        density = lambda t: np.exp(-((t - mu) ** 2) / (2 * s2)) / (sigma * np.sqrt(2 * np.pi))
        mass, _ = integrate.quad(density, lo, hi)
        mean_oracle = integrate.quad(lambda t: t * density(t), lo, hi)[0] / mass
        draws = sample_truncated_normal(mu, s2, lo, hi, substream(4, 2), size=100_000)
        assert abs(draws.mean() - mean_oracle) < 0.02

    def test_invalid_interval_rejected(self):
        with pytest.raises(ParameterError):
            sample_truncated_normal(0.0, 1.0, 2.0, 2.0, substream(4, 3))


class FixedUniforms:
    """Stands in for an RngStream, handing out preset uniforms.

    Lets a test evaluate a sampler's inverse CDF at chosen points.
    """

    def __init__(self, u):
        self.u = u

    def uniform(self, size=None):
        return self.u


#: standardized bounds spanning both far tails, both near tails and zero
TAIL_BOUNDS = (-60.0, -38.0, -30.0, -8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0, 30.0, 38.0, 60.0)


class TestTruncatedNormalQuantile:
    @pytest.mark.parametrize("mu, sigma2", [(0.0, 1.0), (1.5, 4.0)])
    def test_matches_scipy_across_both_tails(self, mu, sigma2):
        sigma = np.sqrt(sigma2)
        u = np.concatenate([np.linspace(0.005, 0.995, 199), substream(40, 0).uniform(200)])
        for a, b in itertools.combinations(TAIL_BOUNDS, 2):
            x = sample_truncated_normal(
                mu, sigma2, mu + sigma * a, mu + sigma * b, FixedUniforms(u), size=u.size
            )
            oracle = stats.truncnorm.ppf(u, a, b, loc=mu, scale=sigma)
            assert np.max(np.abs(x - oracle)) <= 1e-12 * sigma * (b - a), (a, b)

    def test_upper_end_of_straddling_interval_against_mpmath(self):
        # here Phi(x) rounds to 1; scipy.stats.truncnorm.ppf returns inf
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        a, b = -0.1, 10.0
        mass = mpmath.ncdf(b) - mpmath.ncdf(a)
        for u in (1.0 - 2.0**-53, 1.0 - 1e-12, 1.0 - 1e-6):
            x = sample_truncated_normal(0.0, 1.0, a, b, FixedUniforms(u))
            upper = mpmath.ncdf(-b) + (1 - mpmath.mpf(u)) * mass
            oracle = float(-mpmath.sqrt(2) * mpmath.erfinv(2 * upper - 1))
            assert abs(x - oracle) <= 1e-12 * (b - a)

    @pytest.mark.parametrize("mu, sigma2", [(0.0, 1.0), (1.5, 4.0)])
    def test_array_bounds_match_scipy_across_both_tails(self, mu, sigma2):
        # every pair of bounds at once, one truncated normal per element
        sigma = np.sqrt(sigma2)
        u = np.concatenate([np.linspace(0.005, 0.995, 199), substream(40, 0).uniform(200)])
        a, b = np.repeat(np.array(list(itertools.combinations(TAIL_BOUNDS, 2))).T, u.size,
                         axis=1)
        u = np.tile(u, a.size // u.size)
        mus = np.full(u.size, mu)
        x = sample_truncated_normal(
            mus, sigma2, mu + sigma * a, mu + sigma * b, FixedUniforms(u), size=u.size
        )
        oracle = stats.truncnorm.ppf(u, a, b, loc=mu, scale=sigma)
        assert np.all(np.abs(x - oracle) <= 1e-12 * sigma * (b - a))

    def test_array_bounds_upper_end_of_straddling_interval_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        a, b = -0.1, 10.0
        mass = mpmath.ncdf(b) - mpmath.ncdf(a)
        u = np.array([1.0 - 2.0**-53, 1.0 - 1e-12, 1.0 - 1e-6])
        x = sample_truncated_normal(0.0, 1.0, np.full(3, a), np.full(3, b),
                                    FixedUniforms(u), size=3)
        for xi, ui in zip(x, u):
            upper = mpmath.ncdf(-b) + (1 - mpmath.mpf(ui)) * mass
            oracle = float(-mpmath.sqrt(2) * mpmath.erfinv(2 * upper - 1))
            assert abs(xi - oracle) <= 1e-12 * (b - a)

    def test_array_bounds_name_the_first_inverted_pair(self):
        with pytest.raises(ParameterError, match=r"\[3.0, 2.0\]"):
            sample_truncated_normal(0.0, 1.0, np.array([0.0, 3.0, 5.0]),
                                    np.array([1.0, 2.0, 4.0]), substream(4, 3), size=3)

    @pytest.mark.parametrize("width", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_narrow_intervals_stay_in_support(self, width):
        sigma2 = 2.0
        sigma = np.sqrt(sigma2)
        for k, a in enumerate((-60.0, -5.0, -width / 2, 0.0, 3.0, 60.0)):
            lo, hi = sigma * a, sigma * (a + width)
            draws = sample_truncated_normal(0.0, sigma2, lo, hi, substream(41, k), size=2000)
            assert np.all((lo <= draws) & (draws <= hi)), (a, width)

    @pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (-2.0, -0.5), (-1.0, 1.0)])
    def test_scalar_draw_is_float(self, lo, hi):
        x = sample_truncated_normal(0.0, 1.0, lo, hi, substream(44, 0))
        assert isinstance(x, float)
        assert lo <= x <= hi


class TestClosedFormQuantiles:
    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 20.0, 1000.0])
    def test_beta_one_b_matches_incomplete_beta_inverse(self, b):
        u = substream(43, 0).uniform(size=5000)
        x = sample_beta(1.0, b, substream(43, 0), size=5000)
        np.testing.assert_allclose(x, special.betaincinv(1.0, b, u), rtol=1e-13, atol=0)


# the quantile table's largest error allowed here, inside its documented 1e-10
TABLE_ERROR = 1e-11
# the prior's two shapes, binary_missing's two posterior shapes at n = 1000 and
# seed 5, a grid of the tabulated square, and the posterior's rho ~ Beta(n, n0)
# at n0 = 10 and 20
TABLE_SHAPES = [(3.0, 3.0), (2.0, 1.0), (911.0, 95.0), (423.0, 488.0),
                *itertools.product([1.0001, 1.5, 37.0, 1e4], [1.0, 1.0001, 6.0, 1e4]),
                *itertools.product([2.0, 200.0, 1000.0, 1e4], [10.0, 20.0])]


def lattice_points(seed):
    """0, 2**-53, 1 - 2**-53 and random uniforms, some near each end, all on the 2**-53 lattice."""
    u = substream(seed, 0).uniform(size=3000)
    tails = np.ldexp(np.floor(np.ldexp(2.0 ** (-53 * u[:1000]), 53)), -53)
    return np.concatenate([[0.0, 2.0**-53, 1 - 2.0**-53], u[1000:], tails, 1 - tails])


@pytest.fixture
def betaincinv_calls(monkeypatch):
    """The arguments of each call to ``special.betaincinv`` from here on."""
    calls, betaincinv = [], special.betaincinv
    monkeypatch.setattr(special, "betaincinv",
                        lambda *args: calls.append(args) or betaincinv(*args))
    return calls


class TestBetaQuantile:
    @pytest.mark.parametrize("a, b", TABLE_SHAPES)
    def test_table_is_within_its_bound_of_the_incomplete_beta_inverse(self, a, b,
                                                                       betaincinv_calls):
        u = lattice_points(44)
        exact = special.betaincinv(a, b, u)
        beta_quantile(a, b, 0.5)  # builds the shape's table
        betaincinv_calls.clear()
        x = beta_quantile(a, b, u)
        assert betaincinv_calls == []  # the table drew, not the fallback
        assert np.abs(x - exact).max() <= TABLE_ERROR

    @pytest.mark.parametrize("a, b", [(3.0, 3.0), (1e4, 1.0), (1.0001, 1e4), (1e4, 1e4)])
    def test_table_is_built_without_warnings_and_stays_in_the_unit_interval(self, a, b):
        u = lattice_points(45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no inf or NaN arithmetic in the build
            distributions._beta_table.cache_clear()
            x = beta_quantile(a, b, u)
        assert x[0] == 0.0 and np.all((0 <= x) & (x <= 1))
        assert beta_quantile(a, b, 0.0) == 0.0

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (2.0, 0.9), (0.9, 2.0), (2e4, 3.0),
                                      (2e4, 10.0), (2e4, 20.0)])
    def test_a_shape_outside_the_table_inverts_exactly(self, a, b):
        u = lattice_points(46)
        assert np.array_equal(beta_quantile(a, b, u), special.betaincinv(a, b, u))

    @pytest.mark.parametrize("b", [0.5, 3.0, 1e4])
    def test_a_equal_to_one_keeps_the_closed_form(self, b):
        u = substream(47, 0).uniform(size=100)
        assert np.array_equal(beta_quantile(1.0, b, u), -np.expm1(np.log1p(-u) / b))
        assert np.array_equal(beta_quantile(1.0, b, u),
                              sample_beta(1.0, b, substream(47, 0), size=100))

    @pytest.mark.parametrize("b", [0.5, 3.0, 1e4])
    def test_the_closed_form_keeps_its_bits_and_type_at_every_shape_of_u(self, b):
        # one array changed in place: a scalar or 0-d u still gives a scalar,
        # and u, read-only or not, is never written
        rows = substream(49, 0).uniform(size=(4, 25))
        for u in (float(rows[1, 2]), np.array(rows[1, 2]), rows[1], rows, rows[:, 3:17]):
            expected = -np.expm1(np.log1p(-np.asarray(u)) / b)
            before = np.array(u, copy=True)
            for path in (beta_quantile, distributions._beta_quantile):
                x = path(1.0, b, u)
                assert np.shape(x) == np.shape(u) and np.array_equal(x, expected)
                assert isinstance(x, float) if np.ndim(u) == 0 else isinstance(x, np.ndarray)
                assert np.array_equal(u, before)
        frozen = rows.copy()
        frozen.setflags(write=False)
        assert np.array_equal(beta_quantile(1.0, b, frozen), -np.expm1(np.log1p(-rows) / b))

    def test_a_scalar_gives_the_bits_of_its_array_element(self):
        u = lattice_points(48)[:50]
        x = beta_quantile(3.0, 3.0, u)
        for i in range(len(u)):
            value = beta_quantile(3.0, 3.0, float(u[i]))
            assert isinstance(value, float) and value == x[i]

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (3.0, 3.0), (0.5, 0.5)],
                             ids=("closed_form", "table", "betaincinv"))
    def test_u_equal_to_one_gives_exactly_one_on_every_path(self, a, b):
        u = lattice_points(50)[:20]
        u[[3, 11]] = 1.0
        rest = np.ones(len(u), dtype=bool)
        rest[[3, 11]] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no log1p(-1) on the closed form
            assert beta_quantile(a, b, 1.0) == 1.0
            x = beta_quantile(a, b, u)
        assert x[3] == x[11] == 1.0
        assert x[rest].tobytes() == beta_quantile(a, b, u[rest]).tobytes()

    def test_a_shape_is_tabulated_once(self, betaincinv_calls):
        u = lattice_points(49)
        x = beta_quantile(911.0, 95.0, u)
        betaincinv_calls.clear()
        assert np.array_equal(beta_quantile(911, 95, u), x) and betaincinv_calls == []

    @pytest.mark.parametrize("a, b, name", [(2.0, 0.0, "b"), (np.nan, 2.0, "a"),
                                            (np.array([2.0, 3.0]), 2.0, "a")])
    def test_shapes_are_checked(self, a, b, name):
        with pytest.raises(ParameterError, match=f"^{name} must be positive and finite"):
            beta_quantile(a, b, 0.5)


def test_import_leaves_scipy_stats_unloaded():
    # the samplers need only scipy.special; scipy.stats is slow and large to import
    src = str(Path(partialid.__file__).resolve().parents[1])
    code = "import sys, partialid, partialid.cli; sys.exit('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr or "scipy.stats was imported"


def test_sample_normal_moments():
    draws = sample_normal(3.0, 0.25, substream(6, 0), size=100_000)
    assert abs(draws.mean() - 3.0) < 0.01
    assert abs(draws.var() - 0.25) < 0.01


def test_sample_normal_bad_variance():
    with pytest.raises(ParameterError):
        sample_normal(0.0, 0.0, substream(6, 1))


def test_operations_are_deterministic():
    pairs = [
        lambda r: sample_beta(2.0, 5.0, r, size=10),
        lambda r: sample_mvnormal([0.0, 0.0], np.eye(2), r, size=5),
        lambda r: sample_truncated_normal(0.0, 1.0, -1.0, 1.0, r, size=10),
        lambda r: sample_normal(0.0, 1.0, r, size=10),
    ]
    for i, op in enumerate(pairs):
        a = op(substream(8, i))
        b = op(substream(8, i))
        assert np.array_equal(np.asarray(a), np.asarray(b))
