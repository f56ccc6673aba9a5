import numpy as np
import pytest

from scipy import integrate, special

from partialid import (
    DirichletProcessSpec,
    ParameterError,
    ScalarNormal,
    choose_truncation_level,
    process_means,
    sample_normal,
    stick_weights,
    substream,
)
from partialid.dirichlet import MAX_TRUNCATION_LEVEL, TRUNCATION_DELTA, TRUNCATION_EPS
from partialid.rng import UniformRows


def normal_base(mu, var):
    return lambda rng, size: sample_normal(mu, var, rng, size=size)


#: concentrations for the exact check of K, fixed before its first run: 200
#: log-spaced over [0.01, 500] and the scenarios' and tests' own levels
DEFINITION_GRID = (*np.logspace(np.log10(0.01), np.log10(500.0), 200),
                   1.0, 5.0, 10.0, 20.0, 40.0)


class TestChooseTruncationLevel:
    def test_frozen_levels(self):
        # frozen from the Gamma-quantile bisection the closed form replaced;
        # cross-checked by simulation and against the definition below
        assert choose_truncation_level(20.0) == 167
        assert choose_truncation_level(10.0) == 90
        assert choose_truncation_level(1.0) == 15

    def test_simulated_exceedance_rate(self):
        # independent oracle: simulate tail masses with numpy's own Beta sampler
        n0, eps, delta = 20.0, TRUNCATION_EPS, TRUNCATION_DELTA
        k = choose_truncation_level(n0)
        gen = np.random.default_rng(0)
        tails = np.prod(1.0 - gen.beta(1.0, n0, size=(100_000, k)), axis=1)
        rate = np.mean(tails > eps)
        mc_slack = 3.0 * np.sqrt(delta * (1 - delta) / 100_000)
        assert rate <= delta + mc_slack
        # K is minimal: one stick fewer violates the target
        tails_short = np.prod(1.0 - gen.beta(1.0, n0, size=(100_000, k - 1)), axis=1)
        assert np.mean(tails_short > eps) > delta

    def test_level_meets_its_definition(self):
        # P(tail > eps) = P(Gamma(K, rate n0) < -ln eps), the regularized lower
        # incomplete gamma P(K, n0 x), in 40-digit arithmetic: at most delta at
        # K and above it at K - 1
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x = -mpmath.log(mpmath.mpf(TRUNCATION_EPS))
        delta = mpmath.mpf(TRUNCATION_DELTA)
        for n0 in DEFINITION_GRID:
            k = choose_truncation_level(n0)
            nx = mpmath.mpf(float(n0)) * x
            assert mpmath.gammainc(k, 0, nx, regularized=True) <= delta, n0
            if k > 1:
                assert mpmath.gammainc(k - 1, 0, nx, regularized=True) > delta, n0

    def test_monotone_in_concentration(self):
        levels = [choose_truncation_level(n0) for n0 in (1, 5, 10, 20, 40)]
        assert levels == sorted(levels)

    def test_domain_errors(self):
        for n0 in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                choose_truncation_level(n0)

    def test_level_is_bounded(self):
        assert MAX_TRUNCATION_LEVEL == 2**16
        # gdtrib's shape is 65536.0 at n0 = 9401.306698302345
        assert choose_truncation_level(9401.0) == 65534
        assert choose_truncation_level(9401.3066983 * (1 - 1e-9)) == 2**16
        for n0 in (9401.3066983 * (1 + 1e-9), 9402.0, 1e6, 1.7e308):  # gdtrib: inf at 1.7e308
            with pytest.raises(ParameterError, match="more than the 65536"):
                choose_truncation_level(n0)
            with pytest.raises(ParameterError, match="more than the 65536"):
                DirichletProcessSpec(n0, normal_base(0.0, 1.0))

    def test_bound_is_where_the_level_exceeds_it(self):
        # the largest admitted float concentration has exactly the maximum
        # level, and the next float up is rejected
        def admitted(n0):
            try:
                return choose_truncation_level(n0) <= MAX_TRUNCATION_LEVEL
            except ParameterError:
                return False

        lo, hi = 9000.0, 10000.0
        assert admitted(lo) and not admitted(hi)
        while np.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
        assert choose_truncation_level(lo) == MAX_TRUNCATION_LEVEL
        assert DirichletProcessSpec(lo, normal_base(0.0, 1.0)).concentration == lo
        with pytest.raises(ParameterError, match="sticks"):
            choose_truncation_level(hi)


def posterior_exceedance(n0, n, k):
    """P((1 - rho) T_K > eps) by quadrature, with 1 - rho ~ Beta(n0, n) and
    -ln(T_K) ~ Gamma(K, rate n0) independent: the Gamma CDF at ln(t / eps),
    integrated over the quantiles t of 1 - rho above eps."""
    def exceeds(u):  # P(T_K > eps / t) at the Beta(n0, n) quantile t of u
        t = special.betaincinv(n0, n, u)
        return special.gdtr(n0, k, np.log(t / TRUNCATION_EPS)) if t > TRUNCATION_EPS else 0.0

    return integrate.quad(exceeds, special.betainc(n0, n, TRUNCATION_EPS), 1.0,
                          epsabs=1e-9, limit=200)[0]


def union_bound_holds(n0, n, k):
    """The rule's union bound at level k: P(T_K > eps / s) <= delta / 2, s the
    Beta(n0, n) quantile at 1 - delta / 2."""
    s = special.betaincinv(n0, n, 1 - TRUNCATION_DELTA / 2)
    return s <= TRUNCATION_EPS or (
        special.gdtr(n0, k, np.log(s / TRUNCATION_EPS)) <= TRUNCATION_DELTA / 2)


#: data sizes of the posterior levels' checks, fixed before their first run
POSTERIOR_SIZES = (1, 2, 20, 200, 1000, 10**4, 10**5)


class TestPosteriorTruncationLevel:
    def test_frozen_levels(self):
        # n = 1000, the study's size: about half the prior's 167 and 90
        assert choose_truncation_level(20.0, 1000) == 93
        assert choose_truncation_level(10.0, 1000) == 46
        assert choose_truncation_level(20.0, 0) == choose_truncation_level(20.0) == 167

    @pytest.mark.parametrize("n0", [1.0, 10.0, 20.0])
    def test_level_meets_its_definition(self, n0):
        prior = choose_truncation_level(n0)
        levels = [choose_truncation_level(n0, n) for n in POSTERIOR_SIZES]
        assert levels == sorted(levels, reverse=True)  # no more sticks for more data
        for n, k in zip(POSTERIOR_SIZES, levels):
            assert 1 <= k <= prior, (n0, n)
            assert posterior_exceedance(n0, n, k) <= TRUNCATION_DELTA, (n0, n)
            # the bound's level, or the prior's, which meets the rule for any rho
            assert k == prior or union_bound_holds(n0, n, k), (n0, n)
            if k > 1:  # the smallest level the bound admits
                assert not union_bound_holds(n0, n, k - 1), (n0, n)
        assert levels[0] == prior  # one data point leaves the prior side nearly all its mass
        assert levels[-1] == 1  # at 10**5 points 1 - rho alone is below eps

    def test_simulated_exceedance_rate(self):
        # independent oracle: simulate (1 - rho) T_K with numpy's own Beta
        # sampler, against the quadrature of the definition, at K and at 60
        # sticks, where about half the draws discard more than eps
        n0, n, draws = 20.0, 1000, 20_000
        k = choose_truncation_level(n0, n)
        gen = np.random.default_rng(1)
        rates = {}
        for level in (k, 60):
            tails = np.prod(1.0 - gen.beta(1.0, n0, size=(draws, level)), axis=1)
            rates[level] = np.mean(gen.beta(n0, n, size=draws) * tails > TRUNCATION_EPS)
            exact = posterior_exceedance(n0, n, level)
            assert abs(rates[level] - exact) <= 4 * np.sqrt(exact * (1 - exact) / draws) + 1 / draws
        assert rates[k] <= TRUNCATION_DELTA < rates[60]


class TestDirichletProcessSpec:
    @pytest.mark.parametrize("n0", [0.0, -1.0, np.nan, np.inf])
    def test_concentration_must_be_positive_and_finite(self, n0):
        with pytest.raises(ParameterError, match="positive and finite"):
            DirichletProcessSpec(n0, normal_base(0.0, 1.0))


class TestStickWeights:
    def test_weights_plus_tail_is_unity(self):
        w, tail = stick_weights(20.0, 100, substream(1, 0))
        assert abs(w.sum() + tail - 1.0) < 1e-12
        assert np.all(w >= 0)

    def test_expected_weights_decrease(self):
        # earlier sticks carry more mass on average
        rng = substream(1, 1)
        first, tenth = [], []
        for _ in range(5000):
            w, _ = stick_weights(20.0, 10, rng)
            first.append(w[0])
            tenth.append(w[9])
        assert np.mean(first) > np.mean(tenth)

    @pytest.mark.parametrize("k", [1, 2, 37])
    def test_weights_are_each_stick_times_the_mass_left_before_it(self, k):
        # the weights are made in place, over the flat run of rows: each row
        # keeps its own first stick and never reads the row before it
        u = substream(1, 3).uniform(size=(6, k + 3))
        v = -np.expm1(np.log1p(-u[:, :k]) / 20.0)
        remaining = np.cumprod(1.0 - v, axis=-1)
        expected = v * np.concatenate((np.ones((6, 1)), remaining[:, :-1]), axis=-1)
        w, tail = stick_weights(20.0, k, UniformRows(u))
        assert np.array_equal(w, expected) and np.array_equal(tail, remaining[:, -1])
        assert w.flags.c_contiguous and w.shape == (6, k) and tail.shape == (6,)
        for r in range(6):
            one, one_tail = stick_weights(20.0, k, UniformRows(u[r:r + 1]))
            assert np.array_equal(one[0], w[r]) and one_tail[0] == tail[r]

    def test_tail_mass_law(self):
        # -ln(tail) ~ Gamma(K, n0): mean K/n0, variance K/n0^2
        n0, k, runs = 20.0, 100, 2000
        rng = substream(1, 2)
        tails = np.array([stick_weights(n0, k, rng)[1] for _ in range(runs)])
        neglog = -np.log(tails)
        se = np.sqrt(k / n0**2 / runs)
        assert abs(neglog.mean() - k / n0) < 3 * se
        assert abs(neglog.var() - k / n0**2) < 0.2 * k / n0**2


def atom(a):
    """The atom itself, one feature."""
    return a[..., None, :]


def ones(a):
    """The constant 1, one feature: its mean is the total mass."""
    return np.ones_like(a)[..., None, :]


def below(t):
    """The indicator of atoms below ``t``, one feature: its mean is a mass."""
    return lambda a: (a < t)[..., None, :].astype(float)


class TestProcessMeansPrior:
    def test_total_mass_is_one(self):
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        means = process_means(spec, substream(2, 0), ones)
        assert means.shape == (1,)
        assert abs(means[0] - 1.0) <= 1e-12

    def test_process_mean_matches_base_mean(self):
        # averaged over process draws, the measure mean equals the base mean
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        rng = substream(2, 1)
        means = np.array([process_means(spec, rng, atom)[0] for _ in range(2000)])
        se = means.std() / np.sqrt(means.size)
        assert abs(means.mean()) < 3 * se

    def test_mass_below_base_median(self):
        # expected measure of any set equals its base-measure probability
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        rng = substream(2, 2)
        fracs = np.array([process_means(spec, rng, below(0.0))[0] for _ in range(2000)])
        se = fracs.std() / np.sqrt(fracs.size)
        assert abs(fracs.mean() - 0.5) < 3 * se

    def test_features_of_joint_atoms(self):
        # the means of (x0, x0 * x1) are those of the normalized sticks, by hand
        base = lambda rng, size: np.stack((sample_normal(0.0, 1.0, rng, size=size),
                                           sample_normal(1.0, 2.0, rng, size=size)), axis=-1)
        spec = DirichletProcessSpec(5.0, base)
        features = lambda a: np.stack((a[..., 0], a[..., 0] * a[..., 1]), axis=-2)
        means = process_means(spec, substream(2, 3), features)
        k = choose_truncation_level(5.0)
        rng = substream(2, 3)
        w, _ = stick_weights(5.0, k, rng)
        atoms = base(rng, k)
        w = w / w.sum()
        oracle = [sum(wj * a[0] for wj, a in zip(w, atoms)),
                  sum(wj * a[0] * a[1] for wj, a in zip(w, atoms))]
        assert means.shape == (2,)
        assert np.allclose(means, oracle, rtol=1e-12, atol=1e-12)

    def test_no_features_makes_scalar_atoms_their_own(self):
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        assert np.array_equal(process_means(spec, substream(2, 4)),
                              process_means(spec, substream(2, 4), atom))
        joint = DirichletProcessSpec(10.0, lambda rng, size: np.zeros((size, 2)))
        with pytest.raises(ParameterError, match="need features"):
            process_means(joint, substream(2, 4))

    def test_scalar_normal_mean_is_one_variate(self):
        # k sticks, then mu + sqrt(var sum(w^2)) / sum(w) times one standard normal
        spec = DirichletProcessSpec(5.0, ScalarNormal(2.0, 0.25))
        means = process_means(spec, substream(2, 5))
        rng = substream(2, 5)
        w, _ = stick_weights(5.0, choose_truncation_level(5.0), rng)
        z = special.ndtri(rng.uniform())
        assert means.shape == (1,)
        assert np.isclose(means[0], 2.0 + np.sqrt(0.25 * np.sum(w * w)) / w.sum() * z,
                          rtol=1e-14, atol=0)

    def test_scalar_normal_takes_no_features(self):
        spec = DirichletProcessSpec(5.0, ScalarNormal(0.0, 1.0))
        with pytest.raises(ParameterError, match="features=None"):
            process_means(spec, substream(2, 6), atom)
        assert np.array_equal(ScalarNormal(1.0, 4.0)(substream(2, 7), 5),
                              sample_normal(1.0, 4.0, substream(2, 7), size=5))
        with pytest.raises(ParameterError, match="variance"):
            ScalarNormal(0.0, 0.0)


class TestProcessMeansPosterior:
    def test_total_mass_is_one(self):
        spec = DirichletProcessSpec(20.0, normal_base(0.0, 1.0))
        means = process_means(spec, substream(3, 1), ones, np.ones((1, 100)))
        assert means.shape == (1,)
        assert abs(means[0] - 1.0) <= 1e-12

    def test_expected_data_mass_is_beta_mean(self):
        # mass on the data block is Beta(n, n0); mean n / (n + n0) = 5/6
        n, n0 = 100, 20.0
        spec = DirichletProcessSpec(n0, normal_base(0.0, 1.0))
        zeros = lambda a: np.zeros_like(a)[..., None, :]
        rng = substream(3, 3)
        mass = np.array([process_means(spec, rng, zeros, np.ones((1, n)))[0]
                         for _ in range(5000)])
        se = mass.std() / np.sqrt(mass.size)
        assert abs(mass.mean() - n / (n + n0)) < 3 * se

    def test_posterior_mean_measure(self):
        # E F(B) under the posterior is the n0/n-weighted blend of base and empirical
        n, n0, t = 200, 10.0, 0.25
        spec = DirichletProcessSpec(n0, normal_base(0.0, 1.0))
        data = sample_normal(0.5, 1.0, substream(3, 4), size=n)
        from scipy.stats import norm

        target = (n0 * norm.cdf(t) + n * np.mean(data <= t)) / (n0 + n)
        at_most_t = lambda a: (a <= t)[..., None, :].astype(float)
        table = at_most_t(data)
        rng = substream(3, 5)
        fracs = np.array([process_means(spec, rng, at_most_t, table)[0] for _ in range(5000)])
        se = fracs.std() / np.sqrt(fracs.size)
        assert abs(fracs.mean() - target) < 3 * se

    def test_tiny_concentration_puts_mass_on_data(self):
        # n0 -> 0 limit: virtually all mass sits on the data atoms
        n0 = 1e-6
        spec = DirichletProcessSpec(n0, normal_base(0.0, 1.0))
        assert choose_truncation_level(n0) == 1
        zeros = lambda a: np.zeros_like(a)[..., None, :]
        rng = substream(3, 7)
        mass = np.array([process_means(spec, rng, zeros, np.ones((1, 50)))[0]
                         for _ in range(1000)])
        assert mass.mean() >= 0.999

    @pytest.mark.parametrize("n", [0, 1, 2, 30])
    def test_uniforms_taken(self, n):
        # k sticks, k atoms, then rho and n data weights; one point takes no weight
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        rows = UniformRows(np.random.default_rng(n).random((3, 400)))
        process_means(spec, rows, atom, np.ones((1, n)) if n else None)
        assert rows.at == 2 * choose_truncation_level(10.0, n) + (n > 0) + (n if n > 1 else 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 30])
    def test_scalar_normal_uniforms_taken(self, n):
        # k sticks and one variate, then rho and n data weights
        spec = DirichletProcessSpec(10.0, ScalarNormal(0.0, 1.0))
        rows = UniformRows(np.random.default_rng(n).random((3, 400)))
        process_means(spec, rows, None, np.ones((1, n)) if n else None)
        assert rows.at == choose_truncation_level(10.0, n) + 1 + (n > 0) + (n if n > 1 else 0)

    def test_one_data_point(self):
        # rho on the point, 1 - rho on the prior mean: one point leaves the
        # prior side the prior's sticks
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        k = choose_truncation_level(10.0, 1)
        assert k == choose_truncation_level(10.0)
        u = np.random.default_rng(1).random((2, 2 * k + 1))
        prior_means = process_means(spec, UniformRows(u), atom)
        means = process_means(spec, UniformRows(u), atom, np.array([[3.0]]))
        rho = -np.expm1(np.log1p(-u[:, -1:]) / 10.0)  # Beta(1, n0) by inverse CDF
        assert np.allclose(means, (1.0 - rho) * prior_means + rho * 3.0, rtol=1e-14)

    def test_empty_data_rejected(self):
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        with pytest.raises(ParameterError, match="needs data"):
            process_means(spec, substream(3, 8), atom, np.zeros((1, 0)))

    def test_feature_count_mismatch_rejected(self):
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        with pytest.raises(ParameterError, match="features"):
            process_means(spec, substream(3, 9), atom, np.zeros((2, 10)))

    def test_bad_base_sampler_rejected(self):
        spec = DirichletProcessSpec(10.0, lambda rng, size: np.zeros(size + 1))
        with pytest.raises(ParameterError, match="base sampler"):
            process_means(spec, substream(3, 10), atom)


def test_spec_validation():
    with pytest.raises(ParameterError):
        DirichletProcessSpec(0.0, normal_base(0.0, 1.0))
