import numpy as np
import pytest

from partialid import (
    DirichletProcessSpec,
    ParameterError,
    choose_truncation_level,
    process_draw,
    row_covariance,
    row_means,
    sample_normal,
    stick_weights,
    substream,
)
from partialid.dirichlet import TRUNCATION_DELTA, TRUNCATION_EPS


def normal_base(mu, var):
    return lambda rng, size: sample_normal(mu, var, rng, size=size)


class TestChooseTruncationLevel:
    def test_frozen_levels(self):
        # frozen from the Gamma-quantile bisection; cross-checked by simulation below
        assert choose_truncation_level(20.0, 1e-3, 0.01) == 167
        assert choose_truncation_level(1.0, 1e-3, 0.01) == 15

    def test_simulated_exceedance_rate(self):
        # independent oracle: simulate tail masses with numpy's own Beta sampler
        n0, eps, delta = 20.0, 1e-3, 0.01
        k = choose_truncation_level(n0, eps, delta)
        gen = np.random.default_rng(0)
        tails = np.prod(1.0 - gen.beta(1.0, n0, size=(100_000, k)), axis=1)
        rate = np.mean(tails > eps)
        mc_slack = 3.0 * np.sqrt(delta * (1 - delta) / 100_000)
        assert rate <= delta + mc_slack
        # K is minimal: one stick fewer violates the target
        tails_short = np.prod(1.0 - gen.beta(1.0, n0, size=(100_000, k - 1)), axis=1)
        assert np.mean(tails_short > eps) > delta

    def test_monotone_in_concentration(self):
        levels = [choose_truncation_level(n0, 1e-3, 0.01) for n0 in (1, 5, 10, 20, 40)]
        assert levels == sorted(levels)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            choose_truncation_level(0.0, 1e-3, 0.01)
        with pytest.raises(ParameterError):
            choose_truncation_level(10.0, 0.0, 0.01)
        with pytest.raises(ParameterError):
            choose_truncation_level(10.0, 1e-3, 1.0)


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

    def test_tail_mass_law(self):
        # -ln(tail) ~ Gamma(K, n0): mean K/n0, variance K/n0^2
        n0, k, runs = 20.0, 100, 2000
        rng = substream(1, 2)
        tails = np.array([stick_weights(n0, k, rng)[1] for _ in range(runs)])
        neglog = -np.log(tails)
        se = np.sqrt(k / n0**2 / runs)
        assert abs(neglog.mean() - k / n0) < 3 * se
        assert abs(neglog.var() - k / n0**2) < 0.2 * k / n0**2


def default_level(n0):
    return choose_truncation_level(n0, TRUNCATION_EPS, TRUNCATION_DELTA)


class TestProcessDrawPrior:
    def test_weights_sum_to_one(self):
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        weights, atoms = process_draw(spec, substream(2, 0))
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert weights.shape == atoms.shape == (default_level(10.0),)

    def test_process_mean_matches_base_mean(self):
        # averaged over process draws, the measure mean equals the base mean
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        rng = substream(2, 1)
        means = np.array([row_means(*process_draw(spec, rng)) for _ in range(2000)])
        se = means.std() / np.sqrt(means.size)
        assert abs(means.mean()) < 3 * se

    def test_mass_below_base_median(self):
        # expected measure of any set equals its base-measure probability
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        rng = substream(2, 2)
        fracs = []
        for _ in range(2000):
            weights, atoms = process_draw(spec, rng)
            fracs.append(weights[atoms < 0.0].sum())
        fracs = np.array(fracs)
        se = fracs.std() / np.sqrt(fracs.size)
        assert abs(fracs.mean() - 0.5) < 3 * se


class TestProcessDrawPosterior:
    def test_weights_sum_to_one(self):
        spec = DirichletProcessSpec(20.0, normal_base(0.0, 1.0))
        data = sample_normal(1.0, 1.0, substream(3, 0), size=100)
        weights, atoms = process_draw(spec, substream(3, 1), data)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert weights.shape == atoms.shape == (default_level(20.0) + 100,)
        assert np.array_equal(atoms[-100:], data)

    def test_expected_data_mass_is_beta_mean(self):
        # mass on the data block is Beta(n, n0); mean n / (n + n0) = 5/6
        n, n0 = 100, 20.0
        spec = DirichletProcessSpec(n0, normal_base(0.0, 1.0))
        data = sample_normal(0.0, 1.0, substream(3, 2), size=n)
        k = default_level(n0)
        rng = substream(3, 3)
        mass = np.array(
            [process_draw(spec, rng, data)[0][k:].sum() for _ in range(5000)]
        )
        se = mass.std() / np.sqrt(mass.size)
        assert abs(mass.mean() - n / (n + n0)) < 3 * se

    def test_posterior_mean_measure(self):
        # E F(B) under the posterior is the n0/n-weighted blend of base and empirical
        n, n0, t = 200, 10.0, 0.25
        spec = DirichletProcessSpec(n0, normal_base(0.0, 1.0))
        data = sample_normal(0.5, 1.0, substream(3, 4), size=n)
        from scipy.stats import norm

        target = (n0 * norm.cdf(t) + n * np.mean(data <= t)) / (n0 + n)
        rng = substream(3, 5)
        fracs = []
        for _ in range(5000):
            weights, atoms = process_draw(spec, rng, data)
            fracs.append(weights[atoms <= t].sum())
        fracs = np.array(fracs)
        se = fracs.std() / np.sqrt(fracs.size)
        assert abs(fracs.mean() - target) < 3 * se

    def test_tiny_concentration_puts_mass_on_data(self):
        # n0 -> 0 limit: virtually all mass sits on the data atoms
        n0 = 1e-6
        spec = DirichletProcessSpec(n0, normal_base(0.0, 1.0))
        k = default_level(n0)
        assert k == 1
        data = sample_normal(0.0, 1.0, substream(3, 6), size=50)
        rng = substream(3, 7)
        mass = np.array(
            [process_draw(spec, rng, data)[0][k:].sum() for _ in range(1000)]
        )
        assert mass.mean() >= 0.999

    def test_empty_data_rejected(self):
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        with pytest.raises(ParameterError, match="needs data"):
            process_draw(spec, substream(3, 8), np.array([]))

    def test_dimension_mismatch_rejected(self):
        spec = DirichletProcessSpec(10.0, normal_base(0.0, 1.0))
        with pytest.raises(ParameterError):
            process_draw(spec, substream(3, 9), np.zeros((10, 2)))


def normalized(weights):
    return weights / weights.sum(axis=-1, keepdims=True)


class TestRowMeans:
    def test_two_atoms(self):
        assert row_means(np.array([0.5, 0.5]), np.array([1.0, 3.0])) == 2.0

    def test_single_atom(self):
        assert row_means(np.array([1.0]), np.array([7.0]) ** 2) == 49.0

    def test_matches_direct_loop_row_by_row(self):
        gen = np.random.default_rng(5)
        atoms = gen.normal(size=(4, 50))
        weights = normalized(gen.random((4, 50)))
        means = row_means(weights, atoms**3 - atoms)
        assert means.shape == (4,)
        for w, a, mean in zip(weights, atoms, means):
            oracle = sum(wk * (ak**3 - ak) for wk, ak in zip(w, a))
            assert abs(mean - oracle) < 1e-12
            assert mean == row_means(w, a**3 - a)  # a row equals its own draw

    def test_linearity(self):
        gen = np.random.default_rng(6)
        atoms = gen.normal(size=30)
        weights = normalized(gen.random(30))
        h1 = atoms**2
        h2 = np.sin(atoms)
        lhs = row_means(weights, 2.5 * h1 + h2)
        rhs = 2.5 * row_means(weights, h1) + row_means(weights, h2)
        assert abs(lhs - rhs) < 1e-12


class TestRowCovariance:
    def test_perfectly_correlated_atoms(self):
        atoms = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert row_covariance(np.array([0.5, 0.5]), atoms, 0, 1) == pytest.approx(1.0)

    def test_single_atom_is_degenerate(self):
        assert row_covariance(np.array([1.0]), np.array([[3.0, -1.0]]), 0, 1) == 0.0

    def test_matches_double_loop(self):
        gen = np.random.default_rng(7)
        atoms = gen.normal(size=(50, 3))
        w = normalized(gen.random(50))
        mean_i = sum(wk * a[0] for wk, a in zip(w, atoms))
        mean_j = sum(wk * a[2] for wk, a in zip(w, atoms))
        oracle = sum(wk * (a[0] - mean_i) * (a[2] - mean_j) for wk, a in zip(w, atoms))
        assert abs(row_covariance(w, atoms, 0, 2) - oracle) < 1e-12

    def test_variance_of_one_coordinate(self):
        atoms = np.array([[1.0], [2.0]])
        assert row_covariance(np.array([0.5, 0.5]), atoms, 0, 0) == pytest.approx(0.25)


def test_spec_validation():
    with pytest.raises(ParameterError):
        DirichletProcessSpec(0.0, normal_base(0.0, 1.0))
