import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from partialid import (
    ConditionalPriorSpec,
    IntervalSet,
    ParameterError,
    SetDrawBatch,
    default_prior_spec,
    draw_set,
    draw_set_batch,
    generate_data,
    histogram,
    make_config,
    marginal_sample,
    sample_truncated_normal,
    substream,
)
from partialid import scenarios
from partialid.priors import draw_gammas
from partialid.scenarios import (
    ROLE_DATA,
    ROLE_POSTERIOR_SETS,
    ROLE_PRIOR_SETS,
    attempt_stream,
)

UNIT_05 = IntervalSet(0.0, 5.0)


def gammas_on(spec, interval, u):
    """The gammas of ``spec`` on copies of ``interval``, one per uniform of ``u``."""
    batch = SetDrawBatch(np.full(len(u), interval.lo), np.full(len(u), interval.hi),
                         "prior", "synthetic", gamma_uniforms=u)
    return draw_gammas(spec, batch).gammas


def draw_many(spec, interval, seed, n):
    # the gammas of the first n uniforms of one stream
    return gammas_on(spec, interval, substream(seed, 0).uniform(n))


class TestSpecValidation:
    def test_family_must_be_known(self):
        with pytest.raises(ParameterError):
            ConditionalPriorSpec("V")

    def test_positivity(self):
        with pytest.raises(ParameterError):
            ConditionalPriorSpec("I", tau0_sq=0.0)
        with pytest.raises(ParameterError):
            ConditionalPriorSpec("IV", q=-1.0)

    def test_default_wiring(self):
        assert default_prior_spec("interval_censored", "IV").p == 2.0
        assert default_prior_spec("interval_censored", "IV").q == 2.0
        for sid in ("errors_in_variables", "interval_regression", "binary_missing"):
            spec = default_prior_spec(sid, "IV")
            assert (spec.p, spec.q) == (1.0, 0.5)
            assert spec.tau0_sq == 1.0
            assert spec.sigma0_sq == 2.0

    def test_no_wiring_for_toy(self):
        with pytest.raises(ParameterError):
            default_prior_spec("toy_analytic", "III")


class TestSampleGamma:
    def test_flat_family_uniform_moments(self):
        draws = draw_many(ConditionalPriorSpec("III"), UNIT_05, 20, 100_000)
        assert draws.min() >= 0.0 and draws.max() <= 5.0
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - 2.5) < 3 * se

    def test_symmetric_beta_family_moments(self):
        spec = ConditionalPriorSpec("IV", p=2.0, q=2.0)
        draws = draw_many(spec, UNIT_05, 21, 100_000)
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - 2.5) < 3 * se

    def test_truncated_family_matches_quadrature(self):
        spec = ConditionalPriorSpec("II", sigma0_sq=2.0)
        draws = draw_many(spec, UNIT_05, 22, 100_000)
        density = lambda t: np.exp(-(t**2) / 4.0)
        mass = integrate.quad(density, 0.0, 5.0)[0]
        oracle = integrate.quad(lambda t: t * density(t), 0.0, 5.0)[0] / mass
        assert abs(draws.mean() - oracle) < 0.02

    def test_rejection_family_equals_centered_truncated_normal(self):
        # same center, same variance: the two constructions share a law
        fam1 = draw_many(ConditionalPriorSpec("I", tau0_sq=2.0), UNIT_05, 23, 100_000)
        ref = sample_truncated_normal(2.5, 2.0, 0.0, 5.0, substream(24, 0), size=100_000)
        se_mean = np.sqrt(fam1.var() / fam1.size + ref.var() / ref.size)
        assert abs(fam1.mean() - ref.mean()) < 3 * se_mean
        m1 = (fam1**2).mean()
        m2 = (ref**2).mean()
        se_m2 = np.sqrt((fam1**2).var() / fam1.size + (ref**2).var() / ref.size)
        assert abs(m1 - m2) < 3 * se_m2

    def test_zero_centered_family_differs_from_midpoint_center(self):
        fam1 = draw_many(ConditionalPriorSpec("I", tau0_sq=2.0), UNIT_05, 25, 100_000)
        fam2 = draw_many(ConditionalPriorSpec("II", sigma0_sq=2.0), UNIT_05, 26, 100_000)
        se = np.sqrt(fam1.var() / fam1.size + fam2.var() / fam2.size)
        assert abs(fam1.mean() - fam2.mean()) > 3 * se

    def test_midpoint_family_draws_inside_a_far_narrow_interval(self):
        # 1e-9 wide: about 4e-10 of the mass of family I's normal, far beyond any
        # rejection budget, and 5 sds out for the zero-centered family II
        narrow = IntervalSet(5.0, 5.0 + 1e-9)
        u = [substream(27, k).uniform() for k in range(50)]
        for spec in (ConditionalPriorSpec("I", tau0_sq=1.0),
                     ConditionalPriorSpec("II", sigma0_sq=1.0)):
            x = gammas_on(spec, narrow, u)
            assert x.size == 50
            assert np.all((narrow.lo <= x) & (x <= narrow.hi))

    def test_degenerate_interval_returns_midpoint(self):
        point = IntervalSet(3.0, 3.0 + 1e-13)
        u = substream(28, 0).uniform(4)
        for family in ("I", "II", "III", "IV"):
            x = gammas_on(ConditionalPriorSpec(family), point, u)
            assert x.tolist() == pytest.approx([3.0] * 4)

    def test_all_families_respect_support(self):
        interval = IntervalSet(-2.0, -0.5)
        u = substream(29, 0).uniform(4 * 2000)  # 2000 consecutive uniforms per family
        for i, family in enumerate(("I", "II", "III", "IV")):
            x = gammas_on(ConditionalPriorSpec(family), interval, u[2000 * i:2000 * (i + 1)])
            assert x.size == 2000
            assert np.all((interval.lo <= x) & (x <= interval.hi))


class TestMarginalSample:
    def test_pairs_always_consistent(self):
        cfg = make_config("binary_missing", n=300)
        data = generate_data(cfg, attempt_stream(30, ROLE_DATA, 0))
        for family in ("I", "II", "III", "IV"):
            spec = default_prior_spec("binary_missing", family)
            batch = marginal_sample(cfg, spec, "posterior", 400, 30, dataset=data)
            assert len(batch) == 400
            assert np.all(batch.gammas >= batch.lo)
            assert np.all(batch.gammas <= batch.hi)

    def test_interval_censored_flat_posterior_mean(self):
        cfg = make_config("interval_censored", n=1000)
        data = generate_data(cfg, attempt_stream(31, ROLE_DATA, 0))
        spec = default_prior_spec("interval_censored", "III")
        batch = marginal_sample(cfg, spec, "posterior", 1000, 31, dataset=data)
        assert abs(batch.gammas.mean() - 2.5) < 0.15

    def test_binary_posterior_close_to_uniform_on_point_estimate(self):
        # large-sample consistency: flat conditional prior over an interval
        # that concentrates makes the marginal posterior nearly uniform
        cfg = make_config("binary_missing", n=10_000)
        data = generate_data(cfg, attempt_stream(32, ROLE_DATA, 0))
        from partialid import binary_posterior_params, count_binary

        astar = binary_posterior_params(cfg.hyper["alpha"], count_binary(data))
        lo = astar[0] / astar.sum()
        hi = (astar[0] + astar[2]) / astar.sum()
        spec = default_prior_spec("binary_missing", "III")
        batch = marginal_sample(cfg, spec, "posterior", 1000, 32, dataset=data)
        ks = stats.kstest(batch.gammas, stats.uniform(loc=lo, scale=hi - lo).cdf)
        assert ks.statistic <= 0.05

    @pytest.mark.parametrize("mode", ["prior", "posterior"])
    def test_each_gamma_is_the_two_stage_draw_of_its_attempt_stream(self, mode):
        # the base covariance of the skip test makes attempts and positions differ
        cfg = make_config("errors_in_variables", n=3)
        cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_cov": np.eye(2)})
        data = generate_data(cfg, attempt_stream(33, ROLE_DATA, 0))
        with pytest.warns(UserWarning, match="batch skipped"):
            batch = draw_set_batch(cfg, mode, 40, 33, dataset=data)
        role = ROLE_PRIOR_SETS if mode == "prior" else ROLE_POSTERIOR_SETS
        for family in ("I", "II", "III", "IV"):
            spec = default_prior_spec("errors_in_variables", family)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the set batch has warned already
                gammas = draw_gammas(spec, batch).gammas
            for j, index in enumerate(batch.attempt_indices):
                # the two-stage draw: interval, then gamma from the same stream's next uniform
                rng = attempt_stream(33, role, int(index))
                interval = draw_set(cfg, mode, rng, data)
                assert (interval.lo, interval.hi) == (batch.lo[j], batch.hi[j])
                assert gammas[j] == gammas_on(spec, interval, [rng.uniform()])[0]

    def test_marginal_sample_draws_gammas_on_the_set_batch(self):
        cfg = make_config("binary_missing", n=200)
        data = generate_data(cfg, attempt_stream(33, ROLE_DATA, 0))
        spec = default_prior_spec("binary_missing", "I")
        sets = draw_set_batch(cfg, "posterior", 100, 33, dataset=data)
        batch = marginal_sample(cfg, spec, "posterior", 100, 33, dataset=data)
        assert np.array_equal(batch.lo, sets.lo) and np.array_equal(batch.hi, sets.hi)
        assert np.array_equal(batch.attempt_indices, sets.attempt_indices)
        assert batch.skipped == sets.skipped
        assert np.array_equal(batch.gammas, draw_gammas(spec, sets).gammas)
        other = marginal_sample(cfg, spec, "posterior", 100, 33, dataset=data, role=9)
        resets = draw_set_batch(cfg, "posterior", 100, 33, dataset=data, role=9)
        assert np.array_equal(other.gammas, draw_gammas(spec, resets).gammas)
        assert not np.array_equal(other.gammas, batch.gammas)

    def test_worker_invariance(self, monkeypatch):
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)  # a real pool, at any size
        cfg = make_config("binary_missing", n=200)
        data = generate_data(cfg, attempt_stream(34, ROLE_DATA, 0))
        spec = default_prior_spec("binary_missing", "III")
        seq = marginal_sample(cfg, spec, "posterior", 80, 34, dataset=data, workers=1)
        par = marginal_sample(cfg, spec, "posterior", 80, 34, dataset=data, workers=2)
        assert np.array_equal(seq.gammas, par.gammas)
        assert np.array_equal(seq.lo, par.lo)

    def test_worker_invariance_with_skips(self, monkeypatch):
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        # binary_missing intervals never skip; an identity base covariance makes
        # about half of these attempts skip
        cfg = make_config("errors_in_variables", n=10)
        cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_cov": np.eye(2)})
        spec = ConditionalPriorSpec("I")
        with pytest.warns(UserWarning, match="batch skipped"):
            seq = marginal_sample(cfg, spec, "prior", 80, 34, workers=1)
            par = marginal_sample(cfg, spec, "prior", 80, 34, workers=2)
        assert seq.skipped == par.skipped > 0
        for name in ("attempt_indices", "lo", "hi", "gammas"):
            assert np.array_equal(getattr(seq, name), getattr(par, name))

    def test_posterior_needs_dataset(self):
        cfg = make_config("binary_missing", n=100)
        spec = default_prior_spec("binary_missing", "III")
        with pytest.raises(ParameterError):
            marginal_sample(cfg, spec, "posterior", 10, 35)

    def test_marginal_batch_follows_skip_rules(self):
        # an identity base covariance fails the positive-covariance guard often
        cfg = make_config("errors_in_variables", n=10)
        cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_cov": np.eye(2)})
        with pytest.warns(UserWarning, match="prior batch skipped"):
            batch = marginal_sample(cfg, ConditionalPriorSpec("III"), "prior", 50, 3)
        assert isinstance(batch, SetDrawBatch)
        assert batch.high_skip_warning is True
        assert batch.skip_rate == batch.skipped / (batch.skipped + len(batch)) > 0.05

    @pytest.mark.parametrize("marginal", [False, True])
    def test_high_skip_warning_names_the_callers_file(self, marginal):
        cfg = make_config("errors_in_variables", n=10)
        cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_cov": np.eye(2)})
        with pytest.warns(UserWarning, match="prior batch skipped") as record:
            if marginal:
                marginal_sample(cfg, ConditionalPriorSpec("III"), "prior", 50, 3)
            else:
                draw_set_batch(cfg, "prior", 50, 3)
        assert [w.filename for w in record] == [__file__] * len(record)

    def test_high_skip_batch_warns_once(self):
        cfg = make_config("errors_in_variables", n=10)
        cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_cov": np.eye(2)})
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            batch = marginal_sample(cfg, ConditionalPriorSpec("III"), "prior", 50, 3)
        assert batch.high_skip_warning is True
        assert [w.category for w in record] == [UserWarning]

    def test_mismatched_pairs_rejected(self):
        from partialid import MarginalSampleBatch

        with pytest.raises(ParameterError):
            MarginalSampleBatch([0.5], [1.0], [2.0], "prior", "synthetic")


class TestHistogram:
    def test_small_example(self):
        out = histogram([0.1, 0.1, 0.9], 2, (0.0, 1.0))
        assert list(out.counts) == [2, 1]
        assert out.underflow == 0 and out.overflow == 0

    def test_empty_values(self):
        out = histogram([], 4, (0.0, 1.0))
        assert list(out.counts) == [0, 0, 0, 0]

    def test_uniform_fill(self):
        values = substream(36, 0).uniform(size=10_000)
        out = histogram(values, 10, (0.0, 1.0))
        assert out.counts.sum() == 10_000
        assert np.all(np.abs(out.counts - 1000) < 150)

    def test_overflow_tallies(self):
        out = histogram([-1.0, 0.5, 2.0, 3.0], 2, (0.0, 1.0))
        assert out.underflow == 1
        assert out.overflow == 2
        assert out.counts.sum() == 1

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            histogram([0.5], 0, (0.0, 1.0))
        with pytest.raises(ParameterError):
            histogram([0.5], 3, (1.0, 1.0))
