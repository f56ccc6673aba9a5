import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialid import (
    IntervalSet,
    ParameterError,
    SetDrawBatch,
    credible_region,
    draw_set_batch,
    estimate_capacity,
    estimate_coverage,
    make_config,
    point_estimate_set,
)


def constant_batch(lo, hi, n=100, source="prior"):
    return SetDrawBatch(np.full(n, lo), np.full(n, hi), source, "synthetic")


def random_batch(seed, n=500, source="posterior"):
    gen = np.random.default_rng(seed)
    lo = gen.normal(size=n)
    hi = lo + gen.exponential(size=n)
    return SetDrawBatch(lo, hi, source, "synthetic")


def matrix_coverage(batch, grid):
    """Coverage as a G x N membership matrix: the reference the sorted counts must equal."""
    grid = np.asarray(grid, dtype=float)[:, None]
    return ((batch.lo[None, :] <= grid) & (grid <= batch.hi[None, :])).mean(axis=1)


def matrix_capacity(batch, probe):
    """Capacity as the mean of the closed-overlap mask over all draws."""
    return float(np.mean((batch.lo <= probe.hi) & (batch.hi >= probe.lo)))


@pytest.fixture(scope="module")
def toy_batch():
    return draw_set_batch(make_config("toy_analytic"), "prior", 10_000, master_seed=1)


class TestIntervalSet:
    def test_inverted_rejected(self):
        with pytest.raises(ParameterError):
            IntervalSet(1.0, 0.0)

    def test_closed_membership(self):
        iv = IntervalSet(0.0, 1.0)
        assert iv.lo <= 0.0 <= iv.hi and iv.lo <= 1.0 <= iv.hi
        assert not iv.lo <= 1.0000001 <= iv.hi

    def test_point_interval_allowed(self):
        # closed: an interval may be one point, and two may share an endpoint
        iv = IntervalSet(1.0, 1.0)
        assert (iv.lo, iv.hi) == (1.0, 1.0)
        assert IntervalSet(0.0, 1.0).hi >= IntervalSet(1.0, 2.0).lo

    @pytest.mark.parametrize("lo, hi", [("a", "b"), ("a", 1.0), (0.0, "b"), (None, 1.0)],
                             ids=["text", "text-lo", "text-hi", "none"])
    def test_endpoints_are_real_numbers(self, toy_batch, lo, hi):
        # ("a", "b") passed as ordered text, and the capacity read 0.0
        with pytest.raises(ParameterError, match="^(lo|hi) must be real numbers"):
            estimate_capacity(toy_batch, IntervalSet(lo, hi))

    def test_infinite_ends_allowed_and_nan_inverted(self):
        assert IntervalSet(-np.inf, np.inf).hi == np.inf
        for lo, hi in [(np.nan, 1.0), (0.0, np.nan)]:
            with pytest.raises(ParameterError, match="^inverted interval"):
                IntervalSet(lo, hi)

    def test_an_array_of_ends_is_not_an_endpoint(self):
        with pytest.raises(ParameterError, match="^lo and hi must be one number each"):
            IntervalSet(np.zeros(2), np.ones(2))


class TestSetDrawBatch:
    def test_inverted_draw_rejected(self):
        with pytest.raises(ParameterError):
            SetDrawBatch([1.0], [0.0], "prior", "synthetic")

    def test_bad_source_rejected(self):
        with pytest.raises(ParameterError):
            SetDrawBatch([0.0], [1.0], "sideways", "synthetic")

    @pytest.mark.parametrize("lo, hi", [([np.nan, 0.0], [0.5, 1.0]),
                                        ([0.0, 0.5], [np.nan, 1.0]),
                                        ([np.nan], [np.nan])])
    def test_nan_endpoint_rejected(self, lo, hi):
        with pytest.raises(ParameterError):
            SetDrawBatch(lo, hi, "prior", "synthetic")

    @pytest.mark.parametrize("lo, hi, extra, match", [
        (["a"], ["b"], {}, "^lo must be real numbers"),
        ([0.0], [[1.0], [1.0, 2.0]], {}, "^hi must be real numbers"),
        ([0.0], [1.0], {"gamma_uniforms": ["a"]}, "^gamma_uniforms must be real numbers"),
        ([0.0], [1.0], {"attempt_indices": ["a"]}, "must be numbers"),
        ([0.0], [1.0], {"attempt_indices": [1.5]}, "must be numbers: integers"),
        ([0.0], [1.0], {"attempt_indices": [-3]}, "must be numbers: at least 0"),
        ([0.0], [1.0], {"attempt_indices": [2**70]}, "must be numbers: integers"),
        ([0.0], [1.0], {"attempt_indices": [2**64 - 1]}, "must be numbers: at least 0"),
        ([0.0], [1.0], {"skipped": 1.5}, "skipped must be an integer"),
        ([0.0], [1.0], {"skipped": "a"}, "skipped must be an integer"),
    ], ids=["lo0-hi0", "lo1-hi1", "gamma_uniforms", "attempt_indices", "fractional-index",
            "negative-index", "index-beyond-uint64", "index-beyond-int64", "fractional-skipped",
            "text-skipped"])
    def test_endpoints_that_are_not_numbers_rejected(self, lo, hi, extra, match):
        with pytest.raises(ParameterError, match=match):
            SetDrawBatch(lo, hi, "prior", "toy_analytic", **extra)

    def test_high_skip_rate_warns(self):
        with pytest.warns(UserWarning):
            SetDrawBatch(np.zeros(50), np.ones(50), "prior", "synthetic", skipped=10)

    def test_moderate_skips_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = SetDrawBatch(np.zeros(100), np.ones(100), "prior", "s", skipped=2)
        assert batch.skip_rate == pytest.approx(2 / 102)


class TestEstimateCoverage:
    def test_constant_batch(self):
        curve = estimate_coverage(constant_batch(0.0, 5.0), np.array([-1.0, 0.0, 2.5, 5.0, 6.0]))
        assert list(curve.values) == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_toy_prior_against_closed_form(self, toy_batch):
        curve = estimate_coverage(toy_batch, np.array([0.5, 1.0, 1.75]))
        assert abs(curve.values[0] - 0.5) < 0.02
        assert curve.values[1] >= 0.99
        assert abs(curve.values[2] - 0.25) < 0.02

    def test_equals_difference_of_endpoint_ecdfs(self):
        # identity: P(lo <= g <= hi) = ECDF_lo(g) - ECDF_hi(g-) when lo <= hi always
        batch = random_batch(0)
        grid = np.linspace(-3.0, 4.0, 141)
        curve = estimate_coverage(batch, grid)
        n = len(batch)
        lo_sorted = np.sort(batch.lo)
        hi_sorted = np.sort(batch.hi)
        ecdf_lo = np.searchsorted(lo_sorted, grid, side="right")
        ecdf_hi_left = np.searchsorted(hi_sorted, grid, side="left")
        oracle = (ecdf_lo - ecdf_hi_left) / n
        assert np.array_equal(curve.values, oracle)

    def test_empty_batch_rejected(self):
        empty = SetDrawBatch([], [], "prior", "synthetic")
        with pytest.raises(ParameterError):
            estimate_coverage(empty, np.array([0.0, 1.0]))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ParameterError):
            estimate_coverage(constant_batch(0, 1), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("grid", [[np.nan], [0.0, np.nan], [np.nan, 0.0, 1.0]])
    def test_nan_grid_point_rejected(self, grid):
        with pytest.raises(ParameterError):
            estimate_coverage(constant_batch(0, 1), np.array(grid))

    def test_memory_independent_of_grid_times_draws(self):
        # a G x N boolean matrix here would peak at about 76 MB (2001 x 20000 cells)
        batch = random_batch(9, n=20_000)
        grid = np.linspace(-3.0, 4.0, 2001)
        tracemalloc.start()
        try:
            estimate_coverage(batch, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _tied_batch():
    gen = np.random.default_rng(10)
    lo = gen.integers(0, 6, size=400) / 2.0
    return SetDrawBatch(lo, lo + gen.integers(0, 4, size=400) / 2.0, "posterior", "synthetic")


def _degenerate_batch():
    gen = np.random.default_rng(11)
    lo = np.round(gen.normal(size=300), 1)
    hi = np.where(gen.random(300) < 0.5, lo, lo + np.round(gen.exponential(size=300), 1))
    return SetDrawBatch(lo, hi, "posterior", "synthetic")


def _infinite_batch():
    gen = np.random.default_rng(12)
    lo = np.round(gen.normal(size=300), 1)
    hi = lo + np.round(gen.exponential(size=300), 1)
    lo[gen.random(300) < 0.2] = -np.inf
    hi[gen.random(300) < 0.2] = np.inf
    lo[:3] = hi[:3] = np.inf
    hi[3:6] = lo[3:6] = -np.inf
    return SetDrawBatch(lo, hi, "posterior", "synthetic")


class TestMatrixOracle:
    """The sorted-endpoint estimators equal the G x N matrix form exactly."""

    @pytest.mark.parametrize("make_batch", [_tied_batch, _degenerate_batch, _infinite_batch,
                                            lambda: random_batch(13)])
    def test_coverage_and_capacity_equal_matrix_form(self, make_batch):
        batch = make_batch()
        # every endpoint is a grid point and a probe end, plus points between them
        ends = np.unique(np.concatenate([batch.lo, batch.hi]))
        finite = ends[np.isfinite(ends)]
        grid = np.unique(np.concatenate([ends, (finite[1:] + finite[:-1]) / 2,
                                         [-np.inf, finite[0] - 1.0, finite[-1] + 1.0, np.inf]]))
        assert np.array_equal(estimate_coverage(batch, grid).values, matrix_coverage(batch, grid))
        picks = grid[np.linspace(0, grid.size - 1, 25).astype(int)]
        for a, b in itertools.combinations_with_replacement(picks, 2):
            probe = IntervalSet(a, b)
            assert estimate_capacity(batch, probe) == matrix_capacity(batch, probe)


class TestEstimateCapacity:
    def test_whole_line_probe(self, toy_batch):
        assert estimate_capacity(toy_batch, IntervalSet(-1e18, 1e18)) == 1.0

    def test_toy_probe_hits_upper_bound_only(self, toy_batch):
        # P([1.5, 1.8] hits [t1, t2]) = P(t2 >= 1.5) = 0.5
        assert abs(estimate_capacity(toy_batch, IntervalSet(1.5, 1.8)) - 0.5) < 0.02

    def test_singleton_probe_equals_coverage(self, toy_batch):
        grid = np.linspace(0.0, 2.0, 21)
        curve = estimate_coverage(toy_batch, grid)
        for g, value in zip(grid, curve.values):
            assert estimate_capacity(toy_batch, IntervalSet(g, g)) == value

    def test_monotone_in_probe(self):
        batch = random_batch(1)
        gen = np.random.default_rng(2)
        for _ in range(100):
            lo = gen.normal()
            w_inner = gen.exponential()
            pad = gen.exponential(size=2)
            inner = IntervalSet(lo, lo + w_inner)
            outer = IntervalSet(lo - pad[0], lo + w_inner + pad[1])
            assert estimate_capacity(batch, inner) <= estimate_capacity(batch, outer)


class TestCredibleRegion:
    def test_identical_draws_recovered(self):
        batch = constant_batch(2.0, 3.0, source="posterior")
        for alpha in (0.1, 0.5, 0.9, 1.0):
            out = credible_region(batch, alpha)
            assert out.region == IntervalSet(2.0, 3.0)
            assert out.containment == 1.0

    def test_alpha_one_gives_hull(self):
        batch = random_batch(3)
        out = credible_region(batch, 1.0)
        assert out.region.lo == batch.lo.min()
        assert out.region.hi == batch.hi.max()
        assert out.containment == 1.0

    def test_containment_meets_level(self):
        batch = random_batch(4)
        out = credible_region(batch, 0.9)
        inside = np.mean((batch.lo >= out.region.lo) & (batch.hi <= out.region.hi))
        assert inside >= 0.9
        assert out.containment == pytest.approx(inside)

    def test_monotone_in_alpha(self):
        batch = random_batch(5)
        prev = credible_region(batch, 0.5).region
        for alpha in (0.8, 0.9, 0.95, 0.99):
            cur = credible_region(batch, alpha).region
            assert cur.lo <= prev.lo and cur.hi >= prev.hi
            prev = cur

    def test_bad_alpha_rejected(self):
        batch = random_batch(6)
        with pytest.raises(ParameterError):
            credible_region(batch, 0.0)
        with pytest.raises(ParameterError):
            credible_region(batch, 1.5)

    def test_prior_batch_rejected(self):
        batch = random_batch(7, source="prior")
        with pytest.raises(ParameterError):
            credible_region(batch, 0.95)

    @pytest.mark.parametrize("alpha, n, edge", [(0.3, 180, 116), (0.55, 40, 31)])
    def test_exact_index_where_the_float_product_rounds(self, alpha, n, edge):
        # in floats (1 - alpha) / 2 * n is 62.99999999999999 and 9.0; for the
        # doubles 0.3 and 0.55 it is just above 63 and just below 9, so k is
        # 63 and 8, and the nested intervals [-i, i] cut at -(n - 1 - k), n - 1 - k
        i = np.arange(n, dtype=float)
        out = credible_region(SetDrawBatch(-i, i, "posterior", "synthetic"), alpha)
        assert out.region == IntervalSet(-edge, edge)
        assert out.containment == (edge + 1) / n

    def test_contains_point_estimate_at_moderate_alpha(self):
        batch = random_batch(8)
        pe = point_estimate_set(batch)
        for alpha in (0.5, 0.8, 0.95):
            region = credible_region(batch, alpha).region
            assert region.lo <= pe.lo and pe.hi <= region.hi


class TestPointEstimateSet:
    def test_constant_batch(self):
        assert point_estimate_set(constant_batch(0.0, 5.0)) == IntervalSet(0.0, 5.0)

    def test_means_of_endpoints(self):
        batch = SetDrawBatch([0.0, 1.0], [2.0, 4.0], "posterior", "synthetic")
        assert point_estimate_set(batch) == IntervalSet(0.5, 3.0)

    def test_empty_batch_rejected(self):
        empty = SetDrawBatch([], [], "posterior", "synthetic")
        with pytest.raises(ParameterError):
            point_estimate_set(empty)

    @pytest.mark.parametrize("lo, hi, end", [([-math.inf, math.inf], [0.0, math.inf], "lower"),
                                             ([-math.inf, 0.0], [-math.inf, math.inf], "upper")])
    def test_infinities_of_both_signs_rejected_without_warning(self, lo, hi, end):
        batch = SetDrawBatch(lo, hi, "posterior", "synthetic")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"mean of the {end} ends is undefined"):
                point_estimate_set(batch)

    def test_infinities_of_one_sign_give_an_infinite_mean(self):
        batch = SetDrawBatch([-math.inf, 0.0], [1.0, math.inf], "posterior", "synthetic")
        assert point_estimate_set(batch) == IntervalSet(-math.inf, math.inf)


# endpoints on a quarter grid give ties, degenerate draws and grid points on endpoints
_quarters = st.integers(-12, 12).map(lambda i: i / 4.0)
_endpoint = st.one_of(_quarters, st.floats(-3.0, 3.0))
_width = st.one_of(st.just(0.0), _quarters.map(abs), st.floats(0.0, 3.0))


@st.composite
def batches(draw):
    pairs = draw(st.lists(st.tuples(_endpoint, _width), min_size=1, max_size=40))
    lo = np.array([a for a, _ in pairs])
    return SetDrawBatch(lo, lo + np.array([w for _, w in pairs]), "posterior", "synthetic")


grids = st.lists(_endpoint, min_size=1, max_size=30, unique=True).map(sorted)


class TestEstimatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(batches(), grids)
    def test_coverage_is_a_probability_equal_to_singleton_capacity(self, batch, grid):
        values = estimate_coverage(batch, grid).values
        assert np.all((0 <= values) & (values <= 1))
        assert np.array_equal(values, matrix_coverage(batch, grid))
        for g, value in zip(grid, values):
            assert estimate_capacity(batch, IntervalSet(g, g)) == value

    @settings(max_examples=60, deadline=None)
    @given(batches(), grids, _endpoint, _width)
    def test_capacity_bounds_coverage_inside_probe(self, batch, grid, a, w):
        probe = IntervalSet(a, a + w)
        capacity = estimate_capacity(batch, probe)
        assert capacity == matrix_capacity(batch, probe)
        values = estimate_coverage(batch, grid).values
        inside = (probe.lo <= np.array(grid)) & (np.array(grid) <= probe.hi)
        assert np.all(capacity >= values[inside])

    @settings(max_examples=60, deadline=None)
    @given(batches(), st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5).map(sorted))
    def test_credible_regions_meet_alpha_and_nest(self, batch, alphas):
        regions = [credible_region(batch, alpha) for alpha in alphas]
        n = len(batch)
        for r in regions:
            assert r.containment >= r.alpha
            inside = (batch.lo >= r.region.lo) & (batch.hi <= r.region.hi)
            assert type(r.containment) is float and r.containment == np.mean(inside)
            k = math.floor((1 - Fraction(r.alpha)) * n / 2)  # the exact index
            assert r.region == IntervalSet(np.sort(batch.lo)[k], np.sort(batch.hi)[n - 1 - k])
        for r, s in zip(regions, regions[1:]):
            assert r.containment <= s.containment
            assert s.region.lo <= r.region.lo and r.region.hi <= s.region.hi
