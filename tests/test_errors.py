"""The input rules of ``partialid.errors`` at every entry point that uses them."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from partialid import (
    BinaryCounts,
    ConditionalPriorSpec,
    Dataset,
    DirichletProcessSpec,
    IntervalSet,
    MarginalSampleBatch,
    ParameterError,
    ScalarNormal,
    SetDrawBatch,
    analytic_coverage_binary,
    analytic_coverage_toy,
    beta_cdf,
    beta_quantile,
    binary_posterior_params,
    choose_truncation_level,
    count_binary,
    credible_region,
    draw_set_batch,
    estimate_coverage,
    histogram,
    make_config,
    marginal_sample,
    psd_repair,
    sample_beta,
    sample_mvnormal,
    sample_normal,
    sample_truncated_normal,
    scenarios,
    stick_weights,
    substream,
)
from partialid.cli import RunConfig, run_scenario
from partialid.distributions import cholesky_factor
from partialid.errors import as_reals, check_finite, check_positive
from partialid.scenarios import check_attempts

# each entry point with one real parameter set to the value, and that
# parameter's name as its ParameterError states it
POSITIVE = {
    "sample_beta(a)": (lambda v: sample_beta(v, 1.0, substream(1, 0)), "a"),
    "sample_beta(b)": (lambda v: sample_beta(1.0, v, substream(1, 0)), "b"),
    "sample_normal": (lambda v: sample_normal(0.0, v, substream(1, 0)), "sigma2"),
    "ScalarNormal": (lambda v: ScalarNormal(0.0, v), "variance"),
    "sample_truncated_normal": (
        lambda v: sample_truncated_normal(0.0, v, -1.0, 1.0, substream(1, 0)), "sigma2"),
    "beta_cdf(a)": (lambda v: beta_cdf(0.5, v, 1.0), "a"),
    "beta_cdf(b)": (lambda v: beta_cdf(0.5, 1.0, v), "b"),
    "choose_truncation_level": (choose_truncation_level, "concentration"),
    "DirichletProcessSpec": (lambda v: DirichletProcessSpec(v, ScalarNormal(0.0, 1.0)),
                             "concentration"),
    **{f"ConditionalPriorSpec({name})": (
        lambda v, name=name: ConditionalPriorSpec("IV", **{name: v}), name)
       for name in ("tau0_sq", "sigma0_sq", "p", "q")},
}

# each entry point with one location (a real number or an array of them) set
# to the value, and that location's name as its ParameterError states it
FINITE = {
    "sample_normal": (lambda v: sample_normal(v, 1.0, substream(1, 0)), "mu"),
    "ScalarNormal": (lambda v: ScalarNormal(v, 1.0), "mu"),
    "sample_mvnormal": (lambda v: sample_mvnormal([v, 0.0], np.eye(2), substream(1, 0)),
                        "mean"),
    "sample_truncated_normal": (
        lambda v: sample_truncated_normal(v, 1.0, -1.0, 1.0, substream(1, 0)), "mu"),
    "sample_truncated_normal(array)": (
        lambda v: sample_truncated_normal(np.array([0.0, v]), 1.0, -1.0, 1.0,
                                          substream(1, 0), size=2), "mu"),
}

_POSTERIOR = SetDrawBatch([0.0, 0.5], [1.0, 2.0], "posterior", "synthetic")

# a shape of each of beta_quantile's three paths, and beta_quantile there with u set to the value
BETA_PATHS = {"closed_form": (1.0, 3.0), "table": (3.0, 3.0), "betaincinv": (2e4, 3.0)}
BETA_U = {f"beta_quantile({path})": (lambda v, a=a, b=b: beta_quantile(a, b, v), "u")
          for path, (a, b) in BETA_PATHS.items()}

# each entry point with one real number (a bound, a matrix entry, a grid point,
# a datum, a draw; infinite or not) set to the value, and that number's name
# as its ParameterError states it
REAL = {
    "sample_truncated_normal(lo)": (
        lambda v: sample_truncated_normal(0.0, 1.0, v, 1.0, substream(1, 0)), "lo"),
    "sample_truncated_normal(hi)": (
        lambda v: sample_truncated_normal(0.0, 1.0, -1.0, v, substream(1, 0)), "hi"),
    "sample_mvnormal(cov)": (
        lambda v: sample_mvnormal([0.0, 0.0], [[v, 0.0], [0.0, 1.0]], substream(1, 0)),
        "covariance"),
    "beta_cdf(x)": (lambda v: beta_cdf(v, 1.0, 1.0), "x"),
    **BETA_U,
    "make_config(grid)": (lambda v: make_config("toy_analytic", grid=[0.0, v]), "grid"),
    "Dataset(values)": (lambda v: Dataset("interval_censored", [[0.0, v]]), "values"),
    "binary_posterior_params(alpha)": (
        lambda v: binary_posterior_params([2.0, v, 1.0], BinaryCounts(1, 1, 1)), "alpha"),
    "analytic_coverage_toy": (analytic_coverage_toy, "gamma"),
    "analytic_coverage_binary(gamma)": (
        lambda v: analytic_coverage_binary(v, (2.0, 3.0, 1.0)), "gamma"),
    "analytic_coverage_binary(alpha)": (
        lambda v: analytic_coverage_binary(0.5, (2.0, v, 1.0)), "alpha"),
    "IntervalSet(lo)": (lambda v: IntervalSet(v, 1.0), "lo"),
    "IntervalSet(hi)": (lambda v: IntervalSet(0.0, v), "hi"),
    "SetDrawBatch(lo)": (lambda v: SetDrawBatch([v], [1.0], "prior", "synthetic"), "lo"),
    "SetDrawBatch(hi)": (lambda v: SetDrawBatch([0.0], [v], "prior", "synthetic"), "hi"),
    "SetDrawBatch(gamma_uniforms)": (
        lambda v: SetDrawBatch([0.0], [1.0], "prior", "synthetic", gamma_uniforms=[v]),
        "gamma_uniforms"),
    "MarginalSampleBatch(gammas)": (
        lambda v: MarginalSampleBatch([v], [0.0], [1.0], "prior", "synthetic"), "gammas"),
    "estimate_coverage(grid)": (lambda v: estimate_coverage(_POSTERIOR, [0.0, v]), "grid"),
    "credible_region(alpha)": (lambda v: credible_region(_POSTERIOR, v), "alpha"),
    "histogram(values)": (lambda v: histogram([0.5, v], 5, (0.0, 1.0)), "values"),
    "histogram(value_range)": (lambda v: histogram([0.5], 5, (v, 1.0)), "value_range"),
}

# each entry point with one number of [0, 1] set to the value, and that
# number's name as its ParameterError states it
UNIT = {
    **BETA_U,
    "beta_cdf(x)": (lambda v: beta_cdf(v, 1.0, 1.0), "x"),
    "analytic_coverage_binary(gamma)": (
        lambda v: analytic_coverage_binary(v, (2.0, 3.0, 1.0)), "gamma"),
}

# each entry point with its grid set to the value
GRID = {
    "make_config": lambda v: make_config("toy_analytic", grid=v),
    "estimate_coverage": lambda v: estimate_coverage(_POSTERIOR, v),
}


class _WorkStarted(Exception):
    """Raised by a run's first data, pool or draw: its options were all taken."""


def _start_work(*args, **kwargs):
    raise _WorkStarted


def _run_to_first_work(alpha, out_dir):
    with pytest.MonkeyPatch.context() as patch:
        for name in ("generate_data", "_attempt_pool", "draw_set_batch"):
            patch.setattr(scenarios, name, _start_work)
        with pytest.raises(_WorkStarted):
            run_scenario(RunConfig(scenario="interval_censored", alpha=alpha, out_dir=out_dir))


# each entry point with its level set to the value; a level it takes gives no error
LEVEL = {
    "run_scenario": _run_to_first_work,
    "credible_region": lambda v, out_dir: credible_region(_POSTERIOR, v),
}

# each count with the value in its place
COUNTS = {
    "make_config(n)": (lambda v: make_config("binary_missing", n=v), "n"),
    "draw_set_batch(n_draws)": (
        lambda v: draw_set_batch(make_config("toy_analytic"), "prior", v, 0), "n_draws"),
    "draw_set_batch(workers)": (
        lambda v: draw_set_batch(make_config("toy_analytic"), "prior", 5, 0, workers=v),
        "workers"),
    "histogram(bins)": (lambda v: histogram([0.5], v, (0.0, 1.0)), "bins"),
    "stick_weights(k)": (lambda v: stick_weights(5.0, v, substream(1, 0)), "k"),
}


@pytest.mark.parametrize("value", [np.inf, np.nan, 0, -1, "x"],
                         ids=["inf", "nan", "zero", "negative", "text"])
@pytest.mark.parametrize("entry", POSITIVE)
def test_real_parameter_must_be_positive_and_finite(entry, value):
    call, name = POSITIVE[entry]
    with pytest.raises(ParameterError, match=f"^{name} must be positive and finite"):
        call(value)


@pytest.mark.parametrize("value", [np.float64(2.0), np.int64(2)], ids=["float64", "int64"])
@pytest.mark.parametrize("entry", POSITIVE)
def test_real_parameter_takes_numpy_numbers(entry, value):
    POSITIVE[entry][0](value)


@pytest.mark.parametrize("value", [np.array([1.0, 2.0]), np.array([10.0]), np.array(10.0)],
                         ids=["several", "one", "0-d"])
def test_an_array_is_not_a_parameter(value):
    with pytest.raises(ParameterError, match="^sigma2 must be positive and finite"):
        check_positive(sigma2=value)
    # the concentration is checked before the cache of truncation levels,
    # which cannot hash an array
    with pytest.raises(ParameterError, match="^concentration must be positive and finite"):
        choose_truncation_level(value)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, "x"],
                         ids=["inf", "-inf", "nan", "text"])
@pytest.mark.parametrize("entry", FINITE)
def test_location_must_be_finite(entry, value):
    call, name = FINITE[entry]
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        call(value)


@pytest.mark.parametrize("value", [np.float64(-2.0), np.int64(2), 0, -3.5],
                         ids=["float64", "int64", "zero", "negative"])
@pytest.mark.parametrize("entry", FINITE)
def test_location_takes_any_finite_number(entry, value):
    FINITE[entry][0](value)


@pytest.mark.parametrize("value", [[1.0, "x"], [[1.0], [1.0, 2.0]], None, 1 + 2j],
                         ids=["mixed", "ragged", "none", "complex"])
def test_a_location_is_real(value):
    with pytest.raises(ParameterError, match="^mean must be finite"):
        check_finite(mean=value)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, "x"],
                         ids=["inf", "-inf", "nan", "text"])
@pytest.mark.parametrize("call, name", [(psd_repair, "matrix"), (cholesky_factor, "covariance")],
                         ids=["psd_repair", "cholesky_factor"])
def test_matrix_entries_must_be_finite(call, name, value):
    # psd_repair once returned a NaN matrix, flagged clipped, for an infinite entry
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        call([[value, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("value", ["a", None, 1 + 2j], ids=["text", "none", "complex"])
@pytest.mark.parametrize("entry", REAL)
def test_a_bound_or_matrix_entry_must_be_a_real_number(entry, value):
    # text raised numpy's untyped ValueError from the float conversion
    call, name = REAL[entry]
    with pytest.raises(ParameterError, match=f"^{name} must be real numbers"):
        call(value)


@pytest.mark.parametrize("value", [1.5, -0.1, np.nan, [0.5, 1.5]],
                         ids=["above", "below", "nan", "list"])
@pytest.mark.parametrize("entry", UNIT)
def test_a_number_of_the_unit_interval_must_lie_in_it(entry, value):
    # beta_quantile raised numpy's untyped IndexError at a tabulated shape,
    # and returned NaN at the others
    call, name = UNIT[entry]
    with pytest.raises(ParameterError, match=rf"^{name} must lie in \[0, 1\]"):
        call(value)


@pytest.mark.parametrize("a, b", BETA_PATHS.values(), ids=BETA_PATHS)
def test_every_beta_path_takes_a_list_of_uniforms(a, b):
    # the closed form raised TypeError for a list
    u = [0.0, 0.25, 0.75]
    np.testing.assert_array_equal(beta_quantile(a, b, u), beta_quantile(a, b, np.array(u)))


@pytest.mark.parametrize("grid", [[np.inf, np.inf], [-np.inf, -np.inf], [1.0, 0.0], [np.nan],
                                  [0.0, np.nan], [], [[0.0, 1.0]]],
                         ids=["inf_inf", "-inf_-inf", "decreasing", "nan", "nan_last", "empty",
                              "2-d"])
@pytest.mark.parametrize("entry", GRID)
def test_a_grid_is_1d_and_strictly_increasing(entry, grid):
    # [inf, inf] computed inf - inf: estimate_coverage returned [0, 0] with
    # numpy's "invalid value" warning, and raised that warning as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="^grid must be .*strictly increasing"):
            GRID[entry](grid)


@pytest.mark.parametrize("spec", [
    (0.0, 1.0, 0.0), (1.0, 0.0, 0.1), (0.0, np.nan, 0.1), (0.0, np.inf, 1.0),
    (np.float64(-1e308), np.float64(1e308), 1.0), (0.0, 1.0, np.float64(1e-320)),
    ("0", 1.0, 0.1),
], ids=["no_step", "reversed", "nan", "inf", "overflowing_span", "tiny_step", "text"])
def test_a_grid_spec_is_finite_increasing_and_allocatable(spec):
    # numpy numbers overflowed (hi - lo) / step with numpy's RuntimeWarning,
    # and text raised numpy's untyped TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="grid spec"):
            scenarios.step_grid(*spec)


@pytest.mark.parametrize("matrix", [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.0]], [1.0, 1.0]],
                         ids=["asymmetric", "not_square", "1-d"])
@pytest.mark.parametrize("call, name", [(psd_repair, "matrix"), (cholesky_factor, "covariance")],
                         ids=["psd_repair", "cholesky_factor"])
def test_a_matrix_is_square_and_symmetric(call, name, matrix):
    with pytest.raises(ParameterError, match=f"^{name} must be a square symmetric matrix"):
        call(matrix)


@pytest.mark.parametrize("alpha, taken", [
    (np.array(0.9), True), (True, True), (0.5, True), (1, True), (np.float32(0.95), True),
    (0, False), (1.5, False), (np.nan, False), ("x", False), ([0.9], False),
    ([0.9, 0.95], False), (np.array([0.9]), False),
], ids=["0-d_array", "true", "half", "one", "float32", "zero", "above", "nan", "text", "list",
        "two", "one_element_array"])
@pytest.mark.parametrize("entry", LEVEL)
def test_a_credible_level_is_one_number_in_0_1(entry, alpha, taken, tmp_path):
    # run_scenario rejected np.array(0.9), which credible_region took, and
    # credible_region kept the caller's object as its alpha (True, a float32);
    # an array of two raised numpy's "truth value of an array is ambiguous"
    if not taken:
        with pytest.raises(ParameterError,
                           match=r"^alpha must be (one number in \(0, 1\]|real numbers), got "):
            LEVEL[entry](alpha, str(tmp_path))
    elif (region := LEVEL[entry](alpha, str(tmp_path))) is not None:
        assert type(region.alpha) is float and region.alpha == float(alpha)
    assert list(tmp_path.iterdir()) == []


def test_a_draw_count_no_role_reaches_fails_before_any_draw():
    # a role has 2**32 attempts; a larger count was blamed on skips, "0 skips in 0 attempts"
    assert check_attempts(2**32, 1) == (2**32, 1)
    with pytest.raises(ParameterError, match=r"^n_draws must be <= 2\*\*32, got 4294967297$"):
        draw_set_batch(make_config("toy_analytic"), "prior", 2**32 + 1, 0)


@pytest.mark.parametrize("value_range", [(0.0, 1.0, 5.0), (1.0,), 5.0, [[0.0], [1.0]], []],
                         ids=["three", "one", "scalar", "nested", "empty"])
def test_a_histogram_range_is_two_numbers(value_range):
    # three numbers binned on the first two; the others raised numpy's
    # untyped IndexError or TypeError
    with pytest.raises(ParameterError, match="^value_range must be two numbers, got "):
        histogram([0.5, 3.0], 2, value_range)


@pytest.mark.parametrize("call", [
    lambda v: Dataset("interval_censored", v), lambda v: check_finite(mean=v),
    lambda v: check_positive(sigma2=v), lambda v: histogram([0.5], v, (0.0, 1.0)),
], ids=["as_reals", "check_finite", "check_positive", "as_int"])
def test_a_long_value_is_shown_in_short(call):
    # each rule printed the whole value: 100000 rows of text made a message of
    # 1.2 million characters
    with pytest.raises(ParameterError, match=r"got \[\['a', 'b'\], .*, \.\.\.\]$") as info:
        call([["a", "b"]] * 100_000)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("value", [
    [1, 2.5], (1, 2.5), np.array([1, 2]), np.array([True, False]),
    np.array([0.1], dtype=np.float32), [Fraction(1, 3), 2**70, True], -np.inf, 3,
], ids=["list", "tuple", "int", "bool", "float32", "objects", "inf", "scalar"])
def test_numbers_convert_as_numpy_converts_them(value):
    # the values np.array(value, dtype=float) gave where as_reals now converts
    np.testing.assert_array_equal(as_reals("x", value), np.array(value, dtype=float))


def test_booleans_convert_as_zero_and_one():
    # booleans were converted by np.array(..., dtype=float) before as_reals
    # took them; the values, and so the counts, stay those of that conversion
    rows = np.array([[True, True], [False, True], [False, False]])
    data = Dataset("binary_missing", rows)
    assert data.values.dtype == float and data.values.tolist() == [[1, 1], [0, 1], [0, 0]]
    assert count_binary(data) == BinaryCounts(1, 1, 1)
    batch = SetDrawBatch(np.array([False, True]), np.array([True, True]), "prior", "synthetic",
                         gamma_uniforms=np.array([False, False]))
    assert [batch.lo.tolist(), batch.hi.tolist(), batch.gamma_uniforms.tolist()] == [
        [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
    assert batch.lo.dtype == batch.gamma_uniforms.dtype == float


def test_a_batch_or_dataset_holds_its_own_copy():
    lo, hi, u, values = np.zeros(3), np.ones(3), np.full(3, 0.5), np.zeros((3, 2))
    batch = SetDrawBatch(lo, hi, "prior", "synthetic", gamma_uniforms=u)
    marginal = MarginalSampleBatch(u, lo, hi, "prior", "synthetic")
    data = Dataset("interval_censored", values)
    for given, held in [(lo, batch.lo), (hi, batch.hi), (u, batch.gamma_uniforms),
                        (u, marginal.gammas), (values, data.values)]:
        assert not np.shares_memory(given, held)


@pytest.mark.parametrize("lo, hi", [(-np.inf, 1.0), (0.0, np.inf)], ids=["below", "above"])
def test_a_truncation_bound_may_be_infinite(lo, hi):
    x = sample_truncated_normal(0.0, 1.0, lo, hi, substream(1, 0), size=100)
    assert np.all((lo <= x) & (x <= hi)) and np.isfinite(x).all()


@pytest.mark.parametrize("value, message", [
    (0, ">= 1, got 0"), (2.5, "an integer, got 2.5"), ("3", "an integer, got '3'"),
], ids=["zero", "fraction", "text"])
@pytest.mark.parametrize("entry", COUNTS)
def test_count_must_be_an_integer_of_at_least_one(entry, value, message):
    call, name = COUNTS[entry]
    with pytest.raises(ParameterError, match=f"^{name} must be {message}$"):
        call(value)


def test_an_infinite_prior_variance_fails_before_any_draw():
    # it drew five NaN gammas when an infinite variance passed the check
    with pytest.raises(ParameterError, match="^tau0_sq must be positive and finite"):
        marginal_sample(make_config("binary_missing"), ConditionalPriorSpec("I", tau0_sq=np.inf),
                        "prior", 5, 1)
