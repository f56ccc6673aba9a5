"""The three number rules of ``partialid.errors`` at every entry point that uses them."""

import numpy as np
import pytest

from partialid import (
    ConditionalPriorSpec,
    DirichletProcessSpec,
    ParameterError,
    ScalarNormal,
    beta_cdf,
    choose_truncation_level,
    draw_set_batch,
    histogram,
    make_config,
    marginal_sample,
    psd_repair,
    sample_beta,
    sample_mvnormal,
    sample_normal,
    sample_truncated_normal,
    stick_weights,
    substream,
)
from partialid.distributions import cholesky_factor
from partialid.errors import check_finite, check_positive

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

# each entry point with one bound or matrix entry (a real number, infinite or
# not) set to the value, and that value's name as its ParameterError states it
REAL = {
    "sample_truncated_normal(lo)": (
        lambda v: sample_truncated_normal(0.0, 1.0, v, 1.0, substream(1, 0)), "lo"),
    "sample_truncated_normal(hi)": (
        lambda v: sample_truncated_normal(0.0, 1.0, -1.0, v, substream(1, 0)), "hi"),
    "sample_mvnormal(cov)": (
        lambda v: sample_mvnormal([0.0, 0.0], [[v, 0.0], [0.0, 1.0]], substream(1, 0)),
        "covariance"),
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
