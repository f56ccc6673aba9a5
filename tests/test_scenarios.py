import contextlib
import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from functools import partial
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest

from partialid import (
    BinaryCounts,
    Dataset,
    IntervalSet,
    ParameterError,
    SkipBudgetError,
    analytic_capacity_toy,
    analytic_coverage_binary,
    analytic_coverage_toy,
    binary_posterior_params,
    count_binary,
    draw_set,
    draw_set_batch,
    generate_data,
    make_config,
)
from partialid import DirichletProcessSpec, process_means, scenarios
from partialid.cli import RunConfig, run_scenario
from partialid.dirichlet import choose_truncation_level
from partialid.distributions import ScalarNormal
from partialid.priors import ConditionalPriorSpec, marginal_sample
from partialid.rng import UniformRows, seed_words, stream_uniforms
from partialid.scenarios import (
    ROLE_DATA,
    ROLE_POSTERIOR_SETS,
    ROLE_PRIOR_SETS,
    SCENARIO_IDS,
    attempt_stream,
    prepare_draw,
    run_attempts,
)


class TestMakeConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ParameterError):
            make_config("nosuch")

    def test_toy_takes_no_sample_size(self):
        for n in (50, 0):
            with pytest.raises(ParameterError):
                make_config("toy_analytic", n=n)
        assert make_config("toy_analytic").n == 0

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", np.float64(4.0)])
    def test_sample_size_must_be_an_integer(self, n):
        with pytest.raises(ParameterError, match="n must be an integer"):
            make_config("interval_censored", n=n)

    def test_numpy_integer_sample_size_is_an_int(self):
        n = make_config("interval_censored", n=np.int64(50)).n
        assert n == 50 and type(n) is int

    def test_data_scenarios_default_to_n_1000(self):
        for sid in ("interval_censored", "errors_in_variables",
                    "interval_regression", "binary_missing"):
            assert make_config(sid).n == 1000

    def test_interval_censored_hyperparameters(self):
        cfg = make_config("interval_censored")
        assert cfg.hyper["n0"] == (10.0, 20.0)
        assert cfg.hyper["base_mean"] == (0.0, 10.0)
        assert cfg.hyper["base_var"] == (1.0, 1.0)
        assert cfg.true_set == IntervalSet(0.0, 5.0)
        assert cfg.grid[0] == -3.0 and cfg.grid[-1] == 12.0

    def test_errors_in_variables_hyperparameters(self):
        cfg = make_config("errors_in_variables")
        assert cfg.hyper["n0"] == 20.0
        assert np.array_equal(cfg.hyper["base_cov"], [[2.0, 0.9], [0.9, 2.0]])
        assert cfg.true_set == IntervalSet(0.5, 2.0)

    def test_interval_regression_base_covariance_repaired(self):
        cfg = make_config("interval_regression")
        assert cfg.hyper["base_cov_clipped"] is True
        eigs = np.linalg.eigvalsh(cfg.hyper["base_cov"])
        assert eigs.min() >= 1e-6 - 1e-12
        assert cfg.true_set == IntervalSet(2.0, 6.0)

    def test_binary_hyperparameters(self):
        cfg = make_config("binary_missing")
        assert np.array_equal(cfg.hyper["alpha"], [2.0, 3.0, 1.0])
        assert cfg.true_set == IntervalSet(0.4, 0.9)

    @pytest.mark.parametrize("sid", SCENARIO_IDS)
    def test_true_set_is_the_scenarios(self, sid):
        cfg = make_config(sid)
        assert cfg.true_set is scenarios.SCENARIOS[sid].true_set
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, true_set=IntervalSet(0.0, 1.0))
        with pytest.raises(AttributeError):
            cfg.true_set = IntervalSet(0.0, 1.0)

    def test_grid_defaults(self):
        assert make_config("toy_analytic").grid[-1] == 2.5
        assert make_config("binary_missing").grid.size == 21
        assert make_config("interval_regression").grid[0] == -1.0
        cfg = make_config("binary_missing", grid=np.linspace(0, 1, 101))
        assert cfg.grid.size == 101

    @pytest.mark.parametrize("grid", [[0.5], [[0.0, 1.0]], [0.0, 0.0, 1.0], [1.0, 0.0],
                                      [0.0, np.nan, 1.0]])
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ParameterError, match="strictly increasing"):
            make_config("binary_missing", grid=grid)

    @pytest.mark.parametrize("grid", [[0.0, np.inf], [-np.inf, 1.0]])
    def test_infinite_grid_point_rejected(self, grid, tmp_path):
        # increasing, but an infinite row has no place in coverage.csv or summary.json
        with pytest.raises(ParameterError, match="finite"):
            make_config("toy_analytic", grid=grid)
        with pytest.raises(ParameterError, match="finite"):
            run_scenario(RunConfig(scenario="toy_analytic", n=None, n_draws=50, seed=1,
                                   grid=np.array(grid), out_dir=str(tmp_path)))
        assert list(tmp_path.iterdir()) == []


class TestGenerateData:
    def test_toy_has_no_dgp(self):
        with pytest.raises(ParameterError):
            generate_data(make_config("toy_analytic"), attempt_stream(0, ROLE_DATA, 0))

    def test_interval_censored_upper_mean(self):
        cfg = make_config("interval_censored", n=10_000)
        data = generate_data(cfg, attempt_stream(1, ROLE_DATA, 0))
        assert data.columns == ("y1", "y2")
        se = np.sqrt(0.1 / 10_000)
        assert abs(data.column("y2").mean() - 5.0) < 3 * se

    def test_errors_in_variables_cross_covariance(self):
        # Cov(Y, Z) = Var(latent) = 1 under the generating process
        cfg = make_config("errors_in_variables", n=10_000)
        data = generate_data(cfg, attempt_stream(1, ROLE_DATA, 0))
        assert data.columns == ("y", "z")
        emp = np.cov(data.values.T, bias=True)[0, 1]
        assert abs(emp - 1.0) < 0.05

    def test_interval_regression_moments(self):
        cfg = make_config("interval_regression", n=10_000)
        data = generate_data(cfg, attempt_stream(1, ROLE_DATA, 0))
        assert data.columns == ("y1", "y2", "x", "z")
        ezx = np.mean(data.column("z") * data.column("x"))
        assert abs(ezx - 1.0 / 3.0) < 0.02
        ratio = np.mean(data.column("y1") * data.column("z")) / ezx
        assert abs(ratio - 2.0) < 0.1

    def test_binary_missing_rate(self):
        cfg = make_config("binary_missing", n=10_000)
        data = generate_data(cfg, attempt_stream(1, ROLE_DATA, 0))
        assert data.columns == ("yd", "d")
        missing = np.mean(data.column("d") == 0.0)
        assert abs(missing - 0.5) < 0.02


DATA_SCENARIOS = [sid for sid in SCENARIO_IDS if scenarios.SCENARIOS[sid].columns]


class TestDataset:
    @pytest.mark.parametrize("scenario_id", DATA_SCENARIOS)
    def test_columns_are_the_scenarios(self, scenario_id):
        columns = scenarios.SCENARIOS[scenario_id].columns
        data = Dataset(scenario_id, np.zeros((1, len(columns))))
        assert data.columns == columns
        assert data.n == 1

    def test_column_order_is_not_an_argument(self):
        values = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(TypeError):
            Dataset("errors_in_variables", ("z", "y"), values)
        data = Dataset("errors_in_variables", values)
        with pytest.raises(AttributeError):
            data.columns = ("z", "y")
        assert np.array_equal(data.column("y"), values[:, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        values = np.array([[0.1, 5.0], [bad, 4.9]])
        with pytest.raises(ParameterError, match="non-finite value in row 1, column y1"):
            Dataset("interval_censored", values)

    @pytest.mark.parametrize("shape", [(0, 2), (3, 1), (3, 3), (2,), (1, 2, 1)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ParameterError, match=r"values must be \(n >= 1, 2\)"):
            Dataset("interval_censored", np.zeros(shape))

    @pytest.mark.parametrize("scenario_id, match", [
        ("toy_analytic", "toy_analytic has no data-generating process"),
        ("no_such_scenario", "unknown scenario 'no_such_scenario'"),
    ])
    def test_needs_a_data_scenario(self, scenario_id, match):
        with pytest.raises(ParameterError, match=match):
            Dataset(scenario_id, np.zeros((3, 2)))

    def test_values_are_a_read_only_float_copy(self):
        given = np.array([[1, 2], [3, 4]])
        data = Dataset("interval_censored", given)
        given[0, 0] = 9
        assert data.values.dtype == float and data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert Dataset("interval_censored", [[1.0, 2.0]]).values.tolist() == [[1.0, 2.0]]
        generated = generate_data(make_config("interval_censored", n=5),
                                  attempt_stream(3, ROLE_DATA, 0))
        for values in (data.values, generated.values):
            with pytest.raises(ValueError, match="read-only"):
                values[1, 0] = np.nan

    @pytest.mark.parametrize("values", [np.array([["a", "b"]]), [[1.0, 2.0], [3.0]]],
                             ids=["strings", "ragged"])
    def test_values_that_are_not_numbers_rejected(self, values):
        with pytest.raises(ParameterError, match="^values must be real numbers"):
            Dataset("interval_censored", values)


class TestCountBinary:
    def make(self, rows):
        return Dataset("binary_missing", np.array(rows, dtype=float))

    def test_small_example(self):
        counts = count_binary(self.make([(1, 1), (0, 1), (0, 0)]))
        assert counts == BinaryCounts(1, 1, 1)

    def test_all_observed_ones(self):
        counts = count_binary(self.make([(1, 1)] * 7))
        assert counts == BinaryCounts(7, 0, 0)

    def test_matches_independent_scan(self):
        cfg = make_config("binary_missing", n=10_000)
        data = generate_data(cfg, attempt_stream(3, ROLE_DATA, 0))
        counts = count_binary(data)
        n1 = n0 = m = 0
        for yd, d in data.values:
            if d == 0:
                m += 1
            elif yd == 1:
                n1 += 1
            else:
                n0 += 1
        assert counts == BinaryCounts(n1, n0, m)
        assert counts.n1 + counts.n0_obs + counts.m == data.n

    def test_malformed_row_rejected(self):
        with pytest.raises(ParameterError):
            count_binary(self.make([(1, 1), (1, 0)]))  # observed value without flag
        with pytest.raises(ParameterError):
            count_binary(self.make([(0.5, 1)]))

    def test_other_scenario_rejected(self):
        data = Dataset("interval_censored", np.array([[1.0, 1.0]]))
        with pytest.raises(ParameterError, match="binary_missing dataset"):
            count_binary(data)


# three-cell Dirichlet parameters that are not three finite positive numbers
BAD_CELLS = [[2.0, -3.0, 1.0], [0.0, 1.0, 1.0], [np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0],
             [1.0, 1.0, -np.inf], [2.0, 3.0], [[2.0, 3.0, 1.0]], "abc", ["a", 1.0, 1.0]]


class TestBinaryPosteriorParams:
    def test_stated_update(self):
        out = binary_posterior_params([2.0, 3.0, 1.0], BinaryCounts(10, 5, 5))
        assert np.array_equal(out, [12.0, 8.0, 6.0])

    def test_no_data_is_identity(self):
        out = binary_posterior_params([2.0, 3.0, 1.0], BinaryCounts(0, 0, 0))
        assert np.array_equal(out, [2.0, 3.0, 1.0])

    def test_total_mass(self):
        counts = BinaryCounts(40, 11, 49)
        out = binary_posterior_params([2.0, 3.0, 1.0], counts)
        assert out.sum() == 6.0 + 100.0

    @pytest.mark.parametrize("alpha", BAD_CELLS)
    def test_bad_alpha(self, alpha):
        with pytest.raises(ParameterError, match="alpha|Dirichlet parameters"):
            binary_posterior_params(alpha, BinaryCounts(1, 2, 3))


def _means(features, *pairs):
    """Feature means of one process draw given as (weight, atom) pairs."""
    weights, atoms = zip(*pairs)
    return features(np.array(atoms, dtype=float)) @ np.array(weights, dtype=float)


def _constant_process(c):
    """A process whose atoms are all ``c``; it takes its uniforms as any process."""
    return DirichletProcessSpec(1.0, lambda rng, size: np.full(np.shape(rng.uniform(size)), c))


class TestBoundsFunctionals:
    def test_censoring_order_guard(self):
        for lo_c, hi_c, ok in ((1.0, 5.0, True), (5.0, 1.0, False)):
            rows = UniformRows(np.full((1, 80), 0.5))
            lo, hi, accept = scenarios._censored_draw(
                _constant_process(lo_c), _constant_process(hi_c), None, None, rows)
            assert np.allclose([lo[0], hi[0]], [lo_c, hi_c], rtol=1e-15, atol=0)
            assert accept.tolist() == [ok]

    def test_reverse_regression_degenerate_correlated_atoms(self):
        m = _means(scenarios._moment_features, (0.5, [1.0, 1.0]), (0.5, [-1.0, -1.0]))
        assert scenarios._reverse_regression_rows(m) == (1.0, 1.0, True)

    def test_reverse_regression_sign_guard(self):
        m = _means(scenarios._moment_features, (0.5, [1.0, -1.0]), (0.5, [-1.0, 1.0]))
        assert scenarios._reverse_regression_rows(m) == (-1.0, -1.0, False)

    def test_instrument_ratio_guard(self):
        # E[zx] < 0 must be skipped
        m = _means(scenarios._instrument_features,
                   (0.5, [1.0, 2.0, 1.0, -1.0]), (0.5, [1.0, 2.0, 1.0, -1.0]))
        assert scenarios._instrument_ratio_rows(m) == (1.0, 2.0, False)

    def test_instrument_ratio_values(self):
        m = _means(scenarios._instrument_features, (1.0, [1.0, 2.0, 1.0, 1.0]))
        assert scenarios._instrument_ratio_rows(m) == (1.0, 2.0, True)

    def test_instrument_ratio_inversion_guard(self):
        m = _means(scenarios._instrument_features, (1.0, [2.0, 1.0, 1.0, 1.0]))
        assert scenarios._instrument_ratio_rows(m) == (2.0, 1.0, False)

    def test_feature_tables_match_features_of_the_data(self):
        # a data table is the data's features, one column per point
        for sid, features in (("errors_in_variables", scenarios._moment_features),
                              ("interval_regression", scenarios._instrument_features)):
            cfg = make_config(sid, n=30)
            data = generate_data(cfg, attempt_stream(4, ROLE_DATA, 0))
            table = prepare_draw(cfg, "posterior", data).args[-1]
            assert table.flags.c_contiguous
            for column, point in zip(table.T, data.values):
                assert np.array_equal(column, features(point[None])[:, 0])


class TestDrawSet:
    def test_toy_supports(self):
        cfg = make_config("toy_analytic")
        for idx in range(2000):
            iv = draw_set(cfg, "prior", attempt_stream(4, 7, idx))
            assert 0.0 <= iv.lo <= 1.0
            assert 1.0 <= iv.hi <= 2.0

    def test_toy_posterior_rejected(self):
        with pytest.raises(ParameterError):
            draw_set(make_config("toy_analytic"), "posterior", attempt_stream(4, 7, 0))

    def test_posterior_requires_dataset(self):
        with pytest.raises(ParameterError):
            draw_set(make_config("binary_missing"), "posterior", attempt_stream(4, 7, 0))

    def test_dataset_scenario_must_match(self):
        cfg_b = make_config("binary_missing", n=20)
        cfg_c = make_config("interval_censored", n=20)
        data = generate_data(cfg_c, attempt_stream(4, ROLE_DATA, 0))
        with pytest.raises(ParameterError):
            draw_set(cfg_b, "posterior", attempt_stream(4, 7, 0), data)

    def test_binary_prior_endpoint_means(self):
        # aggregated Dirichlet cells: E lo = a1/sum, E hi = (a1 + a3)/sum
        # attempt j draws from attempt_stream(5, 7, j); binary never skips
        batch = draw_set_batch(make_config("binary_missing"), "prior", 100_000, 5, role=7)
        assert batch.skipped == 0
        assert abs(np.mean(batch.lo) - 2.0 / 6.0) < 0.005
        assert abs(np.mean(batch.hi) - 3.0 / 6.0) < 0.005

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            draw_set(make_config("binary_missing"), "sideways", attempt_stream(4, 7, 0))


def _skip_most(source):
    """A synthetic draw that skips four attempts in five."""
    x = source.uniform()
    return x, x, x >= 0.8


def _skip_most_with_extra(source):
    """:func:`_skip_most` with a fourth array per row: the attempt's next uniform."""
    x = source.uniform()
    return x, x, x >= 0.8, source.uniform()


def _nan_at(poison, source):
    """:func:`_skip_most` with the attempt that draws ``poison`` accepted as a NaN interval."""
    lo, hi, accept = _skip_most(source)
    hit = lo == poison
    return np.where(hit, np.nan, lo), hi, accept | hit


def _raise_at(poison, source, error=RuntimeError):
    """:func:`_skip_most`, raising ``error`` for a chunk that holds the attempt that draws ``poison``."""
    lo, hi, accept = _skip_most(source)
    if np.any(lo == poison):
        raise error("a chunk past the last acceptance")
    return lo, hi, accept


def _views(source):
    """A synthetic long-row draw whose arrays, accept aside, are views of its uniforms."""
    x = source.uniform(100)
    return x[..., 0], x[..., 0], x[..., 1] >= 0.2, x[..., 2]


def _copies(source):
    """:func:`_views` with each array a copy."""
    return tuple(np.copy(a) for a in _views(source))


def _long_row(source):
    """A synthetic draw that reads 299999 uniforms an attempt."""
    x = source.uniform(299_999)
    return x[..., 0], x[..., 0], np.ones(x.shape[:-1], dtype=bool)


def chunks_drawn(monkeypatch):
    """The rows and buffer shape of each chunk :func:`scenarios._task` draws in
    this process, in call order."""
    drawn, fill = [], scenarios.stream_uniforms

    def counted(words, m, out):
        drawn.append((len(words), out.shape))
        return fill(words, m, out=out)

    monkeypatch.setattr(scenarios, "stream_uniforms", counted)
    return drawn


def force_chunk_rows(monkeypatch, rows):
    """Chunks of ``rows`` rows, under the floor of :func:`scenarios.chunk_rows`;
    returns :func:`chunks_drawn`."""
    monkeypatch.setattr(scenarios, "chunk_rows", lambda m: rows)
    return chunks_drawn(monkeypatch)


def _slow_elsewhere(here, poison, source):
    """:func:`_nan_at`, a second slower in any process but ``here``."""
    if os.getpid() != here:
        time.sleep(1.0)
    return _nan_at(poison, source)


class TestDrawSetBatch:
    def test_skip_accounting_identity(self):
        cfg = make_config("errors_in_variables", n=200)
        batch = draw_set_batch(cfg, "prior", 300, master_seed=11)
        assert len(batch) == 300
        last = batch.attempt_indices[-1]
        assert last + 1 == len(batch) + batch.skipped

    @pytest.mark.parametrize("option, match", [
        ({"n_draws": 3.0}, "n_draws must be an integer"),
        ({"n_draws": "3"}, "n_draws must be an integer"),
        ({"workers": 1.5}, "workers must be an integer"),
        ({"master_seed": 1.5}, "master_seed must be an integer"),
        ({"master_seed": "7"}, "master_seed must be an integer"),
    ])
    def test_counts_and_seed_must_be_integers(self, monkeypatch, option, match):
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)  # every block pool-sized
        args = {"n_draws": 5, "master_seed": 3, "workers": 2, **option}
        with pytest.raises(ParameterError, match=match):
            draw_set_batch(make_config("binary_missing"), "prior", **args)

    def test_numpy_integer_counts_and_seed_are_accepted(self):
        cfg = make_config("binary_missing")
        want = draw_set_batch(cfg, "prior", 5, 3)
        got = draw_set_batch(cfg, "prior", np.int64(5), np.uint32(3), workers=np.int8(1))
        assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)

    def test_worker_invariance(self, monkeypatch):
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)  # a real pool, at any size
        cfg = make_config("toy_analytic")
        seq = draw_set_batch(cfg, "prior", 60, master_seed=12, workers=1)
        par = draw_set_batch(cfg, "prior", 60, master_seed=12, workers=2)
        assert np.array_equal(seq.lo, par.lo)
        assert np.array_equal(seq.hi, par.hi)
        assert seq.skipped == par.skipped

    def test_skip_budget_error_carries_counts(self):
        # a base measure with correlation -0.999 makes every prior draw fail
        # the positive-covariance guard, so the attempt cap is reached
        cfg = make_config("errors_in_variables", n=10)
        cov = np.array([[2.0, -1.998], [-1.998, 2.0]])
        cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_cov": cov})
        with pytest.raises(SkipBudgetError, match="1050 skips in 1050 attempts") as err:
            draw_set_batch(cfg, "prior", 1, 3)
        assert isinstance(err.value, RuntimeError)
        assert (err.value.skipped, err.value.attempts) == (1050, 1050)
        with pytest.raises(SkipBudgetError):
            marginal_sample(cfg, ConditionalPriorSpec("III"), "prior", 1, 3)

    def test_all_skip_batch_seeds_few_shares(self, monkeypatch):
        # top-up blocks grow with the skip rate instead of one block per attempt;
        # a share computes its seed words once
        built = []
        monkeypatch.setattr(scenarios, "seed_words",
                            lambda *args: built.append(args) or seed_words(*args))
        cfg = make_config("errors_in_variables", n=10)
        cov = np.array([[2.0, -1.998], [-1.998, 2.0]])
        cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_cov": cov})
        with pytest.raises(SkipBudgetError, match="1050 skips in 1050 attempts"):
            draw_set_batch(cfg, "prior", 1, 3)
        assert 1 <= len(built) <= 16

    def test_top_up_blocks_match_one_attempt_at_a_time(self, monkeypatch):
        expected, j = [], 0
        while len(expected) < 40:
            rng = attempt_stream(21, 1, j)
            u = rng.uniform()
            if u >= 0.8:
                expected.append((j, u, rng.uniform()))
            j += 1
        # the rule's chunks, then chunks of 7 rows, so blocks span many chunks
        for rows in (None, 7):
            if rows:
                chunks = force_chunk_rows(monkeypatch, rows)
            indices, lo, hi, gammas, skipped = run_attempts(_skip_most, 40, 21, 1, 1, "synthetic")
            assert indices.tolist() == [i for i, _, _ in expected]
            assert lo.tolist() == hi.tolist() == [u for _, u, _ in expected]
            assert gammas.tolist() == [g for _, _, g in expected]
            assert skipped == j - 40
        assert len(chunks) >= 10 and max(r for r, _ in chunks) == 7

    def test_attempts_past_the_last_acceptance_are_not_consumed(self, monkeypatch,
                                                                 pool_sizes):
        indices = run_attempts(_skip_most, 10, 21, 1, 1, "synthetic")[0]
        last = attempt_stream(21, 1, indices[-1]).uniform()
        late = attempt_stream(21, 1, indices[-1] + 1).uniform()
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)  # split every block
        chunks = force_chunk_rows(monkeypatch, 1)  # one attempt per chunk
        for workers in (1, 2):
            # a bad row is masked in its chunk; only a consumed one raises
            late_nan = partial(_nan_at, late)
            assert np.array_equal(run_attempts(late_nan, 10, 21, 1, workers, "synthetic")[0],
                                  indices)
            last_nan = partial(_nan_at, last)
            with pytest.raises(ParameterError, match=f"attempt {indices[-1]} drew"):
                run_attempts(last_nan, 10, 21, 1, workers, "synthetic")
        # the pool runs a task past the last acceptance and drops its error
        late_raise = partial(_raise_at, late)
        assert np.array_equal(run_attempts(late_raise, 10, 21, 1, 2, "synthetic")[0], indices)
        with pytest.raises(RuntimeError, match="past the last acceptance"):
            run_attempts(late_raise, 11, 21, 1, 2, "synthetic")
        assert pool_sizes == [1]  # one pool for the process
        assert len(chunks) >= 10 and {r for r, _ in chunks} == {1}

    def test_posterior_batch_concentrates(self):
        cfg = make_config("interval_censored", n=400)
        data = generate_data(cfg, attempt_stream(13, ROLE_DATA, 0))
        batch = draw_set_batch(cfg, "posterior", 200, master_seed=13, dataset=data)
        assert abs(np.mean(batch.lo)) < 0.3
        assert abs(np.mean(batch.hi) - 5.0) < 0.6


def _modes(sid):
    return ("prior", "posterior") if scenarios.SCENARIOS[sid].columns else ("prior",)


def attempt_uniforms(draw):
    """The uniforms an attempt of ``draw`` reads, counted on a row of 0.5s."""
    probe = UniformRows(np.broadcast_to(0.5, (1, 2**40)))
    draw(probe)
    return probe.at


def chunk_rows(draw):
    """The rows of a chunk of ``draw``'s attempts, each with its gamma uniform."""
    return scenarios.chunk_rows(1 + attempt_uniforms(draw))


#: Most traced memory, in KB, of one 64-row chunk draw of each Dirichlet-process
#: scenario and mode at n = 1000, apart from its own uniforms (130 to 1131 KB).
#: With a temporary made afresh at each step it took 336, 1171, 1005, 1756,
#: 1236 and 1755 KB; with each made once and changed in place, 171, 652, 735,
#: 1237, 754 and 1236 KB (numpy 2.4).
CHUNK_PEAK_KB = {
    ("interval_censored", "prior"): 250,
    ("interval_censored", "posterior"): 820,
    ("errors_in_variables", "prior"): 900,
    ("errors_in_variables", "posterior"): 1450,
    ("interval_regression", "prior"): 1000,
    ("interval_regression", "posterior"): 1450,
}


class TestBlockEquivalence:
    """A batch is attempt-by-attempt draw_set, then one more uniform of the stream."""

    @pytest.mark.parametrize("sid,mode,n", [
        *((sid, mode, 30) for sid in SCENARIO_IDS for mode in _modes(sid)),
        ("interval_censored", "posterior", 1),  # one data point takes no data uniform
        ("errors_in_variables", "posterior", 1),
    ])
    def test_batch_equals_draw_set_per_attempt(self, monkeypatch, sid, mode, n):
        has_data = bool(scenarios.SCENARIOS[sid].columns)
        cfg = make_config(sid, n=n if has_data else None)
        data = generate_data(cfg, attempt_stream(9, ROLE_DATA, 0)) if has_data else None
        # chunks of 7 rows, so the batch spans several chunks and top-up blocks
        chunks = force_chunk_rows(monkeypatch, 7)
        batch = draw_set_batch(cfg, mode, 40, 9, dataset=data)
        assert len(chunks) >= 6
        role = ROLE_PRIOR_SETS if mode == "prior" else ROLE_POSTERIOR_SETS
        rows = dict(zip(batch.attempt_indices.tolist(), range(len(batch))))
        for j in range(batch.attempt_indices[-1] + 1):
            rng = attempt_stream(9, role, j)
            interval = draw_set(cfg, mode, rng, data)
            if j not in rows:
                assert interval is None
                continue
            r = rows[j]
            assert (interval.lo, interval.hi) == (batch.lo[r], batch.hi[r])
            assert rng.uniform() == batch.gamma_uniforms[r]
        assert batch.skipped == batch.attempt_indices[-1] + 1 - len(batch)

    @pytest.mark.parametrize("role", [-1, 2**32])
    def test_a_role_outside_32_bits_is_rejected(self, role):
        # role 2**32 would key attempt 0 to stream 2**64, past the last index
        with pytest.raises(ParameterError, match=rf"role .*got {role}$"):
            attempt_stream(3, role, 0)
        with pytest.raises(ParameterError, match=rf"role .*got {role}$"):
            draw_set_batch(make_config("toy_analytic"), "prior", 5, 3, role=role)
        with pytest.raises(ParameterError, match="attempt index"):
            attempt_stream(3, 1, 2**32)

    @pytest.mark.parametrize("role", [2**32 - 1, np.int64(2**32 - 1)], ids=["int", "int64"])
    def test_the_top_role_reaches_the_last_stream_index(self, role):
        cfg = make_config("toy_analytic")
        draw = partial(scenarios._with_gamma_uniform, prepare_draw(cfg, "prior"))
        batch = draw_set_batch(cfg, "prior", 5, 3, role=role)
        # the share of the top attempts, its last one at stream index 2**64 - 1
        lo, hi, _, gammas = scenarios._task(draw, attempt_uniforms(draw), 3,
                                            range(2**64 - 3, 2**64))
        for attempts, rows in ((batch.attempt_indices, (batch.lo, batch.hi, batch.gamma_uniforms)),
                               (range(2**32 - 3, 2**32), (lo, hi, gammas))):
            for j, row in zip(attempts, zip(*rows)):
                rng = attempt_stream(3, role, j)
                interval = draw_set(cfg, "prior", rng)
                assert (interval.lo, interval.hi, rng.uniform()) == row

    @pytest.mark.parametrize("sid,mode,n", [
        ("toy_analytic", "prior", None),
        *((sid, mode, n) for sid in DATA_SCENARIOS for mode in _modes(sid) for n in (1, 2, 1000)),
    ])
    def test_an_attempt_reads_as_many_uniforms_whatever_they_are(self, monkeypatch, sid, mode,
                                                                  n):
        # run_attempts counts the uniforms m of an attempt, its gamma uniform
        # included, on a row of 0.5s; a stream's row must read m as well, as
        # inverse-CDF variates do
        cfg = make_config(sid, n=n)
        data = generate_data(cfg, attempt_stream(8, ROLE_DATA, 0)) if n else None
        draw = prepare_draw(cfg, mode, data)
        counts, task = [], scenarios._task
        monkeypatch.setattr(scenarios, "_task",
                            lambda draw, m, *args: counts.append(m) or task(draw, m, *args))
        run_attempts(draw, 1, 8, ROLE_PRIOR_SETS, 1, "count")
        (m,) = set(counts)
        rows = UniformRows(stream_uniforms(seed_words(8, np.arange(3)), m + 20))
        scenarios._with_gamma_uniform(draw, rows)
        assert rows.at == m

    @pytest.mark.parametrize("mode", ["prior", "posterior"])
    def test_censored_processes_read_the_attempt_stream_in_turn(self, mode):
        # an attempt's row is spec1's process, spec2's, then the gamma uniform
        cfg = make_config("interval_censored", n=30)
        data = generate_data(cfg, attempt_stream(6, ROLE_DATA, 0))
        batch = draw_set_batch(cfg, mode, 5, 6, dataset=data)
        role = ROLE_PRIOR_SETS if mode == "prior" else ROLE_POSTERIOR_SETS
        calls, n = [], 30 if mode == "posterior" else 0
        for i, column in enumerate(("y1", "y2")):
            n0, mu, var = (cfg.hyper[name][i] for name in ("n0", "base_mean", "base_var"))
            spec = DirichletProcessSpec(n0, ScalarNormal(mu, var))
            table = np.ascontiguousarray(data.column(column)[None]) if n else None
            # k sticks and the one variate of the atoms' mean, then rho and n data weights
            k = choose_truncation_level(n0, n)
            calls.append((spec, table, k + 1 + (n > 0) + (n if n > 1 else 0)))
        (spec1, t1, m1), (spec2, t2, m2) = calls
        for r, j in enumerate(batch.attempt_indices):
            u = attempt_stream(6, role, j).uniform(m1 + m2 + 1)[None]
            lo = process_means(spec1, UniformRows(u[:, :m1]), None, t1)
            hi = process_means(spec2, UniformRows(u[:, m1:m1 + m2]), None, t2)
            assert (batch.lo[r], batch.hi[r]) == (lo[0, 0], hi[0, 0])
            assert batch.gamma_uniforms[r] == u[0, -1]

    def test_batches_build_no_per_draw_interval(self, monkeypatch):
        built = []

        class CountingIntervalSet(IntervalSet):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(scenarios, "IntervalSet", CountingIntervalSet)
        cfg = make_config("interval_censored", n=30)
        data = generate_data(cfg, attempt_stream(9, ROLE_DATA, 0))
        draw_set_batch(cfg, "posterior", 50, 9, dataset=data)
        assert built == []
        draw_set(cfg, "posterior", attempt_stream(9, 2, 0), data)
        assert len(built) == 1


class TestPreparedDraws:
    @pytest.mark.parametrize("sid", SCENARIO_IDS)
    def test_prepared_attempt_matches_draw_set_and_pickles(self, sid):
        has_data = bool(scenarios.SCENARIOS[sid].columns)
        cfg = make_config(sid, n=50 if has_data else None)
        modes = ["prior"]
        data = None
        if has_data:
            modes.append("posterior")
            data = generate_data(cfg, attempt_stream(2, ROLE_DATA, 0))
        for mode in modes:
            attempt = prepare_draw(cfg, mode, data)
            shipped = pickle.loads(pickle.dumps(attempt))
            for j in range(5):
                want = draw_set(cfg, mode, attempt_stream(2, 7, j), data)
                assert scenarios._interval(*attempt(attempt_stream(2, 7, j))) == want
                assert scenarios._interval(*shipped(attempt_stream(2, 7, j))) == want

    def test_posterior_batch_counts_binary_cells_once(self, monkeypatch):
        cfg = make_config("binary_missing", n=100)
        data = generate_data(cfg, attempt_stream(4, ROLE_DATA, 0))
        calls = []

        def counting(dataset):
            calls.append(dataset)
            return count_binary(dataset)

        monkeypatch.setattr(scenarios, "count_binary", counting)
        batch = draw_set_batch(cfg, "posterior", 300, master_seed=4, dataset=data)
        assert len(batch) == 300
        assert len(calls) == 1
        marginal_sample(cfg, ConditionalPriorSpec("III"), "posterior", 300, 4, dataset=data)
        assert len(calls) == 2

    def test_data_tables_are_built_once_per_batch(self, monkeypatch):
        # each data table (a column as one row) is built once per batch, not per chunk
        tables = []
        means = scenarios.process_means
        monkeypatch.setattr(scenarios, "process_means",
                            lambda spec, source, features, table:
                            tables.append(table) or means(spec, source, features, table))
        cfg = make_config("interval_censored", n=50)
        data = generate_data(cfg, attempt_stream(4, ROLE_DATA, 0))
        draw_set_batch(cfg, "posterior", 300, master_seed=4, dataset=data)
        assert len(tables) > 2 and len({id(t) for t in tables}) == 2

    def test_prepared_binary_draw_keeps_its_parameters(self):
        cfg = make_config("binary_missing")
        draw = prepare_draw(cfg, "prior")
        want = scenarios._interval(*draw(attempt_stream(6, 1, 0)))
        cfg.hyper["alpha"][:] = [50.0, 1.0, 0.5]
        assert scenarios._interval(*draw(attempt_stream(6, 1, 0))) == want
        assert scenarios._interval(*prepare_draw(cfg, "prior")(attempt_stream(6, 1, 0))) != want

    def test_a_prepared_binary_draw_pickles_as_its_cell_parameters(self):
        # no quantile table travels with a share: each process keeps its own
        draw = prepare_draw(make_config("binary_missing"), "prior")
        assert len(pickle.dumps(draw)) < 200

    def test_prepare_raises_draw_set_errors(self):
        with pytest.raises(ParameterError, match="mode"):
            prepare_draw(make_config("binary_missing"), "sideways")
        with pytest.raises(ParameterError, match="dataset"):
            prepare_draw(make_config("binary_missing"), "posterior")
        cfg = make_config("errors_in_variables", n=10)
        cfg = dataclasses.replace(cfg, hyper={**cfg.hyper, "base_cov": -np.eye(2)})
        with pytest.raises(ParameterError, match="positive definite"):
            prepare_draw(cfg, "prior")


def _cpu_limit():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


class TestWorkerBound:
    def test_run_attempts_caps_the_pool_at_the_cpu_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        sizes = pool_sizes
        cfg = make_config("toy_analytic")
        want = draw_set_batch(cfg, "prior", 40, 6)
        got = draw_set_batch(cfg, "prior", 40, 6, workers=_cpu_limit() + 1)
        assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)
        assert sizes in ([], [_cpu_limit() - 1])  # no pool at all on one CPU

    def test_run_attempts_rejects_zero_workers(self):
        with pytest.raises(ParameterError, match="workers"):
            run_attempts(_skip_most, 5, 0, 1, 0, "test")

    def test_check_workers(self):
        limit = _cpu_limit()
        assert scenarios.max_workers() == limit
        assert scenarios.check_workers(limit) == limit
        for bad in (0, limit + 1):
            with pytest.raises(ParameterError, match="workers"):
                scenarios.check_workers(bad)

    def test_cpu_count_used_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert scenarios.max_workers() == 3


@pytest.fixture
def shares(monkeypatch):
    """The attempt ranges of the shares :func:`scenarios._task` computes, in call order."""
    calls, task = [], scenarios._task

    def counted_task(draw, m, master_seed, streams):
        calls.append(streams)
        return task(draw, m, master_seed, streams)

    monkeypatch.setattr(scenarios, "_task", counted_task)
    return calls


class TestPool:
    """The parent computes the first share of every block; a pool of
    ``workers - 1`` processes computes the others."""

    def test_the_parent_computes_the_first_share_of_each_block(self, monkeypatch, shares,
                                                               in_process_pool):
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        run_attempts(_skip_most, 40, 21, 1, 2, "synthetic")
        submitted = [streams for *_, streams in in_process_pool.submitted]
        parent = [streams for streams in shares if streams not in submitted]
        assert len(parent) > 1 and submitted
        assert parent[0] == range(2**32, 2**32 + 20)  # half of the first block
        # the shares tile the attempts, each block opened by a parent share
        tiles = sorted(shares, key=lambda streams: streams.start)
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
        assert all(streams.start in [p.stop for p in parent] for streams in submitted)
        assert len(submitted) <= len(parent)  # one pool share per block at workers 2
        assert in_process_pool.sizes == [1]

    def test_workers_1_runs_each_block_as_one_share_without_a_pool(self, monkeypatch, shares,
                                                                   in_process_pool):
        chunks = force_chunk_rows(monkeypatch, 7)
        indices = run_attempts(_skip_most, 40, 21, 1, 1, "synthetic")[0] + 2**32
        assert len(chunks) >= 10  # the first share alone spans 6
        assert shares[0] == range(2**32, 2**32 + 40)  # the whole first block
        assert all(a.stop == b.start for a, b in zip(shares, shares[1:]))
        for k, streams in enumerate(shares[1:]):  # a top-up block asks for at least `need`
            need = 40 - np.count_nonzero(indices < shares[k].stop)
            assert len(streams) >= need > 0
        assert shares[-1].start <= indices[-1] < shares[-1].stop
        assert in_process_pool.sizes == [] and in_process_pool.submitted == []

    def test_output_is_byte_identical_at_any_worker_count(self, monkeypatch, in_process_pool):
        """Share boundaries move with the worker count; the output does not.  A
        share runs its attempts in chunks."""
        monkeypatch.setattr(scenarios, "max_workers", lambda: 4)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        cfg = make_config("interval_censored", n=1000)
        data = generate_data(cfg, attempt_stream(5, ROLE_DATA, 0))
        # the rule's 64 rows a chunk against shares of 150 to 300 attempts;
        # _skip_most tops its blocks up after skips, in chunks of 7 rows
        for draw, n_draws, forced in [(prepare_draw(cfg, "posterior", data), 600, None),
                                      (_skip_most, 40, 7)]:
            if forced:
                chunks = force_chunk_rows(monkeypatch, forced)
            in_process_pool.submitted.clear()
            serial = run_attempts(draw, n_draws, 5, ROLE_POSTERIOR_SETS, 1, "s")
            assert len(serial[0]) == n_draws
            for workers in (2, 3, 4):
                pooled = run_attempts(draw, n_draws, 5, ROLE_POSTERIOR_SETS, workers, "s")
                for a, b in zip(serial[:4], pooled[:4]):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert serial[4] == pooled[4]
            rows = [len(streams) for *_, streams in in_process_pool.submitted]
            assert any(r >= 2 * chunk_rows(draw) for r in rows), rows
        assert serial[4] > 0 and len(set(rows)) > 1  # topped up
        assert len(chunks) >= 20
        assert in_process_pool.sizes == [1, 2, 3, 1, 2, 3]

    def test_every_array_a_draw_returns_is_kept_at_its_accepted_rows(self, monkeypatch,
                                                                      in_process_pool):
        # a fourth array rides through shares and 2-row chunks, the gamma uniform after it
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        chunks = force_chunk_rows(monkeypatch, 2)
        serial = run_attempts(_skip_most_with_extra, 40, 21, 1, 1, "synthetic")
        indices, lo, hi, extra, gammas, skipped = serial
        assert len(indices) == 40 and skipped > 0
        for j, row in zip(indices, zip(lo, extra, gammas)):
            assert tuple(attempt_stream(21, 1, j).uniform(3)) == row  # x, extra, gamma
        assert in_process_pool.submitted == []
        pooled = run_attempts(_skip_most_with_extra, 40, 21, 1, 2, "synthetic")
        assert in_process_pool.submitted
        for a, b in zip(serial[:5], pooled[:5]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert serial[5] == pooled[5]
        assert len(chunks) >= 20

    def test_a_share_carries_its_attempt_range_not_its_seed_words(self, monkeypatch,
                                                                  in_process_pool):
        # every toy attempt is accepted, so a batch is one block, and at
        # workers 2 it submits one share of half the block: 40 or 4000 attempts
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        draw = prepare_draw(make_config("toy_analytic"), "prior")
        sizes = []
        for n_draws in (80, 8000):
            in_process_pool.submitted.clear()
            run_attempts(draw, n_draws, 4, ROLE_PRIOR_SETS, 2, "toy")
            (args,) = in_process_pool.submitted
            sizes.append(len(pickle.dumps(args)))
        # seed words would add 32 bytes per attempt: 126720 bytes more
        assert sizes[1] <= sizes[0] + 16, sizes

    def test_a_share_peak_memory_does_not_grow_with_its_rows(self):
        # one chunk (64 rows at n=1000) against a 1000-row share of many chunks
        cfg = make_config("interval_regression", n=1000)
        data = generate_data(cfg, attempt_stream(3, ROLE_DATA, 0))
        draw = prepare_draw(cfg, "posterior", data)
        rows_cap = chunk_rows(draw)
        # the gamma column, a view of the share's one buffer, is copied chunk by chunk
        draw = partial(scenarios._with_gamma_uniform, draw)
        m = attempt_uniforms(draw)
        assert 1000 >= 10 * rows_cap
        peaks = []
        for rows in (rows_cap, 1000):
            tracemalloc.start()
            try:
                scenarios._task(draw, m, 3, range(rows))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("sid,mode", CHUNK_PEAK_KB)
    def test_a_chunk_draw_makes_each_temporary_once(self, sid, mode):
        # the traced peak of one 64-row chunk at n = 1000, its uniforms not
        # counted: each large temporary is made once and changed in place
        cfg = make_config(sid, n=1000)
        draw = prepare_draw(cfg, mode, generate_data(cfg, attempt_stream(3, ROLE_DATA, 0)))
        u = stream_uniforms(seed_words(3, np.arange(64)), attempt_uniforms(draw))
        draw(UniformRows(u))  # caches, such as the rho table, are filled outside the trace
        tracemalloc.start()
        try:
            draw(UniformRows(u))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CHUNK_PEAK_KB[sid, mode] * 1024, peak / 1024

    @pytest.mark.parametrize("sid,mode", CHUNK_PEAK_KB)
    @pytest.mark.parametrize("n", [1, 30, 1000])
    def test_a_draw_never_writes_its_uniforms(self, sid, mode, n):
        cfg = make_config(sid, n=n)
        draw = prepare_draw(cfg, mode, generate_data(cfg, attempt_stream(4, ROLE_DATA, 0)))
        u = stream_uniforms(seed_words(4, np.arange(5)), attempt_uniforms(draw))
        before = u.copy()
        u.setflags(write=False)
        draw(UniformRows(u))
        assert np.array_equal(u, before)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_uniforms_of_an_attempt_are_a_python_int(self, monkeypatch, in_process_pool,
                                                         workers):
        # m travels in every share's pickle; a numpy integer would be pickled too
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        counts, task = [], scenarios._task
        monkeypatch.setattr(scenarios, "_task",
                            lambda draw, m, *args: counts.append(m) or task(draw, m, *args))
        cfg = make_config("errors_in_variables", n=30)
        draw = prepare_draw(cfg, "posterior", generate_data(cfg, attempt_stream(5, ROLE_DATA, 0)))
        run_attempts(draw, 40, 5, ROLE_POSTERIOR_SETS, workers, "m")
        assert len(counts) == workers and all(type(m) is int for m in counts)
        assert all(type(sent.args[1]) is int for sent, _ in in_process_pool.submitted)
        assert len(in_process_pool.submitted) == workers - 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_draw_returning_views_of_its_uniforms_gives_the_same_bytes(self, monkeypatch,
                                                                         workers):
        # 101 uniforms an attempt make 324-row chunks, several to a share; each
        # chunk overwrites the share's one buffer, so _task copies every view of it
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        chunks = chunks_drawn(monkeypatch)
        views = run_attempts(_views, 2000, 4, 1, workers, "views")
        assert len(chunks) >= 3 and chunks[0] == (324, (324, 101))
        copies = run_attempts(_copies, 2000, 4, 1, workers, "copies")
        assert views[-1] == copies[-1] > 0
        for a, b in zip(views[:-1], copies[:-1]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        j = views[0][-1]
        assert views[3][-1] == attempt_stream(4, 1, j).uniform(3)[2]

    @pytest.mark.parametrize("sid,mode,rows", [
        ("toy_analytic", "prior", 10922),
        ("binary_missing", "prior", 10922),
        ("binary_missing", "posterior", 10922),
        ("interval_censored", "prior", 126),
        ("interval_censored", "posterior", 64),
        ("errors_in_variables", "prior", 65),
        ("errors_in_variables", "posterior", 64),
        ("interval_regression", "prior", 96),
        ("interval_regression", "posterior", 64),
    ])
    def test_chunk_rows_at_study_size(self, sid, mode, rows):
        has_data = bool(scenarios.SCENARIOS[sid].columns)
        cfg = make_config(sid)
        data = generate_data(cfg, attempt_stream(3, ROLE_DATA, 0)) if has_data else None
        draw = prepare_draw(cfg, mode, data)
        m = 1 + attempt_uniforms(draw)
        assert chunk_rows(draw) == rows
        assert rows * m <= 2**18  # below the buffer's cap

    def test_a_chunk_buffer_holds_at_most_2_18_uniforms_or_one_row(self, monkeypatch):
        for m in (1, 3, 16, 17, 260, 2262, 4096, 4097, 10**5, 2**18, 10**6):
            rows = scenarios.chunk_rows(m)
            assert rows >= 1 and rows * m <= max(2**18, m), m
            assert rows >= min(64, 2**18 // m)
        assert scenarios.chunk_rows(10**6) == 1
        # a share of long rows draws one row at a time into one buffer of one row
        chunks = chunks_drawn(monkeypatch)
        m = 300_000
        scenarios._task(partial(scenarios._with_gamma_uniform, _long_row), m, 2, range(3))
        assert chunks == [(1, (1, m))] * 3

    def test_a_block_is_split_from_the_threshold_up(self, monkeypatch, in_process_pool):
        # toy attempts read 3 uniforms, the gamma uniform included, and none skips
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 300)
        draw = prepare_draw(make_config("toy_analytic"), "prior")
        run_attempts(draw, 99, 4, ROLE_PRIOR_SETS, 2, "toy")
        assert in_process_pool.sizes == [] and in_process_pool.submitted == []
        run_attempts(draw, 100, 4, ROLE_PRIOR_SETS, 2, "toy")
        (args,) = in_process_pool.submitted
        base = ROLE_PRIOR_SETS << 32
        assert args[-1] == range(base + 50, base + 100) and in_process_pool.sizes == [1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_does_not_inherit_the_pool(self, monkeypatch, in_process_pool):
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        run_attempts(_skip_most, 10, 21, 1, 2, "synthetic")
        assert scenarios._pool
        pid = os.fork()
        if pid == 0:
            os._exit(0 if scenarios._pool == [] else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert scenarios._pool and in_process_pool.sizes == [1]

    @pytest.mark.skipif(not hasattr(os, "fork") or scenarios.max_workers() < 2,
                        reason="needs os.fork and two CPUs")
    def test_a_forked_child_does_not_hold_the_pool_open(self, monkeypatch):
        # the child's copies of the pipes' parent ends would keep the pool
        # processes from their EOF, and so the shutdown, while the child lives
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        run_attempts(_skip_most, 10, 21, 1, 2, "synthetic")
        pool = scenarios._pool  # held here, so that the child's copy is not collected
        pid = os.fork()
        if pid == 0:
            time.sleep(30)
            os._exit(0)
        try:
            start = time.monotonic()
            scenarios.shutdown_attempt_pool()
            assert time.monotonic() - start < 10 and not pool[0][1].is_alive()
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    @pytest.mark.skipif(not hasattr(os, "fork") or scenarios.max_workers() < 2,
                        reason="needs os.fork and two CPUs")
    def test_a_forked_child_leaves_the_pool_running_at_its_exit(self, tmp_path):
        # the child's exit runs multiprocessing's exit hook, which would end
        # the parent's pool processes if they were daemons
        # and, as the child's own, join them, which fails with a traceback
        stderr = _run_child(f"""
            import os, sys
            from partialid import scenarios
            from partialid.cli import RunConfig, run_scenario
            run_scenario(RunConfig(scenario="interval_censored", n=1000, n_draws=300,
                                   seed=3, workers=2, out_dir={str(tmp_path)!r}))
            pid = os.fork()
            if pid == 0:
                sys.exit()
            os.waitpid(pid, 0)
            ((_, process),) = scenarios._pool
            assert process.is_alive()
        """, timeout=60)
        assert "Traceback" not in stderr, stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux") or scenarios.max_workers() < 2,
                        reason="reads /proc; needs two CPUs")
    def test_the_pool_is_forked_whatever_the_default_start_method(self):
        # a pool process started by a fork server would be that server's child
        _run_child("""
            import multiprocessing, os
            from partialid import make_config, prepare_draw, scenarios
            multiprocessing.set_start_method("forkserver")
            scenarios.POOL_UNIFORMS = 0
            draw = prepare_draw(make_config("binary_missing"), "prior")
            scenarios.run_attempts(draw, 20, 3, 1, 2, "prior")
            ((_, process),) = scenarios._pool
            with open(f"/proc/{process.pid}/stat") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
            assert parent == os.getpid(), (parent, os.getpid())
        """, timeout=60)

    @pytest.mark.skipif(scenarios.max_workers() < 2, reason="needs two CPUs")
    def test_a_failed_block_leaves_no_reply_unread(self, monkeypatch):
        # attempt 0, in this process's share, fails while the pool runs 20 to 39
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        draw = partial(_slow_elsewhere, os.getpid(), attempt_stream(21, 1, 0).uniform())
        with pytest.raises(ParameterError, match="attempt 0 drew"):
            run_attempts(draw, 40, 21, 1, 2, "synthetic")
        ((end, process),) = pool = scenarios._pool
        assert process.is_alive() and not end.poll()
        # a reply left unread would stand in for the next block's share
        serial = run_attempts(_skip_most, 40, 22, 1, 1, "synthetic")
        pooled = run_attempts(_skip_most, 40, 22, 1, 2, "synthetic")
        for a, b in zip(serial[:4], pooled[:4]):
            assert a.tobytes() == b.tobytes()
        assert serial[4] == pooled[4] and scenarios._pool is pool

    def test_an_interrupted_read_drops_the_pool(self, monkeypatch, in_process_pool):
        # the unread reply would stand in for the next block's share
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        run_attempts(_skip_most, 40, 21, 1, 2, "synthetic")
        ((end, _),) = pool = scenarios._pool

        def interrupted():
            del end.recv  # the next read is the end's own
            raise KeyboardInterrupt

        end.recv = interrupted
        with pytest.raises(KeyboardInterrupt):
            run_attempts(_skip_most, 40, 21, 1, 2, "synthetic")
        assert scenarios._pool == [] and in_process_pool.shut == [pool]
        serial = run_attempts(_skip_most, 40, 22, 1, 1, "synthetic")
        pooled = run_attempts(_skip_most, 40, 22, 1, 2, "synthetic")
        for a, b in zip(serial[:4], pooled[:4]):
            assert a.tobytes() == b.tobytes()
        assert serial[4] == pooled[4] and in_process_pool.sizes == [1, 1]

    @pytest.mark.skipif(scenarios.max_workers() < 2, reason="needs two CPUs")
    def test_an_interrupted_read_leaves_no_reply_for_the_next_block(self, monkeypatch):
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        run_attempts(_skip_most, 40, 21, 1, 2, "synthetic")  # the pool is forked unpatched
        recv = Connection.recv

        def interrupted(end):
            monkeypatch.setattr(Connection, "recv", recv)
            raise KeyboardInterrupt

        monkeypatch.setattr(Connection, "recv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_attempts(_skip_most, 40, 21, 1, 2, "synthetic")
        serial = run_attempts(_skip_most, 40, 22, 1, 1, "synthetic")
        pooled = run_attempts(_skip_most, 40, 22, 1, 2, "synthetic")
        for a, b in zip(serial[:4], pooled[:4]):
            assert a.tobytes() == b.tobytes()
        assert serial[4] == pooled[4]

    def test_an_os_error_of_the_parents_share_is_not_a_lost_share(self, monkeypatch, caplog,
                                                                  in_process_pool):
        # attempt 0, in this process's share, raises the error a dead pool process would
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        draw = partial(_raise_at, attempt_stream(21, 1, 0).uniform(), error=OSError)
        with pytest.raises(OSError, match="past the last acceptance"):
            run_attempts(draw, 40, 21, 1, 2, "synthetic")
        assert "lost a share" not in caplog.text
        assert scenarios._pool and in_process_pool.shut == []
        (args,) = in_process_pool.submitted  # the pool's share ran once, and was read
        assert not any(end.replies for end, _ in scenarios._pool)

    def test_a_failed_parents_share_still_runs_a_lost_share_here(self, monkeypatch, caplog,
                                                                 in_process_pool):
        # every reply of a block is read before its error is raised, so a
        # share whose process died is run here, and the dead pool dropped
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        run_attempts(_skip_most, 40, 21, 1, 2, "synthetic")
        ((end, _),) = pool = scenarios._pool

        def dead():
            raise EOFError("the pool's process died")

        end.recv = dead
        draw = partial(_raise_at, attempt_stream(21, 1, 0).uniform())
        with pytest.raises(RuntimeError, match="past the last acceptance"):
            run_attempts(draw, 40, 21, 1, 2, "synthetic")
        assert caplog.text.count("the attempt pool lost a share") == 1
        assert scenarios._pool == [] and in_process_pool.shut == [pool]
        serial = run_attempts(_skip_most, 40, 22, 1, 1, "synthetic")
        pooled = run_attempts(_skip_most, 40, 22, 1, 2, "synthetic")
        for a, b in zip(serial[:4], pooled[:4]):
            assert a.tobytes() == b.tobytes()
        assert serial[4] == pooled[4] and in_process_pool.sizes == [1, 1]

    @pytest.mark.skipif(scenarios.max_workers() < 2, reason="needs two CPUs")
    def test_a_live_pool_runs_no_thread(self, monkeypatch):
        # so Python 3.12's warning about forking a process with threads cannot
        # come from the pool
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        threads = threading.active_count()
        run_attempts(_skip_most, 40, 21, 1, 2, "synthetic")
        ((_, process),) = scenarios._pool
        assert process.is_alive() and threading.active_count() == threads

    @pytest.mark.skipif(scenarios.max_workers() < 2, reason="needs two CPUs")
    def test_a_pool_of_two_processes_shuts_down(self, tmp_path):
        # a pool process that kept a copy of the parent's end of its own pipe,
        # or of an earlier sibling's, would wait for its EOF at shutdown forever
        _run_child(f"""
            from partialid import scenarios
            from partialid.cli import RunConfig, run_scenario
            scenarios.max_workers = lambda: 3
            run_scenario(RunConfig(scenario="interval_censored", n=1000, n_draws=300,
                                   seed=3, workers=3, out_dir={str(tmp_path)!r}))
            assert len(scenarios._pool) == 2, scenarios._pool
            scenarios.shutdown_attempt_pool()
        """, timeout=60)

    @pytest.mark.skipif(scenarios.max_workers() < 2, reason="needs two CPUs")
    def test_no_process_outlives_the_interpreter(self, tmp_path, monkeypatch):
        """A real pool, including a block whose pool share is past the last
        acceptance, lives until its interpreter exits, and no process
        outlives that."""
        # this process's shares sent, replies read and each role's last acceptance
        sent, read, last = [], [], {}
        send, recv, run = Connection.send, Connection.recv, scenarios.run_attempts
        monkeypatch.setattr(Connection, "send",
                            lambda end, obj: sent.append(obj) or send(end, obj))
        monkeypatch.setattr(Connection, "recv", lambda end: read.append(end) or recv(end))

        def run_attempts(*args):
            result = run(*args)
            last[args[3]] = result[0][-1]
            return result

        monkeypatch.setattr(scenarios, "run_attempts", run_attempts)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        monkeypatch.setattr(scenarios, "prepare_draw", lambda *args: _skip_most)
        with pytest.warns(UserWarning, match="skipped"):
            report = run_scenario(RunConfig(scenario="toy_analytic", n=None, n_draws=10,
                                            seed=21, workers=2, out_dir=str(tmp_path)))
        assert report.skips["prior_sets"] > 0
        past = [streams for _, streams in sent
                if streams.start % 2**32 > last[streams.start >> 32]]
        assert past and len(read) == len(sent)  # a share past the last acceptance, read,
        assert not any(end.poll() for end, _ in scenarios._pool)  # and no reply left

        # two runs share the pool the first one starts; it is still up at exit
        _run_child(f"""
            from partialid import scenarios
            from partialid.cli import RunConfig, run_scenario
            pools = []
            for sid in ("interval_censored", "errors_in_variables"):
                run_scenario(RunConfig(scenario=sid, n=1000, n_draws=200, seed=3,
                                       workers=2, out_dir={str(tmp_path)!r}))
                pools.append(scenarios._pool)
            assert pools[0] and pools[1] is pools[0], pools
        """, timeout=120)


def _run_child(code: str, timeout: float) -> str:
    """Run ``code`` in a new interpreter within ``timeout`` seconds, check
    that it succeeds and that no process of its session outlives it, and
    return what it wrote to stderr."""
    src = str(Path(scenarios.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = subprocess.Popen([sys.executable, "-c", textwrap.dedent(code)], env=env,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = child.communicate(timeout=timeout)
        assert child.returncode == 0, stderr
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)  # the child's session holds no process
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
    return stderr


class TestToyOracles:
    def test_coverage_values(self):
        assert analytic_coverage_toy(0.5) == 0.5
        assert analytic_coverage_toy(1.0) == 1.0
        assert analytic_coverage_toy(2.5) == 0.0
        assert analytic_coverage_toy(-0.5) == 0.0

    def test_coverage_is_zero_at_infinity_and_rejects_nan(self):
        # the coverage is 0 outside [0, 2], so only NaN has no value
        assert analytic_coverage_toy(np.inf) == 0.0
        assert analytic_coverage_toy(-np.inf) == 0.0
        for gamma in (np.nan, [0.5, np.nan]):
            with pytest.raises(ParameterError, match="gamma must not be NaN"):
                analytic_coverage_toy(gamma)

    def test_coverage_vectorized(self):
        grid = np.array([-1.0, 0.25, 1.0, 1.75, 2.0, 3.0])
        np.testing.assert_allclose(
            analytic_coverage_toy(grid), [0.0, 0.25, 1.0, 0.25, 0.0, 0.0]
        )

    def test_capacity_values(self):
        # derived from independence of the two uniform endpoints
        assert analytic_capacity_toy(IntervalSet(0.2, 0.3)) == pytest.approx(0.3)
        assert analytic_capacity_toy(IntervalSet(1.5, 1.8)) == pytest.approx(0.5)
        assert analytic_capacity_toy(IntervalSet(0.9, 1.1)) == 1.0

    def test_capacity_monte_carlo_cross_check(self):
        cfg = make_config("toy_analytic")
        batch = draw_set_batch(cfg, "prior", 10_000, master_seed=6)
        from partialid import estimate_capacity

        for probe in (IntervalSet(0.2, 0.3), IntervalSet(1.5, 1.8), IntervalSet(0.9, 1.1)):
            mc = estimate_capacity(batch, probe)
            assert abs(mc - analytic_capacity_toy(probe)) < 0.02


class TestBinaryPointEstimate:
    def test_matches_closed_form_posterior_means(self):
        # the mean endpoints over Dirichlet draws estimate the exact posterior
        # means (a1 + n1)/(abar + n) and (a1 + a3 + n1 + m)/(abar + n)
        from partialid import point_estimate_set

        cfg = make_config("binary_missing", n=1000)
        data = generate_data(cfg, attempt_stream(8, ROLE_DATA, 0))
        counts = count_binary(data)
        astar = binary_posterior_params(cfg.hyper["alpha"], counts)
        total = astar.sum()
        lo_exact = astar[0] / total
        hi_exact = (astar[0] + astar[2]) / total
        batch = draw_set_batch(cfg, "posterior", 4000, master_seed=8, dataset=data)
        pe = point_estimate_set(batch)
        se_lo = batch.lo.std() / np.sqrt(len(batch))
        se_hi = batch.hi.std() / np.sqrt(len(batch))
        assert abs(pe.lo - lo_exact) < 3 * se_lo
        assert abs(pe.hi - hi_exact) < 3 * se_hi


class TestBinaryCoverageOracle:
    def test_boundary_values(self):
        assert analytic_coverage_binary(0.0, (2.0, 3.0, 1.0)) == 0.0
        assert analytic_coverage_binary(1.0, (2.0, 3.0, 1.0)) == 0.0

    def test_against_monte_carlo(self):
        # oracle cross-check with numpy's own Dirichlet sampler
        alpha = np.array([2.0, 3.0, 1.0])
        gen = np.random.default_rng(14)
        cells = gen.dirichlet(alpha, size=1_000_000)
        lo = cells[:, 0]
        hi = cells[:, 0] + cells[:, 2]
        mc = np.mean((lo <= 0.4) & (0.4 <= hi))
        assert abs(analytic_coverage_binary(0.4, alpha) - mc) < 0.003

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            analytic_coverage_binary(1.5, (2.0, 3.0, 1.0))
        with pytest.raises(ParameterError):
            analytic_coverage_binary(0.5, (2.0, 3.0))

    @pytest.mark.parametrize("gamma", [np.nan, [0.5, np.nan]])
    def test_nan_gamma_rejected(self, gamma):
        with pytest.raises(ParameterError, match=r"gamma must lie in \[0, 1\]"):
            analytic_coverage_binary(gamma, (2.0, 3.0, 1.0))

    @pytest.mark.parametrize("alpha", BAD_CELLS)
    def test_bad_alpha(self, alpha):
        with pytest.raises(ParameterError, match="alpha|Dirichlet parameters"):
            analytic_coverage_binary(0.5, alpha)


def _dkw_sup(x, cdf):
    """sup |F_n - F| of the sample ``x`` against the continuous CDF ``cdf``."""
    f = cdf(np.sort(x))
    n = len(x)
    return max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())


class TestBinaryTwoBetaDraw:
    """[p1, p1 + p3] of a Dirichlet(a1, a2, a3) draw, as ``hi`` ~ Beta(a1 + a3,
    a2) times an independent Beta(a1, a3)."""

    N, DELTA = 20000, 1e-6

    @pytest.mark.parametrize("mode", ["prior", "posterior"])
    def test_endpoints_and_ratio_follow_their_beta_laws(self, mode):
        from partialid.distributions import beta_cdf

        cfg = make_config("binary_missing", n=300)
        data = generate_data(cfg, attempt_stream(12, ROLE_DATA, 0))
        a1, a2, a3 = (cfg.hyper["alpha"] if mode == "prior" else
                      binary_posterior_params(cfg.hyper["alpha"], count_binary(data)))
        batch = draw_set_batch(cfg, mode, self.N, 12, dataset=data)
        # Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > eps) <= 2 exp(-2 N eps^2)
        eps = np.sqrt(np.log(2 / self.DELTA) / (2 * self.N))
        for x, a, b in ((batch.lo, a1, a2 + a3), (batch.hi, a1 + a3, a2),
                        (batch.lo / batch.hi, a1, a3)):
            assert _dkw_sup(x, lambda t: beta_cdf(t, a, b)) < eps

    def test_a_row_is_two_betas_then_the_gamma_uniform(self):
        # TestBlockEquivalence checks that each row is its own draw_set
        from partialid.distributions import beta_quantile

        cfg = make_config("binary_missing")
        a1, a2, a3 = cfg.hyper["alpha"]
        batch = draw_set_batch(cfg, "prior", 20, 13)
        for r, j in enumerate(batch.attempt_indices):
            u = attempt_stream(13, ROLE_PRIOR_SETS, j).uniform(3)
            hi = beta_quantile(a1 + a3, a2, u[0])
            assert (batch.lo[r], batch.hi[r], batch.gamma_uniforms[r]) == (
                hi * beta_quantile(a1, a3, u[1]), hi, u[2])

    @pytest.mark.parametrize("mode", ["prior", "posterior"])
    def test_a_second_batch_of_the_same_shapes_builds_no_table(self, mode, monkeypatch):
        from scipy import special

        cfg = make_config("binary_missing", n=300)
        data = generate_data(cfg, attempt_stream(14, ROLE_DATA, 0))
        first = draw_set_batch(cfg, mode, 500, 14, dataset=data)
        calls, betaincinv = [], special.betaincinv
        monkeypatch.setattr(special, "betaincinv",
                            lambda *args: calls.append(args) or betaincinv(*args))
        second = draw_set_batch(cfg, mode, 500, 15, dataset=data)
        assert calls == [] and np.all((0 <= second.lo) & (second.lo <= second.hi))
        assert len(first) == len(second) == 500

    @pytest.mark.parametrize("mode", ["prior", "posterior"])
    @pytest.mark.parametrize("alpha", [*BAD_CELLS, [2.0, 3.0, 1.0, 4.0]])
    def test_alpha_is_checked_in_both_modes(self, mode, alpha):
        cfg = make_config("binary_missing", n=20)
        data = generate_data(cfg, attempt_stream(3, ROLE_DATA, 0))
        cfg = dataclasses.replace(cfg, hyper={"alpha": alpha})
        with pytest.raises(ParameterError, match="alpha|Dirichlet parameters"):
            prepare_draw(cfg, mode, data)
