import dataclasses
import os
import pickle
from functools import partial

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
    load_dataset,
    make_config,
)
from partialid import scenarios
from partialid.priors import ConditionalPriorSpec, marginal_sample
from partialid.scenarios import (
    ROLE_DATA,
    ROLE_POSTERIOR_SETS,
    ROLE_PRIOR_SETS,
    SCENARIO_IDS,
    PreparedDraw,
    attempt_stream,
    default_grid,
    prepare_draw,
    run_attempts,
)


class TestMakeConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ParameterError):
            make_config("nosuch")

    def test_toy_takes_no_sample_size(self):
        with pytest.raises(ParameterError):
            make_config("toy_analytic", n=50)
        assert make_config("toy_analytic").n == 0

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

    def test_grid_defaults(self):
        assert default_grid("toy_analytic")[-1] == 2.5
        assert default_grid("binary_missing").size == 21
        assert default_grid("interval_regression")[0] == -1.0
        cfg = make_config("binary_missing", grid=np.linspace(0, 1, 101))
        assert cfg.grid.size == 101

    @pytest.mark.parametrize("grid", [[0.5], [[0.0, 1.0]], [0.0, 0.0, 1.0], [1.0, 0.0],
                                      [0.0, np.nan, 1.0]])
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ParameterError, match="strictly increasing"):
            make_config("binary_missing", grid=grid)


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

    def test_csv_round_trip(self, tmp_path):
        cfg = make_config("interval_regression", n=50)
        data = generate_data(cfg, attempt_stream(2, ROLE_DATA, 0))
        path = tmp_path / "data.csv"
        data.to_csv(path)
        back = load_dataset(path, "interval_regression")
        assert back.columns == data.columns
        np.testing.assert_allclose(back.values, data.values, rtol=1e-11)

    def test_csv_wrong_columns_rejected(self, tmp_path):
        cfg = make_config("binary_missing", n=10)
        data = generate_data(cfg, attempt_stream(2, ROLE_DATA, 0))
        path = tmp_path / "data.csv"
        data.to_csv(path)
        with pytest.raises(ParameterError):
            load_dataset(path, "interval_censored")

    @pytest.mark.parametrize("scenario_id", ["toy_analytic", "no_such_scenario"])
    def test_csv_needs_a_data_scenario(self, tmp_path, scenario_id):
        cfg = make_config("binary_missing", n=10)
        path = tmp_path / "data.csv"
        generate_data(cfg, attempt_stream(2, ROLE_DATA, 0)).to_csv(path)
        with pytest.raises(ParameterError, match=scenario_id):
            load_dataset(path, scenario_id)

    @pytest.mark.parametrize("body", ["0,abc\n", "0,1\n0\n"])
    def test_csv_malformed_row_rejected(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text("yd,d\n" + body, encoding="utf-8")
        with pytest.raises(ParameterError, match="data.csv"):
            load_dataset(path, "binary_missing")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n", " \n\n"])
    def test_csv_without_rows_rejected(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text("yd,d\n" + body, encoding="utf-8")
        with pytest.raises(ParameterError, match=r"data\.csv has no rows"):
            load_dataset(path, "binary_missing")

    def test_csv_writes_each_value_as_twelve_digits(self, tmp_path):
        values = np.array([[-0.0, 5e-324], [1e-300, 1e300], [1e12, 123456789012345.0],
                           [0.1, -2.5]])
        path = tmp_path / "data.csv"
        Dataset("interval_censored", ("y1", "y2"), values).to_csv(path)
        expected = "y1,y2\n" + "".join(
            ",".join("{:.12g}".format(float(x)) for x in row) + "\n" for row in values)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_csv_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y1,y2\n0.1,5.0\nnan,4.9\n", encoding="utf-8")
        with pytest.raises(ParameterError, match="non-finite value in row 1, column y1"):
            load_dataset(path, "interval_censored")


class TestCountBinary:
    def make(self, rows):
        from partialid.scenarios import Dataset

        return Dataset("binary_missing", ("yd", "d"), np.array(rows, dtype=float))

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

    def test_bad_alpha(self):
        with pytest.raises(ParameterError):
            binary_posterior_params([2.0, -3.0, 1.0], BinaryCounts(0, 0, 0))


def _rows(*pairs):
    """Weights and atoms arrays of (weight, atom) pairs: one process draw."""
    weights, atoms = zip(*pairs)
    return np.array(weights, dtype=float), np.array(atoms, dtype=float)


class TestBoundsFunctionals:
    def test_censoring_rows_order(self):
        m1 = _rows((0.5, 0.0), (0.5, 2.0))
        m2 = _rows((1.0, 5.0))
        assert scenarios._censoring_rows(*m1, *m2) == (1.0, 5.0, True)
        assert scenarios._censoring_rows(*m2, *m1) == (5.0, 1.0, False)

    def test_reverse_regression_degenerate_correlated_atoms(self):
        m = _rows((0.5, [1.0, 1.0]), (0.5, [-1.0, -1.0]))
        assert scenarios._reverse_regression_rows(*m) == (1.0, 1.0, True)

    def test_reverse_regression_sign_guard(self):
        m = _rows((0.5, [1.0, -1.0]), (0.5, [-1.0, 1.0]))
        assert scenarios._reverse_regression_rows(*m) == (-1.0, -1.0, False)

    def test_instrument_ratio_guard(self):
        # E[zx] < 0 must be skipped
        m = _rows((0.5, [1.0, 2.0, 1.0, -1.0]), (0.5, [1.0, 2.0, 1.0, -1.0]))
        assert scenarios._instrument_ratio_rows(*m) == (1.0, 2.0, False)

    def test_instrument_ratio_values(self):
        m = _rows((1.0, [1.0, 2.0, 1.0, 1.0]))
        assert scenarios._instrument_ratio_rows(*m) == (1.0, 2.0, True)

    def test_instrument_ratio_inversion_guard(self):
        m = _rows((1.0, [2.0, 1.0, 1.0, 1.0]))
        assert scenarios._instrument_ratio_rows(*m) == (2.0, 1.0, False)


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


def _skip_most(sources):
    """A synthetic draw that skips four attempts in five."""
    x = sources[()].uniform()
    return x, x, x >= 0.8


SKIP_MOST = PreparedDraw({(): 1}, _skip_most)


def _nan_at(poison, sources):
    """SKIP_MOST with the attempt that draws ``poison`` accepted as a NaN interval."""
    lo, hi, accept = _skip_most(sources)
    hit = lo == poison
    return np.where(hit, np.nan, lo), hi, accept | hit


def _raise_at(poison, sources):
    """SKIP_MOST, raising for a chunk that holds the attempt that draws ``poison``."""
    lo, hi, accept = _skip_most(sources)
    if np.any(lo == poison):
        raise RuntimeError("a chunk past the last acceptance")
    return lo, hi, accept


class TestDrawSetBatch:
    def test_skip_accounting_identity(self):
        cfg = make_config("errors_in_variables", n=200)
        batch = draw_set_batch(cfg, "prior", 300, master_seed=11)
        assert len(batch) == 300
        last = batch.attempt_indices[-1]
        assert last + 1 == len(batch) + batch.skipped

    def test_worker_invariance(self):
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

    def test_all_skip_batch_builds_few_seed_blocks(self, monkeypatch):
        # top-up blocks grow with the skip rate instead of one block per attempt
        built = []

        class CountingSeedBlock(scenarios.SeedBlock):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scenarios, "SeedBlock", CountingSeedBlock)
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
        # 14 uniforms make chunks of 7 rows, so blocks span many chunks
        for chunk_uniforms in (scenarios.CHUNK_UNIFORMS, 14):
            monkeypatch.setattr(scenarios, "CHUNK_UNIFORMS", chunk_uniforms)
            indices, lo, hi, gammas, skipped = run_attempts(SKIP_MOST, 40, 21, 1, 1, "synthetic")
            assert indices.tolist() == [i for i, _, _ in expected]
            assert lo.tolist() == hi.tolist() == [u for _, u, _ in expected]
            assert gammas.tolist() == [g for _, _, g in expected]
            assert skipped == j - 40

    def test_attempts_past_the_last_acceptance_are_not_consumed(self, monkeypatch,
                                                                 pool_sizes):
        indices = run_attempts(SKIP_MOST, 10, 21, 1, 1, "synthetic")[0]
        last = attempt_stream(21, 1, indices[-1]).uniform()
        late = attempt_stream(21, 1, indices[-1] + 1).uniform()
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        monkeypatch.setattr(scenarios, "CHUNK_UNIFORMS", 2)  # one attempt per chunk
        for workers in (1, 2):
            # a bad row is masked in its chunk; only a consumed one raises
            late_nan = PreparedDraw({(): 1}, partial(_nan_at, late))
            assert np.array_equal(run_attempts(late_nan, 10, 21, 1, workers, "synthetic")[0],
                                  indices)
            last_nan = PreparedDraw({(): 1}, partial(_nan_at, last))
            with pytest.raises(ParameterError, match=f"attempt {indices[-1]} drew"):
                run_attempts(last_nan, 10, 21, 1, workers, "synthetic")
        # the pool runs a task past the last acceptance and drops its error
        late_raise = PreparedDraw({(): 1}, partial(_raise_at, late))
        assert np.array_equal(run_attempts(late_raise, 10, 21, 1, 2, "synthetic")[0], indices)
        with pytest.raises(RuntimeError, match="past the last acceptance"):
            run_attempts(late_raise, 11, 21, 1, 2, "synthetic")
        assert pool_sizes == [2, 2, 2, 2]

    def test_pool_tasks_span_chunks(self, monkeypatch, pool_sizes):
        """A pool task runs its attempts in chunks; the output is the serial one."""
        tasks, task = [], scenarios._task  # (rows, rows_cap) of each pool task

        def counted_task(prepared, seeds, rows_cap):
            tasks.append((seeds.stop - seeds.start, rows_cap))
            return task(prepared, seeds, rows_cap)

        monkeypatch.setattr(scenarios, "_task", counted_task)
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        cfg = make_config("interval_censored", n=1000)
        data = generate_data(cfg, attempt_stream(5, ROLE_DATA, 0))
        # about 24 rows a chunk against 50-attempt tasks; SKIP_MOST tops its
        # blocks up after skips, and 14 uniforms make its chunks 7 rows
        for prepared, n_draws, chunk_uniforms in [
                (prepare_draw(cfg, "posterior", data), 200, scenarios.CHUNK_UNIFORMS),
                (SKIP_MOST, 40, 14)]:
            monkeypatch.setattr(scenarios, "CHUNK_UNIFORMS", chunk_uniforms)
            tasks.clear()
            serial = run_attempts(prepared, n_draws, 5, ROLE_POSTERIOR_SETS, 1, "s")
            pooled = run_attempts(prepared, n_draws, 5, ROLE_POSTERIOR_SETS, 2, "s")
            assert len(serial[0]) == n_draws
            for a, b in zip(serial[:4], pooled[:4]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert serial[4] == pooled[4]
            assert any(rows >= 2 * rows_cap for rows, rows_cap in tasks), tasks
        assert pooled[4] > 0 and len({rows for rows, _ in tasks}) > 1  # topped up
        assert pool_sizes == [2, 2]

    def test_posterior_batch_concentrates(self):
        cfg = make_config("interval_censored", n=400)
        data = generate_data(cfg, attempt_stream(13, ROLE_DATA, 0))
        batch = draw_set_batch(cfg, "posterior", 200, master_seed=13, dataset=data)
        assert abs(np.mean(batch.lo)) < 0.3
        assert abs(np.mean(batch.hi) - 5.0) < 0.6


def _modes(sid):
    return ("prior", "posterior") if scenarios.SCENARIOS[sid].columns else ("prior",)


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
        widest = 1 + max(prepare_draw(cfg, mode, data).layout.values())
        monkeypatch.setattr(scenarios, "CHUNK_UNIFORMS", 7 * widest)
        batch = draw_set_batch(cfg, mode, 40, 9, dataset=data)
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
                assert attempt(attempt_stream(2, 7, j)) == want
                assert shipped(attempt_stream(2, 7, j)) == want

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

    def test_dirichlet_parameters_are_checked_once_per_batch(self, monkeypatch):
        from partialid import dirichlet, distributions

        built = []

        class CountingParams(distributions.DirichletParams):
            def __init__(self, alpha):
                built.append(len(alpha))
                super().__init__(alpha)

        for module in (distributions, dirichlet, scenarios):
            monkeypatch.setattr(module, "DirichletParams", CountingParams)
        dirichlet._data_weight_params.cache_clear()
        cfg = make_config("binary_missing", n=100)
        data = generate_data(cfg, attempt_stream(4, ROLE_DATA, 0))
        draw_set_batch(cfg, "posterior", 300, master_seed=4, dataset=data)
        assert built == [3]
        cfg = make_config("interval_censored", n=50)
        data = generate_data(cfg, attempt_stream(4, ROLE_DATA, 0))
        draw_set_batch(cfg, "posterior", 20, master_seed=4, dataset=data)
        assert built == [3, 50]  # the data weights, shared by both processes
        dirichlet._data_weight_params.cache_clear()

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
    def test_run_attempts_caps_the_pool_at_the_cpu_count(self, pool_sizes):
        sizes = pool_sizes
        cfg = make_config("toy_analytic")
        want = draw_set_batch(cfg, "prior", 40, 6)
        got = draw_set_batch(cfg, "prior", 40, 6, workers=_cpu_limit() + 1)
        assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)
        assert sizes in ([], [_cpu_limit()])  # no pool at all on one CPU

    def test_run_attempts_rejects_zero_workers(self):
        with pytest.raises(ParameterError, match="workers"):
            run_attempts(SKIP_MOST, 5, 0, 1, 0, "test")

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


class TestToyOracles:
    def test_coverage_values(self):
        assert analytic_coverage_toy(0.5) == 0.5
        assert analytic_coverage_toy(1.0) == 1.0
        assert analytic_coverage_toy(2.5) == 0.0
        assert analytic_coverage_toy(-0.5) == 0.0

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
