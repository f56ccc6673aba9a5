import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from partialid import ParameterError, scenarios
from partialid.cli import _fmt, _rows, build_parser, main, parse_config, run_scenario, RunConfig
from test_golden import GOLDEN, _run as golden_run


def parse_run(argv):
    args = build_parser().parse_args(["run"] + argv)
    return parse_config(args)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestParseConfig:
    def test_interval_censored_defaults(self):
        cfg = parse_run(["--scenario", "interval_censored", "--seed", "7"])
        assert cfg.scenario == "interval_censored"
        assert cfg.n is None  # the default sample size is filled downstream
        assert cfg.n_draws == 1000
        assert cfg.seed == 7
        assert cfg.alpha == 0.95
        assert cfg.workers == 1
        assert cfg.grid is None  # scenario default [-3, 12] filled downstream
        from partialid import make_config

        sc_cfg = make_config(cfg.scenario, n=cfg.n, grid=cfg.grid)
        assert sc_cfg.n == 1000
        assert sc_cfg.hyper["n0"] == (10.0, 20.0)
        assert sc_cfg.grid[0] == -3.0 and sc_cfg.grid[-1] == 12.0

    def test_sample_size_defaults_to_none(self):
        assert RunConfig(scenario="toy_analytic").n is None

    def test_unknown_scenario_names_token(self, capsys):
        rc = main(["run", "--scenario", "nosuch"])
        assert rc == 2
        assert "nosuch" in capsys.readouterr().err

    def test_toy_with_sample_size_rejected(self, capsys):
        rc = main(["run", "--scenario", "toy_analytic", "--n", "50"])
        assert rc == 2
        assert "no data" in capsys.readouterr().err

    def test_toy_with_prior_family_rejected(self, capsys):
        rc = main(["run", "--scenario", "toy_analytic", "--prior-family", "III"])
        assert rc == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# flat key = value config\n"
            "scenario = binary_missing\n"
            "n = 250\n"
            "n_draws = 64\n"
            "seed = 5\n"
            "alpha = 0.9\n",
            encoding="utf-8",
        )
        cfg = parse_run(["--config", str(cfg_file), "--seed", "9"])
        assert cfg.scenario == "binary_missing"
        assert cfg.n == 250
        assert cfg.n_draws == 64
        assert cfg.seed == 9  # flag wins over file
        assert cfg.alpha == 0.9

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scenario = binary_missing\nbogus = 1\n", encoding="utf-8")
        rc = main(["run", "--config", str(cfg_file)])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_file_is_an_error_not_a_traceback(self, tmp_path, capsys,
                                                                 case):
        path = tmp_path / "run.cfg"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b"scenario = binary_missing\n# \xff\xfe\n")
        with pytest.raises(ParameterError, match="run.cfg"):
            parse_run(["--config", str(path)])
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_grid_override(self):
        cfg = parse_run(["--scenario", "binary_missing", "--grid", "0", "1", "0.01"])
        assert cfg.grid.size == 101
        assert cfg.grid[0] == 0.0 and cfg.grid[-1] == 1.0

    @pytest.mark.parametrize("grid", [("0", "1e308", "1e-10"), ("0", "inf", "1"),
                                      ("0", "1", "1e-300")],
                             ids=["span_overflows", "infinite_hi", "tiny_step"])
    def test_unallocatable_grid_is_an_error_not_a_traceback(self, capsys, grid):
        args = ["--scenario", "toy_analytic", "--grid", *grid]
        with pytest.raises(ParameterError, match="grid spec"):
            parse_run(args)
        assert main(["run", *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_values(self, capsys):
        assert main(["run", "--scenario", "binary_missing", "--alpha", "1.5"]) == 2
        assert main(["run", "--scenario", "binary_missing", "--n-draws", "0"]) == 2
        assert main(["run", "--scenario", "binary_missing", "--workers", "0"]) == 2
        capsys.readouterr()

    def test_workers_above_cpu_count_rejected_without_a_pool(self, monkeypatch, capsys):
        from partialid import scenarios

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(scenarios, "_attempt_pool", no_pool)
        if hasattr(os, "sched_getaffinity"):
            limit = len(os.sched_getaffinity(0))
        else:
            limit = os.cpu_count()
        workers = str(limit + 1)
        with pytest.raises(ParameterError, match="workers"):
            parse_run(["--scenario", "binary_missing", "--workers", workers])
        assert main(["run", "--scenario", "binary_missing", "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert parse_run(["--scenario", "binary_missing", "--workers", str(limit)]).workers \
            == limit

    def test_missing_scenario(self, capsys):
        assert main(["run"]) == 2
        assert "scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["n_draws = abc", "alpha = high", "grid = 0 1 x"])
    def test_non_numeric_config_value_is_an_error_not_a_traceback(
            self, tmp_path, capsys, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"scenario = binary_missing\n{line}\n", encoding="utf-8")
        with pytest.raises(ParameterError, match="must be a number"):
            parse_run(["--config", str(cfg_file)])
        assert main(["run", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and line.split(" = ")[1] in err

    def test_skip_budget_error_is_an_error_not_a_traceback(
            self, monkeypatch, tmp_path, capsys):
        # a base measure with correlation -0.999 makes every prior draw skip
        import dataclasses

        from partialid import scenarios

        make_config = scenarios.make_config

        def anticorrelated(*args, **kwargs):
            cfg = make_config(*args, **kwargs)
            cov = np.array([[2.0, -1.998], [-1.998, 2.0]])
            return dataclasses.replace(cfg, hyper={**cfg.hyper, "base_cov": cov})

        monkeypatch.setattr(scenarios, "make_config", anticorrelated)
        rc = main(["run", "--scenario", "errors_in_variables", "--n", "10",
                   "--n-draws", "1", "--seed", "3", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: errors_in_variables prior: skip rate too high; "
            "1050 skips in 1050 attempts\n")


@pytest.fixture(scope="module")
def binary_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("runs")
    cfg = RunConfig(
        scenario="binary_missing", n=200, n_draws=150, seed=3,
        prior_family="III", out_dir=str(out_dir),
    )
    report = run_scenario(cfg)
    return cfg, report


class TestRunScenario:
    @pytest.mark.parametrize("scenario, option, match", [
        ("interval_censored", {"alpha": 1.5}, r"alpha .*1\.5"),
        ("interval_censored", {"prior_family": "V"}, r"family .*'V'"),
        ("binary_missing", {"alpha": 0.0}, r"alpha .*0\.0"),
        ("interval_censored", {"n_draws": 0}, r"n_draws .*>= 1"),
        ("interval_censored", {"workers": 0}, r"workers .*>= 1, got 0"),
        ("interval_censored", {"n": 2.5}, r"n must be an integer, got 2\.5"),
        ("interval_censored", {"n_draws": 2.5}, r"n_draws must be an integer, got 2\.5"),
        ("interval_censored", {"n_draws": "3"}, r"n_draws must be an integer, got '3'"),
        ("interval_censored", {"workers": 1.5}, r"workers must be an integer, got 1\.5"),
        ("interval_censored", {"alpha": "x"}, r"alpha .*'x'"),
        ("interval_censored", {"seed": 1.5}, r"seed must be an integer, got 1\.5"),
        ("toy_analytic", {"seed": "7"}, r"seed must be an integer, got '7'"),
        ("toy_analytic", {"n_draws": 5_000_000_000}, r"n_draws must be <= 2\*\*32"),
    ], ids=["alpha_above_one", "unknown_family", "alpha_zero", "no_draws", "no_workers",
            "fractional_n", "fractional_draws", "text_draws", "fractional_workers",
            "text_alpha", "fractional_seed", "text_seed", "unreachable_draws"])
    def test_bad_option_fails_before_any_data_pool_or_draw(
            self, tmp_path, monkeypatch, scenario, option, match):
        from partialid import scenarios

        def no_work(*args, **kwargs):
            raise AssertionError("work started on a bad option")

        for name in ("generate_data", "_attempt_pool", "draw_set_batch"):
            monkeypatch.setattr(scenarios, name, no_work)
        run = RunConfig(scenario=scenario, out_dir=str(tmp_path), **option)
        with pytest.raises(ParameterError, match=match):
            run_scenario(run)
        assert list(tmp_path.iterdir()) == []

    def test_emits_all_files(self, binary_run):
        cfg, report = binary_run
        from pathlib import Path

        out = Path(report.out_dir)
        for name in ("coverage.csv", "intervals.csv", "gamma_hist.csv", "summary.json"):
            assert (out / name).exists()

    def test_numpy_options_run_as_python_numbers(self, tmp_path):
        plain = run_scenario(RunConfig(scenario="binary_missing", n=50, n_draws=20, seed=4,
                                       alpha=0.5, out_dir=str(tmp_path / "plain")))
        typed = run_scenario(RunConfig(scenario="binary_missing", n=np.int16(50),
                                       n_draws=np.int64(20), seed=np.uint8(4),
                                       alpha=np.float64(0.5), workers=np.int32(1),
                                       out_dir=str(tmp_path / "typed")))
        assert typed.files == plain.files
        assert typed.config == plain.config
        assert all(type(typed.config[k]) is type(plain.config[k]) for k in plain.config)

    def test_summary_contents(self, binary_run):
        cfg, report = binary_run
        from pathlib import Path

        summary = json.loads((Path(report.out_dir) / "summary.json").read_text())
        assert summary["true_set"] == [0.4, 0.9]
        assert summary["point_estimate"] is not None
        assert summary["credible_region"]["alpha"] == 0.95
        assert set(summary["skips"]) == {
            "prior_sets", "posterior_sets", "prior_gamma", "posterior_gamma",
        }
        assert summary["config"]["scenario"] == "binary_missing"
        assert summary["diagnostics"]["credible_region_contains_point_estimate"] is True

    def test_summary_records_library_versions(self, binary_run):
        import platform
        from pathlib import Path

        import scipy

        import partialid

        cfg, report = binary_run
        summary = json.loads((Path(report.out_dir) / "summary.json").read_text())
        assert summary["diagnostics"]["versions"] == {
            "partialid": partialid.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        }

    def test_summary_reports_batch_diagnostics(self, binary_run):
        from pathlib import Path

        cfg, report = binary_run
        summary = json.loads((Path(report.out_dir) / "summary.json").read_text())
        batches = summary["diagnostics"]["batches"]
        assert set(batches) == set(summary["skips"])
        for name, entry in batches.items():
            skipped = summary["skips"][name]
            assert entry["skip_rate"] == pytest.approx(skipped / (cfg.n_draws + skipped))
            assert entry["high_skip_warning"] is (entry["skip_rate"] > 0.05)
        assert "base_cov_clipped" not in summary["diagnostics"]

    def test_summary_reports_covariance_repair(self, tmp_path):
        from pathlib import Path

        run = RunConfig(scenario="interval_regression", n=100, n_draws=40, seed=2,
                        prior_family="I", out_dir=str(tmp_path))
        report = run_scenario(run)
        summary = json.loads((Path(report.out_dir) / "summary.json").read_text())
        assert summary["diagnostics"]["base_cov_clipped"] is True

    def test_family_one_run_that_exhausted_the_rejection_budget(self, tmp_path, capsys):
        # family I once drew by proposals from N(midpoint, 1), at most 100000 per
        # gamma; an interval 5.6e-6 wide catches about one proposal in 500000
        from partialid import SetDrawBatch
        from partialid.priors import default_prior_spec, draw_gammas

        lo = np.array([0.1, 0.45, 0.8])
        hi = lo + np.array([0.3, 5.6e-6, 0.15])
        batch = SetDrawBatch(lo, hi, "prior", "binary_missing",
                             gamma_uniforms=[0.5, 0.999, 1e-9])
        marginal = draw_gammas(default_prior_spec("binary_missing", "I"), batch)
        assert np.all((lo <= marginal.gammas) & (marginal.gammas <= hi))
        assert marginal.gammas[1] > lo[1] + 5.5e-6  # near the top, as its uniform is
        assert marginal.skip_rate == 0.0
        # and a whole family-I run, as a smoke check
        rc = main(["run", "--scenario", "binary_missing", "--n-draws", "2000",
                   "--prior-family", "I", "--seed", "101", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        for mode in ("prior", "posterior"):
            assert report["diagnostics"]["gamma_hist_tallies"][mode]["in_range"] == 2000
            assert report["diagnostics"]["batches"][f"{mode}_gamma"] == {
                "skip_rate": 0.0, "high_skip_warning": False}

    def test_manifest_hashes_match_files(self, binary_run):
        cfg, report = binary_run
        from pathlib import Path

        out = Path(report.out_dir)
        assert sorted(report.files) == sorted(p.name for p in out.glob("*.csv"))
        for name, digest in report.files.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert json.loads((out / "summary.json").read_text())["files"] == report.files

    def test_coverage_csv_round_trip(self, binary_run):
        cfg, report = binary_run
        from pathlib import Path
        from partialid import estimate_coverage, make_config
        from partialid.scenarios import draw_set_batch

        header, rows = read_csv(Path(report.out_dir) / "coverage.csv")
        assert header == ["gamma", "prior_coverage", "posterior_coverage"]
        sc_cfg = make_config("binary_missing", n=200)
        assert len(rows) == sc_cfg.grid.size
        # recompute the prior column and compare at printed precision
        batch = draw_set_batch(sc_cfg, "prior", 150, master_seed=3)
        curve = estimate_coverage(batch, sc_cfg.grid)
        for row, expected in zip(rows, curve.values):
            assert float(row[1]) == pytest.approx(expected, abs=1e-11)

    def test_interval_rows_reconcile_with_skips(self, binary_run):
        cfg, report = binary_run
        from pathlib import Path

        header, rows = read_csv(Path(report.out_dir) / "intervals.csv")
        assert header == ["draw_index", "source", "lo", "hi"]
        summary = json.loads((Path(report.out_dir) / "summary.json").read_text())
        for source in ("prior", "posterior"):
            src_rows = [r for r in rows if r[1] == source]
            assert len(src_rows) == cfg.n_draws
            last_attempt = int(src_rows[-1][0])
            assert last_attempt + 1 == cfg.n_draws + summary["skips"][f"{source}_sets"]
            lo = np.array([float(r[2]) for r in src_rows])
            hi = np.array([float(r[3]) for r in src_rows])
            assert np.all(lo <= hi)

    def test_gamma_hist_counts(self, binary_run):
        cfg, report = binary_run
        from pathlib import Path

        header, rows = read_csv(Path(report.out_dir) / "gamma_hist.csv")
        assert header == ["bin_lo", "bin_hi", "prior_count", "posterior_count"]
        prior_total = sum(int(r[2]) for r in rows)
        post_total = sum(int(r[3]) for r in rows)
        # all binary draws live inside [0, 1], the histogram range
        assert prior_total == cfg.n_draws
        assert post_total == cfg.n_draws
        # CSV rows plus the recorded out-of-range tallies account for every draw
        tallies = report.diagnostics["gamma_hist_tallies"]
        for source, total in (("prior", prior_total), ("posterior", post_total)):
            t = tallies[source]
            assert t["in_range"] == total
            assert t["in_range"] + t["underflow"] + t["overflow"] == cfg.n_draws

    def test_toy_run_coverage_against_analytic(self, tmp_path):
        cfg = RunConfig(
            scenario="toy_analytic", n=None, n_draws=10_000, seed=1,
            grid=np.linspace(0.0, 2.0, 41), out_dir=str(tmp_path),
        )
        report = run_scenario(cfg)
        from pathlib import Path

        header, rows = read_csv(Path(report.out_dir) / "coverage.csv")
        assert header == ["gamma", "prior_coverage", "analytic_coverage"]
        dev = max(abs(float(r[1]) - float(r[2])) for r in rows)
        assert dev <= 0.02
        summary = json.loads((Path(report.out_dir) / "summary.json").read_text())
        assert summary["true_set"] is None
        assert summary["point_estimate"] is None

    def test_repeat_runs_byte_identical(self, tmp_path):
        base = dict(scenario="binary_missing", n=150, n_draws=80, seed=4,
                    prior_family="II")
        r1 = run_scenario(RunConfig(out_dir=str(tmp_path / "a"), **base))
        r2 = run_scenario(RunConfig(out_dir=str(tmp_path / "b"), **base))
        from pathlib import Path

        for name in ("coverage.csv", "intervals.csv", "gamma_hist.csv"):
            b1 = (Path(r1.out_dir) / name).read_bytes()
            b2 = (Path(r2.out_dir) / name).read_bytes()
            assert b1 == b2
        assert r1.files == r2.files


EDGE_FLOATS = [np.inf, -np.inf, -0.0, 0.0, np.nan, 5e-324, 1e-300, 1e300, 1e12, 1e12 + 1,
               999999999999.0, 123456789012345.0, 2.0**53, 1e22, 0.1, -2.5, 1 / 3]


class TestPoolLifetime:
    """One attempt pool per process, kept across runs (:mod:`partialid.scenarios`)."""

    BASE = dict(scenario="interval_censored", n=40, n_draws=60, seed=4, prior_family="III")
    FILES = ("coverage.csv", "intervals.csv", "gamma_hist.csv")

    @pytest.fixture
    def split_all(self, monkeypatch):
        """Three CPUs, and every block split among the workers."""
        monkeypatch.setattr(scenarios, "max_workers", lambda: 3)
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)

    def _run(self, tmp_path, name, workers):
        report = run_scenario(RunConfig(out_dir=str(tmp_path / name), workers=workers,
                                        **self.BASE))
        return {name: report.files[name] for name in self.FILES}

    def test_runs_in_one_process_share_one_pool(self, tmp_path, split_all, in_process_pool):
        serial = self._run(tmp_path, "w1", 1)
        assert in_process_pool.sizes == []
        assert self._run(tmp_path, "a", 2) == serial
        assert self._run(tmp_path, "b", 2) == serial
        assert in_process_pool.sizes == [1] and in_process_pool.shut == []
        assert len(in_process_pool.submitted) >= 4  # both modes of both runs

    @pytest.mark.parametrize("case", [case for case, _ in GOLDEN if case[2] > 1],
                             ids=lambda case: "-".join(map(str, case)))
    def test_golden_worker_runs_hold_with_every_block_split(self, tmp_path, monkeypatch, case):
        # the golden runs' blocks stay below the threshold, so their worker
        # count moves nothing; here the pool takes a share of every block
        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        assert golden_run(case, tmp_path).files == dict(GOLDEN)[case]

    @pytest.mark.parametrize("scenario", ["toy_analytic", "binary_missing"])
    def test_a_run_below_the_threshold_starts_no_pool(self, tmp_path, monkeypatch,
                                                      in_process_pool, scenario):
        monkeypatch.setattr(scenarios, "max_workers", lambda: 2)
        n = None if scenario == "toy_analytic" else 1000
        run_scenario(RunConfig(scenario=scenario, n=n, n_draws=1000, seed=4, workers=2,
                               out_dir=str(tmp_path)))
        assert 1000 * 4 < scenarios.POOL_UNIFORMS  # both read 3 uniforms an attempt
        assert in_process_pool.sizes == [] and in_process_pool.submitted == []

    def test_another_worker_count_replaces_the_pool(self, tmp_path, split_all,
                                                    in_process_pool):
        serial = self._run(tmp_path, "w1", 1)
        for name, workers in (("a", 2), ("b", 3), ("c", 3), ("d", 2)):
            assert self._run(tmp_path, name, workers) == serial
        assert in_process_pool.sizes == [1, 2, 1]
        assert len(in_process_pool.shut) == 2

    @pytest.mark.parametrize("when", ["idle", "running"])
    def test_a_broken_pool_is_replaced_and_its_run_succeeds(self, tmp_path, split_all,
                                                            in_process_pool, monkeypatch,
                                                            caplog, when):
        serial = self._run(tmp_path, "w1", 1)
        assert self._run(tmp_path, "a", 2) == serial
        (pool,) = in_process_pool.pools
        ((end, _),) = pool

        def dead(error):
            def call(*args):
                raise error("the pool's process died")
            return call

        # a process that died before the block leaves its share no reader; one
        # that died before or during it, no reply
        for name, error in (("send", BrokenPipeError), ("recv", EOFError),
                            ("recv_bytes", EOFError)):
            if name != "send" or when == "idle":
                monkeypatch.setattr(end, name, dead(error))
        assert self._run(tmp_path, "b", 2) == serial
        assert in_process_pool.shut == [pool] and in_process_pool.sizes == [1, 1]
        assert "the attempt pool lost a share" in caplog.text
        assert self._run(tmp_path, "c", 2) == serial
        assert in_process_pool.sizes == [1, 1]

    @pytest.mark.skipif(scenarios.max_workers() < 2, reason="needs two CPUs")
    def test_a_run_after_a_pool_process_is_killed_succeeds(self, tmp_path, monkeypatch, caplog):
        import multiprocessing
        import signal

        monkeypatch.setattr(scenarios, "POOL_UNIFORMS", 0)
        serial = self._run(tmp_path, "w1", 1)
        assert self._run(tmp_path, "a", 2) == serial
        (process,) = multiprocessing.active_children()  # the pool's one process
        os.kill(process.pid, signal.SIGKILL)
        assert self._run(tmp_path, "b", 2) == serial
        assert "the attempt pool lost a share" in caplog.text  # and ran it here
        assert len(multiprocessing.active_children()) == 1


def _per_value_rows(indices, lo, hi):
    """The interval rows as a run wrote them one value at a time."""
    return "".join(f"{idx},prior,{_fmt(a)},{_fmt(b)}\n"
                   for idx, a, b in zip(indices, lo, hi))


class TestTableText:
    """A table's one-pass text is the bytes its per-value rows made."""

    def test_edge_values(self):
        lo = np.array(EDGE_FLOATS)
        indices = np.array([0, 1, 7, 2**31, 2**32 + 5, 2**40] * 3)[:lo.size]
        assert indices.dtype == np.int64
        text = _rows("%d,prior,%.12g,%.12g\n", indices, lo, lo[::-1])
        assert text == _per_value_rows(indices, lo, lo[::-1])
        assert text.splitlines()[:3] == ["0,prior,inf,0.333333333333",
                                         "1,prior,-inf,-2.5", "7,prior,-0,0.1"]

    def test_empty_table(self):
        empty = np.array([])
        assert _rows("%d,prior,%.12g,%.12g\n", empty.astype(np.int64), empty, empty) == ""

    @given(st.lists(st.floats(width=64), min_size=1, max_size=50),
           st.integers(0, 2**63 - 1))
    def test_any_floats(self, values, first):
        lo = np.array(values)
        indices = np.arange(lo.size, dtype=np.int64) + np.int64(min(first, 2**63 - 51))
        assert (_rows("%d,prior,%.12g,%.12g\n", indices, lo, -lo)
                == _per_value_rows(indices, lo, -lo))


class TestOtherCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for sid in ("toy_analytic", "interval_censored", "errors_in_variables",
                    "interval_regression", "binary_missing"):
            assert sid in out

    def test_oracle_toy_coverage(self, capsys):
        assert main(["oracle", "toy", "--gamma", "0.5", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "value=0.5" in out
        assert "value=1" in out

    def test_oracle_toy_capacity(self, capsys):
        assert main(["oracle", "toy", "--probe", "1.5", "1.8"]) == 0
        assert "value=0.5" in capsys.readouterr().out

    def test_oracle_binary(self, capsys):
        assert main(["oracle", "binary", "--alpha", "2", "3", "1", "--gamma", "0.4"]) == 0
        out = capsys.readouterr().out
        from partialid import analytic_coverage_binary

        expected = analytic_coverage_binary(0.4, (2.0, 3.0, 1.0))
        assert f"value={expected:.12g}" in out

    @pytest.mark.parametrize("alpha", [["inf", "1", "1"], ["nan", "1", "1"], ["1", "0", "1"]])
    def test_oracle_binary_rejects_bad_alpha(self, capsys, alpha):
        assert main(["oracle", "binary", "--alpha", *alpha, "--gamma", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: alpha must be finite and positive")

    @pytest.mark.parametrize("argv, message", [
        (["toy", "--gamma", "0.5", "nan"], "gamma must not be NaN"),
        (["binary", "--alpha", "2", "3", "1", "--gamma", "nan"], "gamma must lie in [0, 1]"),
    ], ids=["toy", "binary"])
    def test_oracle_rejects_nan_gamma(self, capsys, argv, message):
        assert main(["oracle", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("gamma", ["inf", "-inf"])
    def test_oracle_toy_takes_infinite_gamma(self, capsys, gamma):
        assert main(["oracle", "toy", f"--gamma={gamma}"]) == 0
        assert capsys.readouterr().out == f"toy coverage gamma={gamma} value=0\n"

    def test_oracle_binary_needs_alpha(self, capsys):
        assert main(["oracle", "binary", "--gamma", "0.4"]) == 2
        capsys.readouterr()

    def test_oracle_toy_needs_points(self, capsys):
        assert main(["oracle", "toy"]) == 2
        capsys.readouterr()
