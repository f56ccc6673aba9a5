"""Command line front end: run simulation studies, list scenarios, query oracles.

``run`` orchestrates one scenario end to end — data generation, prior and
posterior interval batches, coverage curves, point estimate, credible region,
optional marginal parameter histograms — and serializes everything to CSV/JSON
in a per-run directory.  All numbers are printed with 12 significant digits so
outputs are byte-stable across repeats and worker counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import scenarios as sc
from .errors import ParameterError
from .priors import default_prior_spec, histogram, marginal_sample, FAMILIES
from .random_sets import (
    HIGH_SKIP_RATE,
    credible_region,
    estimate_coverage,
    point_estimate_set,
)

_FMT = "{:.12g}"

_CONFIG_KEYS = (
    "scenario", "n", "n_draws", "seed", "grid", "prior_family",
    "alpha", "out_dir", "workers",
)

#: Histogram resolution for marginal parameter draws.
GAMMA_HIST_BINS = 50


@dataclass
class RunConfig:
    """Fully resolved configuration of one `run` invocation."""

    scenario: str
    n: int | None
    n_draws: int = 1000
    seed: int = 0
    grid: np.ndarray | None = None
    prior_family: str | None = None
    alpha: float = 0.95
    out_dir: str = "runs"
    workers: int = 1


@dataclass
class RunReport:
    """What a run produced: estimates, accounting, and an output manifest."""

    config: dict
    true_set: list | None
    point_estimate: list | None
    credible_region: dict | None
    skips: dict
    diagnostics: dict
    wall_time_s: float
    files: dict
    out_dir: str


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialid",
        description="Monte Carlo inference for random interval identified sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write CSV/JSON outputs")
    run.add_argument("--config", help="flat key=value file; flags override its values")
    run.add_argument("--scenario", help=f"one of {', '.join(sc.SCENARIO_IDS)}")
    run.add_argument("--n", type=int, help="sample size of the generated dataset")
    run.add_argument("--n-draws", type=int, dest="n_draws", help="Monte Carlo draws")
    run.add_argument("--seed", type=int, help="master seed (default 0)")
    run.add_argument(
        "--grid", type=float, nargs=3, metavar=("LO", "HI", "STEP"),
        help="override the coverage evaluation grid",
    )
    run.add_argument("--prior-family", dest="prior_family",
                     help="conditional prior family (I, II, III, IV)")
    run.add_argument("--alpha", type=float, help="credible level (default 0.95)")
    run.add_argument("--out-dir", dest="out_dir", help="parent directory for run outputs")
    run.add_argument("--workers", type=int, help="parallel workers (default 1)")

    sub.add_parser("list-scenarios", help="list scenario ids and their defaults")

    oracle = sub.add_parser("oracle", help="print closed-form oracle values")
    oracle.add_argument("which", choices=("toy", "binary"))
    oracle.add_argument("--gamma", type=float, nargs="+", default=[],
                        help="points at which to evaluate the coverage oracle")
    oracle.add_argument("--probe", type=float, nargs=2, metavar=("LO", "HI"),
                        help="probe interval for the toy capacity oracle")
    oracle.add_argument("--alpha", type=float, nargs=3, metavar=("A1", "A2", "A3"),
                        help="Dirichlet parameters for the binary oracle")
    return parser


def _read_config_file(path: str) -> dict:
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val
    return values


def _coerce(key: str, val):
    if val is None or not isinstance(val, str):
        return val
    if key in ("n", "n_draws", "seed", "workers"):
        return int(val)
    if key == "alpha":
        return float(val)
    if key == "grid":
        parts = val.replace(",", " ").split()
        if len(parts) != 3:
            raise ParameterError(f"grid needs three numbers 'lo hi step', got {val!r}")
        return [float(p) for p in parts]
    return val


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge a config file (if any) with command-line flags into a RunConfig."""
    values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values = {k: _coerce(k, v) for k, v in values.items()}

    scenario = values.get("scenario")
    if scenario is None:
        raise ParameterError("missing required option: scenario")
    if scenario not in sc.SCENARIO_IDS:
        raise ParameterError(f"unknown scenario {scenario!r}")

    record = sc.SCENARIOS[scenario]
    n = values.get("n")
    if not record.columns:
        if n is not None:
            raise ParameterError(f"{scenario} takes no data: drop the 'n' option")
    else:
        n = sc.DEFAULT_SAMPLE_SIZE if n is None else int(n)
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")

    n_draws = int(values.get("n_draws", 1000))
    if n_draws < 1:
        raise ParameterError(f"n_draws must be >= 1, got {n_draws}")
    alpha = float(values.get("alpha", 0.95))
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    workers = sc.check_workers(int(values.get("workers", 1)))
    family = values.get("prior_family")
    if family is not None and record.shapes is None:
        raise ParameterError(f"{scenario} has no study wiring for conditional priors")
    if family is not None and family not in FAMILIES:
        raise ParameterError(f"prior_family must be one of {FAMILIES}, got {family!r}")

    grid = None
    if values.get("grid") is not None:
        lo, hi, step = values["grid"]
        if not (hi > lo and step > 0):
            raise ParameterError(f"bad grid spec: lo={lo}, hi={hi}, step={step}")
        points = int(round((hi - lo) / step)) + 1
        grid = np.linspace(lo, hi, points)

    return RunConfig(
        scenario=scenario,
        n=n,
        n_draws=n_draws,
        seed=int(values.get("seed", 0)),
        grid=grid,
        prior_family=family,
        alpha=alpha,
        out_dir=str(values.get("out_dir", "runs")),
        workers=workers,
    )


def _fmt(x) -> str:
    return _FMT.format(float(x))


def _round12(x):
    return float(_FMT.format(float(x)))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_coverage_csv(path: Path, grid, columns: dict):
    names = ",".join(["gamma"] + list(columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(names + "\n")
        for i, g in enumerate(grid):
            cells = [_fmt(g)] + [_fmt(vals[i]) for vals in columns.values()]
            fh.write(",".join(cells) + "\n")


def _write_intervals_csv(path: Path, batches):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("draw_index,source,lo,hi\n")
        for batch in batches:
            for idx, lo, hi in zip(batch.attempt_indices, batch.lo, batch.hi):
                fh.write(f"{idx},{batch.source},{_fmt(lo)},{_fmt(hi)}\n")


def _write_gamma_hist_csv(path: Path, edges, prior_counts, posterior_counts):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,prior_count,posterior_count\n")
        for i in range(len(prior_counts)):
            fh.write(
                f"{_fmt(edges[i])},{_fmt(edges[i + 1])},"
                f"{prior_counts[i]},{posterior_counts[i]}\n"
            )


def _batch_diagnostics(batch) -> dict:
    """Skip accounting of one interval or marginal batch, for summary.json."""
    skip_rate = batch.skipped / (batch.skipped + len(batch))
    out = {"skip_rate": _round12(skip_rate), "high_skip_warning": skip_rate > HIGH_SKIP_RATE}
    stats = getattr(batch, "rejection_stats", None)
    if stats:
        # proposals per accepted family-I draw -> number of draws
        out["rejection_stats"] = {str(k): stats[k] for k in sorted(stats)}
    return out


def run_scenario(run_cfg: RunConfig) -> RunReport:
    """Execute one configured run and serialize its outputs.

    Outputs land in ``<out_dir>/<scenario>_seed<seed>/``: coverage.csv,
    intervals.csv, gamma_hist.csv (when a prior family is set), summary.json.
    """
    t0 = time.perf_counter()
    cfg = sc.make_config(run_cfg.scenario, n=run_cfg.n, grid=run_cfg.grid)
    seed = run_cfg.seed

    dataset = None
    if sc.SCENARIOS[run_cfg.scenario].columns:
        dataset = sc.generate_data(cfg, sc.attempt_stream(seed, sc.ROLE_DATA, 0))

    prior_batch = sc.draw_set_batch(
        cfg, "prior", run_cfg.n_draws, seed, workers=run_cfg.workers
    )
    posterior_batch = None
    if dataset is not None:
        posterior_batch = sc.draw_set_batch(
            cfg, "posterior", run_cfg.n_draws, seed,
            dataset=dataset, workers=run_cfg.workers,
        )

    coverage_columns = {"prior_coverage": estimate_coverage(prior_batch, cfg.grid).values}
    if posterior_batch is not None:
        coverage_columns["posterior_coverage"] = estimate_coverage(
            posterior_batch, cfg.grid
        ).values
    else:
        # the toy model admits a closed form; record it next to the mc column
        coverage_columns["analytic_coverage"] = sc.analytic_coverage_toy(cfg.grid)

    point_est = cred = None
    diagnostics = {
        "versions": {
            "partialid": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    if posterior_batch is not None:
        point_est = point_estimate_set(posterior_batch)
        cred = credible_region(posterior_batch, run_cfg.alpha)
        if run_cfg.alpha >= 0.5:
            # expected to hold; a violation is reported, never raised
            diagnostics["credible_region_contains_point_estimate"] = bool(
                cred.region.lo <= point_est.lo and point_est.hi <= cred.region.hi
            )

    if "base_cov" in cfg.hyper:
        diagnostics["base_cov_clipped"] = bool(cfg.hyper.get("base_cov_clipped", False))

    batches = {"prior_sets": prior_batch}
    if posterior_batch is not None:
        batches["posterior_sets"] = posterior_batch

    gamma_batches = None
    if run_cfg.prior_family is not None:
        spec = default_prior_spec(run_cfg.scenario, run_cfg.prior_family)
        gamma_prior = marginal_sample(
            cfg, spec, "prior", run_cfg.n_draws, seed, workers=run_cfg.workers
        )
        gamma_post = marginal_sample(
            cfg, spec, "posterior", run_cfg.n_draws, seed,
            dataset=dataset, workers=run_cfg.workers,
        )
        gamma_batches = (gamma_prior, gamma_post)
        batches["prior_gamma"] = gamma_prior
        batches["posterior_gamma"] = gamma_post
    skips = {name: batch.skipped for name, batch in batches.items()}
    diagnostics["batches"] = {name: _batch_diagnostics(batch)
                              for name, batch in batches.items()}

    # single writer phase
    out_dir = Path(run_cfg.out_dir) / f"{run_cfg.scenario}_seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    coverage_path = out_dir / "coverage.csv"
    _write_coverage_csv(coverage_path, cfg.grid, coverage_columns)
    written.append(coverage_path)

    intervals_path = out_dir / "intervals.csv"
    batches = [prior_batch] + ([posterior_batch] if posterior_batch is not None else [])
    _write_intervals_csv(intervals_path, batches)
    written.append(intervals_path)

    if gamma_batches is not None:
        value_range = (float(cfg.grid[0]), float(cfg.grid[-1]))
        hist_prior = histogram(gamma_batches[0].gammas, GAMMA_HIST_BINS, value_range)
        hist_post = histogram(gamma_batches[1].gammas, GAMMA_HIST_BINS, value_range)
        hist_path = out_dir / "gamma_hist.csv"
        _write_gamma_hist_csv(
            hist_path, hist_prior.edges, hist_prior.counts, hist_post.counts
        )
        written.append(hist_path)
        # draws outside the grid range are not in the CSV; keep them accountable
        diagnostics["gamma_hist_tallies"] = {
            "prior": {
                "in_range": int(hist_prior.counts.sum()),
                "underflow": hist_prior.underflow,
                "overflow": hist_prior.overflow,
            },
            "posterior": {
                "in_range": int(hist_post.counts.sum()),
                "underflow": hist_post.underflow,
                "overflow": hist_post.overflow,
            },
        }

    files = {p.name: _sha256(p) for p in written}
    wall = time.perf_counter() - t0

    grid_echo = {
        "lo": _round12(cfg.grid[0]),
        "hi": _round12(cfg.grid[-1]),
        "points": int(cfg.grid.size),
    }
    report = RunReport(
        config={
            "scenario": run_cfg.scenario,
            "n": cfg.n,
            "n_draws": run_cfg.n_draws,
            "seed": seed,
            "grid": grid_echo,
            "prior_family": run_cfg.prior_family,
            "alpha": run_cfg.alpha,
            "workers": run_cfg.workers,
        },
        true_set=(None if cfg.true_set is None
                  else [_round12(cfg.true_set.lo), _round12(cfg.true_set.hi)]),
        point_estimate=(None if point_est is None
                        else [_round12(point_est.lo), _round12(point_est.hi)]),
        credible_region=(None if cred is None else {
            "lo": _round12(cred.region.lo),
            "hi": _round12(cred.region.hi),
            "containment": _round12(cred.containment),
            "alpha": _round12(cred.alpha),
        }),
        skips=skips,
        diagnostics=diagnostics,
        wall_time_s=wall,
        files=files,
        out_dir=str(out_dir),
    )
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(report.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _cmd_list_scenarios(out=None):
    out = out if out is not None else sys.stdout
    for sid, record in sc.SCENARIOS.items():
        truth = record.true_set
        truth_txt = "-" if truth is None else f"[{_fmt(truth.lo)}, {_fmt(truth.hi)}]"
        lo, hi = record.grid_range
        n_txt = str(sc.DEFAULT_SAMPLE_SIZE) if record.columns else "-"
        print(f"{sid:22s} n={n_txt:>5s}  truth={truth_txt:12s}  grid=[{lo}, {hi}]",
              file=out)
    return 0


def _cmd_oracle(args, out=None):
    out = out if out is not None else sys.stdout
    if args.which == "toy":
        for g in args.gamma:
            print(f"toy coverage gamma={_fmt(g)} value="
                  f"{_fmt(sc.analytic_coverage_toy(g))}", file=out)
        if args.probe is not None:
            lo, hi = args.probe
            from .random_sets import IntervalSet

            value = sc.analytic_capacity_toy(IntervalSet(lo, hi))
            print(f"toy capacity probe=[{_fmt(lo)},{_fmt(hi)}] value={_fmt(value)}",
                  file=out)
        if not args.gamma and args.probe is None:
            raise ParameterError("oracle toy needs --gamma and/or --probe")
    else:
        if args.alpha is None:
            raise ParameterError("oracle binary needs --alpha A1 A2 A3")
        if not args.gamma:
            raise ParameterError("oracle binary needs --gamma")
        alpha = tuple(args.alpha)
        for g in args.gamma:
            value = sc.analytic_coverage_binary(g, alpha)
            print(
                f"binary coverage gamma={_fmt(g)} "
                f"alpha=({_fmt(alpha[0])},{_fmt(alpha[1])},{_fmt(alpha[2])}) "
                f"value={_fmt(value)}",
                file=out,
            )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            report = run_scenario(parse_config(args))
            print(json.dumps(report.__dict__, indent=2, sort_keys=True))
            return 0
        if args.command == "list-scenarios":
            return _cmd_list_scenarios()
        return _cmd_oracle(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
