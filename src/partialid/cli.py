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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import scenarios as sc
from .errors import ParameterError, SkipBudgetError
from .priors import default_prior_spec, draw_gammas, histogram
from .random_sets import credible_region, estimate_coverage, point_estimate_set

_FMT = "{:.12g}"

#: Histogram resolution for marginal parameter draws.
GAMMA_HIST_BINS = 50


@dataclass
class RunConfig:
    """The options of one `run` invocation; :func:`run_scenario` checks them."""

    scenario: str
    n: int | None
    n_draws: int = 1000
    seed: int = 0
    grid: np.ndarray | None = None
    prior_family: str | None = None
    alpha: float = 0.95
    out_dir: str = "runs"
    workers: int = 1


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


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
    run.add_argument("--seed", type=int, help=f"master seed (default {RunConfig.seed})")
    run.add_argument(
        "--grid", type=float, nargs=3, metavar=("LO", "HI", "STEP"),
        help="override the coverage evaluation grid",
    )
    run.add_argument("--prior-family", dest="prior_family",
                     help="conditional prior family (I, II, III, IV)")
    run.add_argument("--alpha", type=float, help=f"credible level (default {RunConfig.alpha})")
    run.add_argument("--out-dir", dest="out_dir", help="parent directory for run outputs")
    run.add_argument("--workers", type=int,
                     help=f"processes drawing, this one included (default {RunConfig.workers})")

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
    try:
        if key in ("n", "n_draws", "seed", "workers"):
            return int(val)
        if key == "alpha":
            return float(val)
        if key == "grid":
            parts = val.replace(",", " ").split()
            if len(parts) != 3:
                raise ParameterError(f"grid needs three numbers 'lo hi step', got {val!r}")
            return [float(p) for p in parts]
    except ValueError:
        raise ParameterError(f"{key} must be a number, got {val!r}") from None
    return val


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge a config file (if any) with command-line flags into a RunConfig.

    Options given by neither take the field defaults of :class:`RunConfig`.
    It only parses: values become numbers, ``grid`` (``lo hi step``, finite,
    with a point count numpy can allocate) an array, and ``workers`` must not
    exceed the CPUs this process may run on.
    :func:`run_scenario` checks every option before it draws.
    """
    values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if values.get("scenario") is None:
        raise ParameterError("missing required option: scenario")
    run = RunConfig(**{"n": None, **{k: _coerce(k, v) for k, v in values.items()}})
    sc.check_workers(run.workers)
    if run.grid is not None:
        lo, hi, step = run.grid
        if not (np.isfinite(run.grid).all() and hi > lo and step > 0):
            raise ParameterError(f"bad grid spec: lo={lo}, hi={hi}, step={step}")
        span = (hi - lo) / step  # inf when it overflows
        # numpy sizes an array in bytes, which its index type must count
        if not span < np.iinfo(np.intp).max // np.dtype(float).itemsize:
            raise ParameterError(f"grid spec lo={lo}, hi={hi}, step={step} has too many "
                                 f"points to allocate")
        run.grid = np.linspace(lo, hi, int(round(span)) + 1)
    return run


def _fmt(x) -> str:
    return _FMT.format(float(x))


def _round12(x):
    return float(_FMT.format(float(x)))


def _rows(row_fmt: str, *columns) -> str:
    """``row_fmt % row`` for each row of ``columns``, arrays of one length, joined.

    The values are Python numbers (``.tolist()``), so ``%.12g`` writes what
    :func:`_fmt` writes and ``%d`` what ``str`` writes for an integer.
    """
    return "".join([row_fmt % row for row in zip(*(c.tolist() for c in columns))])


def run_scenario(run_cfg: RunConfig) -> RunReport:
    """Execute one configured run and serialize its outputs.

    Outputs land in ``<out_dir>/<scenario>_seed<seed>/``: coverage.csv,
    intervals.csv, gamma_hist.csv (when a prior family is set), summary.json.
    A scenario without data runs the prior mode only; one with data runs the
    prior and the posterior mode, each through the same steps.

    Raises :class:`ParameterError` for a bad option, however the config was
    built, before any data, pool or draw.  ``workers`` above the CPU count is
    capped, not rejected.
    """
    t0 = time.perf_counter()
    cfg = sc.make_config(run_cfg.scenario, n=run_cfg.n, grid=run_cfg.grid)
    spec = None
    if run_cfg.prior_family is not None:
        spec = default_prior_spec(run_cfg.scenario, run_cfg.prior_family)
    if not 0 < run_cfg.alpha <= 1:
        raise ParameterError(f"alpha must lie in (0, 1], got {run_cfg.alpha}")
    sc.check_attempts(run_cfg.n_draws, run_cfg.workers)
    seed = run_cfg.seed

    dataset = None
    modes = ("prior",)
    if sc.SCENARIOS[run_cfg.scenario].columns:
        dataset = sc.generate_data(cfg, sc.attempt_stream(seed, sc.ROLE_DATA, 0))
        modes = ("prior", "posterior")

    batches, coverage, hists = {}, {}, {}
    for mode in modes:
        batch = batches[f"{mode}_sets"] = sc.draw_set_batch(
            cfg, mode, run_cfg.n_draws, seed, dataset=dataset, workers=run_cfg.workers)
        coverage[f"{mode}_coverage"] = estimate_coverage(batch, cfg.grid).values
        if spec is not None:
            marginal = batches[f"{mode}_gamma"] = draw_gammas(spec, batch)
            hists[mode] = histogram(marginal.gammas, GAMMA_HIST_BINS, cfg.grid[[0, -1]])

    diagnostics = {
        "versions": {
            "partialid": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "batches": {name: {"skip_rate": _round12(b.skip_rate),
                           "high_skip_warning": b.high_skip_warning}
                    for name, b in batches.items()},
    }
    point_est = cred = None
    posterior = batches.get("posterior_sets")
    if posterior is None:
        # the toy model admits a closed form; record it next to the mc column
        coverage["analytic_coverage"] = sc.analytic_coverage_toy(cfg.grid)
    else:
        point_est = point_estimate_set(posterior)
        cred = credible_region(posterior, run_cfg.alpha)
        if run_cfg.alpha >= 0.5:
            # expected to hold; a violation is reported, never raised
            diagnostics["credible_region_contains_point_estimate"] = bool(
                cred.region.lo <= point_est.lo and point_est.hi <= cred.region.hi
            )
    if "base_cov" in cfg.hyper:
        diagnostics["base_cov_clipped"] = bool(cfg.hyper.get("base_cov_clipped", False))

    tables = {
        "coverage.csv": ",".join(["gamma", *coverage]) + "\n" + _rows(
            ",".join(["%.12g"] * (1 + len(coverage))) + "\n", cfg.grid, *coverage.values()),
        "intervals.csv": "draw_index,source,lo,hi\n" + "".join([
            _rows(f"%d,{b.source},%.12g,%.12g\n", b.attempt_indices, b.lo, b.hi)
            for b in (batches[f"{mode}_sets"] for mode in modes)]),
    }
    if hists:
        edges = hists["prior"].edges
        tables["gamma_hist.csv"] = "bin_lo,bin_hi,prior_count,posterior_count\n" + _rows(
            "%.12g,%.12g,%d,%d\n", edges[:-1], edges[1:], hists["prior"].counts,
            hists["posterior"].counts)
        # draws outside the grid range are not in the CSV; keep them accountable
        diagnostics["gamma_hist_tallies"] = {
            mode: {"in_range": int(h.counts.sum()), "underflow": h.underflow,
                   "overflow": h.overflow}
            for mode, h in hists.items()
        }

    # single writer phase
    out_dir = Path(run_cfg.out_dir) / f"{run_cfg.scenario}_seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, text in tables.items():  # one write per table, hashed from memory
        data = text.encode("utf-8")
        (out_dir / name).write_bytes(data)
        files[name] = hashlib.sha256(data).hexdigest()

    report = RunReport(
        # every option but the output directory, which the report has already
        config={
            **{key: getattr(run_cfg, key) for key in _CONFIG_KEYS if key != "out_dir"},
            "n": cfg.n,
            "grid": {"lo": _round12(cfg.grid[0]), "hi": _round12(cfg.grid[-1]),
                     "points": int(cfg.grid.size)},
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
        skips={name: b.skipped for name, b in batches.items()},
        diagnostics=diagnostics,
        wall_time_s=time.perf_counter() - t0,
        files=files,
        out_dir=str(out_dir),
    )
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
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
    except (ParameterError, SkipBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
