"""Acceptance suite: one test per exit criterion, run at the stated sizes.

Every test prints a single ``ACCEPTANCE <id> ... PASS/FAIL`` line (visible with
``pytest -s`` or in failure reports) and then asserts.  Monte Carlo seeds are
fixed so the suite is deterministic end to end.
"""

import time
from pathlib import Path

import numpy as np
from scipy import stats

import partialid as pid
from partialid import scenarios as sc
from partialid.cli import RunConfig, run_scenario
from partialid.priors import default_prior_spec, marginal_sample
from partialid.scenarios import ROLE_DATA, ROLE_HELDOUT_SETS, attempt_stream

DATA_SCENARIOS = (
    "interval_censored",
    "errors_in_variables",
    "interval_regression",
    "binary_missing",
)


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert passed, f"{criterion} failed: {detail}"


def make_posterior(scenario, seed, n=1000, n_draws=1000, role=None):
    cfg = pid.make_config(scenario, n=n)
    data = pid.generate_data(cfg, attempt_stream(seed, ROLE_DATA, 0))
    batch = pid.draw_set_batch(
        cfg, "posterior", n_draws, master_seed=seed, dataset=data, role=role
    )
    return cfg, data, batch


def test_01_toy_prior_coverage_matches_closed_form():
    t0 = time.perf_counter()
    cfg = pid.make_config("toy_analytic")
    batch = pid.draw_set_batch(cfg, "prior", 10_000, master_seed=1)
    grid = np.linspace(0.0, 2.0, 41)
    curve = pid.estimate_coverage(batch, grid)
    dev = float(np.abs(curve.values - sc.analytic_coverage_toy(grid)).max())
    elapsed = time.perf_counter() - t0
    report(
        "1 toy coverage",
        dev <= 0.02 and elapsed < 1.0,
        f"max|mc-analytic|={dev:.4f} (<=0.02), runtime={elapsed:.2f}s (<1s)",
    )


def test_02_toy_capacity_matches_product_formula():
    cfg = pid.make_config("toy_analytic")
    batch = pid.draw_set_batch(cfg, "prior", 10_000, master_seed=1)
    gen = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        lo = gen.uniform(-0.2, 2.2)
        probe = pid.IntervalSet(lo, lo + gen.uniform(0.0, 1.2))
        dev = abs(pid.estimate_capacity(batch, probe) - sc.analytic_capacity_toy(probe))
        worst = max(worst, dev)
    # singleton probes must agree with the coverage curve exactly
    grid = np.linspace(0.0, 2.0, 41)
    curve = pid.estimate_coverage(batch, grid)
    exact = all(
        pid.estimate_capacity(batch, pid.IntervalSet(g, g)) == v
        for g, v in zip(grid, curve.values)
    )
    report(
        "2 toy capacity",
        worst <= 0.02 and exact,
        f"max probe dev={worst:.4f} (<=0.02), singleton==coverage: {exact}",
    )


def test_03_truncation_tail_mass_law():
    t0 = time.perf_counter()
    n0, k, runs = 20.0, 100, 2000
    rng = pid.substream(3, 0)
    tails = np.array([pid.stick_weights(n0, k, rng)[1] for _ in range(runs)])
    neglog = -np.log(tails)
    se = np.sqrt(k / n0**2 / runs)
    mean_dev = abs(neglog.mean() - k / n0)
    var_ok = abs(neglog.var() - k / n0**2) < 0.2 * k / n0**2
    elapsed = time.perf_counter() - t0
    report(
        "3 truncation law",
        mean_dev < 3 * se and var_ok and elapsed < 10.0,
        f"|mean-5|={mean_dev:.4f} (<{3*se:.4f}), var ok: {var_ok}, "
        f"runtime={elapsed:.2f}s (<10s)",
    )


def test_04_interval_censored_posterior():
    t0 = time.perf_counter()
    cfg, _, batch = make_posterior("interval_censored", seed=7)
    curve = pid.estimate_coverage(batch, cfg.grid)
    inner = (cfg.grid >= 0.5) & (cfg.grid <= 4.5)
    outer = (cfg.grid < -0.5) | (cfg.grid > 5.5)
    min_inner = float(curve.values[inner].min())
    max_outer = float(curve.values[outer].max())
    pe = pid.point_estimate_set(batch)
    elapsed = time.perf_counter() - t0
    ok = (
        min_inner >= 0.9
        and max_outer <= 0.1
        and abs(pe.lo - 0.0) <= 0.15
        and abs(pe.hi - 5.0) <= 0.15
        and elapsed < 10.0
    )
    report(
        "4 interval censored",
        ok,
        f"coverage inner>={min_inner:.3f}, outer<={max_outer:.3f}, "
        f"pe=[{pe.lo:.3f},{pe.hi:.3f}] vs [0,5], runtime={elapsed:.1f}s (<10s)",
    )


def test_05_errors_in_variables_posterior():
    t0 = time.perf_counter()
    _, _, batch = make_posterior("errors_in_variables", seed=2)
    pe = pid.point_estimate_set(batch)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(pe.lo - 0.5) <= 0.15
        and abs(pe.hi - 2.0) <= 0.15
        and batch.skip_rate < 0.01
        and elapsed < 20.0
    )
    report(
        "5 errors in variables",
        ok,
        f"pe=[{pe.lo:.3f},{pe.hi:.3f}] vs [0.5,2], skip={batch.skip_rate:.3%} (<1%), "
        f"runtime={elapsed:.1f}s (<20s)",
    )


def test_06_interval_regression_posterior():
    t0 = time.perf_counter()
    cfg, _, batch = make_posterior("interval_regression", seed=7)
    assert cfg.hyper["base_cov_clipped"] is True
    pe = pid.point_estimate_set(batch)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(pe.lo - 2.0) <= 0.4
        and abs(pe.hi - 6.0) <= 0.4
        and batch.skip_rate < 0.01
        and elapsed < 30.0
    )
    report(
        "6 interval regression",
        ok,
        f"pe=[{pe.lo:.3f},{pe.hi:.3f}] vs [2,6], skip={batch.skip_rate:.3%} (<1%), "
        f"runtime={elapsed:.1f}s (<30s)",
    )


def test_07_binary_missing_closed_form_agreement():
    t0 = time.perf_counter()
    cfg = pid.make_config("binary_missing", n=1000)
    data = pid.generate_data(cfg, attempt_stream(7, ROLE_DATA, 0))
    grid = np.linspace(0.0, 1.0, 101)
    alpha = cfg.hyper["alpha"]

    prior = pid.draw_set_batch(cfg, "prior", 10_000, master_seed=7)
    dev_prior = float(
        np.abs(
            pid.estimate_coverage(prior, grid).values
            - sc.analytic_coverage_binary(grid, alpha)
        ).max()
    )

    counts = pid.count_binary(data)
    astar = pid.binary_posterior_params(alpha, counts)
    conjugacy_exact = np.array_equal(
        astar, [2.0 + counts.n1, 3.0 + counts.n0_obs, 1.0 + counts.m]
    )
    posterior = pid.draw_set_batch(cfg, "posterior", 10_000, master_seed=7, dataset=data)
    dev_post = float(
        np.abs(
            pid.estimate_coverage(posterior, grid).values
            - sc.analytic_coverage_binary(grid, astar)
        ).max()
    )
    pe = pid.point_estimate_set(posterior)
    elapsed = time.perf_counter() - t0
    ok = (
        dev_prior <= 0.02
        and dev_post <= 0.02
        and conjugacy_exact
        and abs(pe.lo - 0.4) <= 0.05
        and abs(pe.hi - 0.9) <= 0.05
        and elapsed < 5.0
    )
    report(
        "7 binary missing",
        ok,
        f"dev prior={dev_prior:.4f}, posterior={dev_post:.4f} (<=0.02), "
        f"conjugacy exact: {conjugacy_exact}, pe=[{pe.lo:.3f},{pe.hi:.3f}], "
        f"runtime={elapsed:.1f}s (<5s)",
    )


def test_08_credible_region_held_out_containment():
    results = []
    for scenario in DATA_SCENARIOS:
        cfg, data, fit_batch = make_posterior(scenario, seed=2)
        held_out = pid.draw_set_batch(
            cfg, "posterior", 1000, master_seed=2, dataset=data, role=ROLE_HELDOUT_SETS
        )
        region = pid.credible_region(fit_batch, 0.95).region
        frac = float(
            np.mean((held_out.lo >= region.lo) & (held_out.hi <= region.hi))
        )
        results.append((scenario, frac))
    ok = all(frac >= 0.93 for _, frac in results)
    detail = ", ".join(f"{s}={f:.3f}" for s, f in results)
    report("8 credible region", ok, f"held-out containment (>=0.93): {detail}")


def test_09_marginal_support_and_contraction():
    support_ok = True
    checked = 0
    # support invariant: every family, every scenario (toy is prior-only and has
    # no study wiring, so it gets an explicit spec)
    toy_cfg = pid.make_config("toy_analytic")
    for family in pid.priors.FAMILIES:
        spec = pid.ConditionalPriorSpec(family, p=2.0, q=2.0)
        batch = marginal_sample(toy_cfg, spec, "prior", 300, 4)
        support_ok &= bool(
            np.all(batch.gammas >= batch.lo) and np.all(batch.gammas <= batch.hi)
        )
        checked += len(batch)
    for scenario in DATA_SCENARIOS:
        cfg = pid.make_config(scenario, n=1000)
        data = pid.generate_data(cfg, attempt_stream(4, ROLE_DATA, 0))
        for family in pid.priors.FAMILIES:
            spec = default_prior_spec(scenario, family)
            for mode, ds in (("prior", None), ("posterior", data)):
                batch = marginal_sample(cfg, spec, mode, 300, 4, dataset=ds)
                support_ok &= bool(
                    np.all(batch.gammas >= batch.lo)
                    and np.all(batch.gammas <= batch.hi)
                )
                checked += len(batch)

    contraction = {}
    for scenario in DATA_SCENARIOS:
        cfg = pid.make_config(scenario, n=1000)
        data = pid.generate_data(cfg, attempt_stream(4, ROLE_DATA, 0))
        spec = default_prior_spec(scenario, "III")
        prior_var = marginal_sample(cfg, spec, "prior", 800, 4).gammas.var()
        post_var = marginal_sample(
            cfg, spec, "posterior", 800, 4, dataset=data
        ).gammas.var()
        contraction[scenario] = bool(post_var < prior_var)
    ok = support_ok and all(contraction.values())
    report(
        "9 marginal support/contraction",
        ok,
        f"{checked} draws all inside their intervals: {support_ok}; "
        f"posterior<prior variance: {contraction}",
    )


def test_10_flat_family_ks_decreases_with_sample_size():
    seed = 5
    ks_values = []
    for n in (100, 1000, 10_000):
        cfg = pid.make_config("binary_missing", n=n)
        data = pid.generate_data(cfg, attempt_stream(seed, ROLE_DATA, 0))
        astar = pid.binary_posterior_params(cfg.hyper["alpha"], pid.count_binary(data))
        total = astar.sum()
        lo, hi = astar[0] / total, (astar[0] + astar[2]) / total
        spec = default_prior_spec("binary_missing", "III")
        batch = marginal_sample(cfg, spec, "posterior", 2000, seed, dataset=data)
        ks = stats.kstest(
            batch.gammas, stats.uniform(loc=lo, scale=hi - lo).cdf
        ).statistic
        ks_values.append(float(ks))
    ok = ks_values[0] > ks_values[1] > ks_values[2]
    report(
        "10 large-sample uniformity",
        ok,
        "KS at n=100,1000,10000: " + " > ".join(f"{k:.4f}" for k in ks_values),
    )


def test_11_runs_are_deterministic(tmp_path, monkeypatch):
    # every block of the workers-8 run is split, small as it is
    monkeypatch.setattr(sc, "POOL_UNIFORMS", 0)
    base = dict(
        scenario="interval_censored", n=200, n_draws=120, seed=21,
        prior_family="III",
    )
    outputs = {}
    for label, workers, sub in (
        ("repeat1", 1, "a"), ("repeat2", 1, "b"), ("workers8", 8, "c"),
    ):
        report_obj = run_scenario(
            RunConfig(out_dir=str(tmp_path / sub), workers=workers, **base)
        )
        outputs[label] = {
            name: (Path(report_obj.out_dir) / name).read_bytes()
            for name in ("coverage.csv", "intervals.csv", "gamma_hist.csv")
        }
    repeat_ok = outputs["repeat1"] == outputs["repeat2"]
    workers_ok = outputs["repeat1"] == outputs["workers8"]
    report(
        "11 determinism",
        repeat_ok and workers_ok,
        f"repeat byte-identical: {repeat_ok}, workers 1 vs 8 byte-identical: {workers_ok}",
    )
