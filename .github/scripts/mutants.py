"""What the tests can see: each of a fixed table of one-line defects is applied
to a copy of the checkout, and tier-1 runs against it.

    python .github/scripts/mutants.py

A mutant is an exact replacement of a text that occurs once in one file of
``src/partialid``.  Tier-1 runs with the golden digests (``tests/test_golden.py``
and the worker runs of ``tests/test_cli.py`` that compare against them) and
the same-uniform reference (``test_matches_concatenated_draws``) deselected:
those catch any change of bits, and a deliberate numeric change re-records
them, so what is left is what a test that states the answer can see.  A
mutant is caught when a test fails or errs, the suite cannot be collected,
or the run times out.  The script first runs the copy with no mutant, and
exits 2 if that fails, or if a mutant's text is not found exactly once, which
means the table no longer matches the code; otherwise it prints a Markdown
table of the mutants, caught or missed, with the first test that failed, and
exits 0 whatever is caught.  Progress goes to stderr.  A survivor is a
finding: never drop a mutant or weaken it to make it caught.  The rows were
chosen before their first run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]

DESELECT = (
    "tests/test_golden.py",
    "tests/test_cli.py::TestPoolLifetime::test_golden_worker_runs_hold_with_every_block_split",
    "tests/test_process_means.py::test_matches_concatenated_draws",
)

TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # under src/partialid
    old: str
    new: str
    why: str


MUTANTS = (
    Mutant("rho ~ Beta(n, n0 + 1)", "dirichlet.py",
           "rho = sample_beta(float(n), n0, source, size=1)",
           "rho = sample_beta(float(n), n0 + 1, source, size=1)",
           "the posterior's split between data and prior side"),
    Mutant("sticks ~ Beta(1, 2 n0)", "dirichlet.py",
           "v = sample_beta(1.0, n0, rng, size=as_int(\"k\", k, 1))",
           "v = sample_beta(1.0, 2 * n0, rng, size=as_int(\"k\", k, 1))",
           "the stick law, and so every process draw's spread"),
    Mutant("ScalarNormal spread without its sqrt", "distributions.py",
           "spread = np.sqrt(np.sum(weights * weights, axis=-1, keepdims=True)) / total",
           "spread = np.sum(weights * weights, axis=-1, keepdims=True) / total",
           "interval_censored's prior-side shortcut"),
    Mutant("atoms @ chol for @ chol.T", "distributions.py",
           "(\"_chol_t\", chol.T.copy())",
           "(\"_chol_t\", chol.copy())",
           "a multivariate normal's covariance"),
    Mutant("datum 0's data weight 0", "dirichlet.py",
           "np.log1p(g, out=g)",
           "np.log1p(g, out=g); g[..., 0] = 0.0",
           "the Bayesian bootstrap's weights"),
    Mutant("binary_missing Beta(a1 + 1, a3)", "scenarios.py",
           "lo = hi * sample_beta(a1, a3, source)",
           "lo = hi * sample_beta(a1 + 1, a3, source)",
           "the conjugate interval's lower end"),
    Mutant("prior side not divided by its total", "dirichlet.py",
           "means = (values @ weights[..., None])[..., 0] / total",
           "means = (values @ weights[..., None])[..., 0]",
           "scales a prior-side mean by 1 - T_K, a relative change below eps with "
           "probability 1 - delta: inside the moment tests' truncation allowance"),
    Mutant("errors_in_variables reverse bound ey * ez for ey * ey", "scenarios.py",
           "(m[..., 4] - ey * ey) / syz",
           "(m[..., 4] - ey * ez) / syz",
           "a centring slip, which a centred base and data hide"),
    Mutant("errors_in_variables syz, szz uncentred", "scenarios.py",
           "syz, szz = m[..., 2] - ey * ez, m[..., 3] - ez * ez",
           "syz, szz = m[..., 2], m[..., 3]",
           "a centring slip, which a centred base and data hide"),
    Mutant("instrument-ratio guard ezx > 0 dropped", "scenarios.py",
           "return lo, hi, ~(ezx <= 0) & ~(lo > hi)",
           "return lo, hi, ~(lo > hi)",
           "a guard that rarely binds at the study's base"),
    Mutant("family-IV shapes swapped", "priors.py",
           "p, q = scenario.shapes",
           "q, p = scenario.shapes",
           "the default conditional-prior wiring"),
    Mutant("coverage search side=\"left\"", "random_sets.py",
           "batch._lo_sorted.searchsorted(b, \"right\")",
           "batch._lo_sorted.searchsorted(b, \"left\")",
           "ties of a grid point with a lower end"),
    Mutant("containment counts lo > q_lo for lo >= q_lo", "random_sets.py",
           "(batch.lo >= q_lo)",
           "(batch.lo > q_lo)",
           "a credible region's containment: draws starting on its lower end"),
    Mutant("NormalProducts spread without its sqrt", "distributions.py",
           "return (self.intercept * a + self.beta * b + np.sqrt(c) * noise) / total",
           "return (self.intercept * a + self.beta * b + c * noise) / total",
           "interval_regression's prior-side shortcut: the noise's scale"),
    Mutant("NormalProducts noise doubled", "distributions.py",
           "return (self.intercept * a + self.beta * b + np.sqrt(c) * noise) / total",
           "return (self.intercept * a + self.beta * b + 2 * np.sqrt(c) * noise) / total",
           "interval_regression's prior-side shortcut: the noise's scale"),
    Mutant("NormalProducts L_S from the covariance of v", "distributions.py",
           "(\"noise\", chol[1:, 1:].copy())",
           "(\"noise\", cholesky_factor(law.cov[:-1, :-1]))",
           "interval_regression's prior-side shortcut: the noise given z, not "
           "the whole spread of v"),
)


def _first_failure(output: str, code: int) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"(pytest exit {code})"  # 2 to 5: a collection error, say, names no test


def run(mutant: Mutant | None, tree: Path) -> tuple[str, str, float]:
    """``(outcome, first failing test, seconds)`` of tier-1 on ``tree`` with
    ``mutant`` applied, or with none."""
    path = tree / "src" / "partialid" / mutant.file if mutant else None
    text = path.read_text(encoding="utf-8") if path else ""
    if path:
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
           "--hypothesis-profile=ci", "tests"]
    for node in DESELECT:
        cmd += ["--deselect", node]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tree, env={**os.environ, "PYTHONPATH": "src"},
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "caught", f"(timed out after {TIMEOUT_S} s)", time.monotonic() - start
    finally:
        if path:
            path.write_text(text, encoding="utf-8")
    seconds = time.monotonic() - start
    if proc.returncode == 0:
        return "missed", "", seconds
    return "caught", _first_failure(proc.stdout, proc.returncode), seconds


def main() -> int:
    stale = [m.name for m in MUTANTS
             if (ROOT / "src" / "partialid" / m.file).read_text(encoding="utf-8").count(m.old) != 1]
    if stale:
        print(f"text not found exactly once, the table is stale: {stale}", file=sys.stderr)
        return 2
    rows = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)  # a test reads the version there
        outcome, test, seconds = run(None, tree)
        print(f"[0/{len(MUTANTS)}] no mutant: {outcome} {test} ({seconds:.0f} s)", file=sys.stderr)
        if outcome != "missed":  # a failure the mutants would be credited with
            print(f"tier-1 fails with no mutant applied: {test}", file=sys.stderr)
            return 2
        for i, mutant in enumerate(MUTANTS, 1):
            outcome, test, seconds = run(mutant, tree)
            print(f"[{i}/{len(MUTANTS)}] {mutant.name}: {outcome} {test} ({seconds:.0f} s)",
                  file=sys.stderr)
            rows.append((mutant, outcome, test))
    caught = sum(outcome == "caught" for _, outcome, _ in rows)
    print(f"### Mutants: {caught} of {len(rows)} caught\n")
    print("| mutant | file | outcome | first failing test | what it breaks |")
    print("|---|---|---|---|---|")
    for mutant, outcome, test in rows:
        print(f"| {mutant.name} | `{mutant.file}` | {outcome} | "
              f"{f'`{test}`' if test else ''} | {mutant.why} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
