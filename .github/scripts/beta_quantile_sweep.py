"""Accuracy sweep of distributions.beta_quantile against scipy's betaincinv.

On a 14 x 14 grid of shapes (a, b), log-spaced over the square the table
covers (distributions.BETA_TABLE_SHAPES), and at the posterior's rho ~
Beta(n, n0) for n in {2, 200, 1000, 10000} and n0 in {10, 20}, it takes the
largest absolute difference between the quantile and ``betaincinv`` at
40,000 uniforms on the 2**-53 lattice: 0, 2**-53, 1 - 2**-53, uniforms spread over [0, 1) and
uniforms log-spaced into each tail.  Every shape with a != 1 must have a
table, built without a RuntimeWarning, which then draws without one call to
``betaincinv``; the sweep fails if one does not, or if any difference exceeds
the documented bound of 1e-10.  The table's nodes come
from the installed ``betaincinv``, so the sweep runs on each SciPy the tests
run on.

Usage: PYTHONPATH=src python .github/scripts/beta_quantile_sweep.py
"""

import sys
import warnings

import numpy as np
from scipy import special

from partialid.distributions import BETA_TABLE_SHAPES, beta_quantile

BOUND = 1e-10
GRID = np.geomspace(*BETA_TABLE_SHAPES, 14)
SHAPES = [(a, b) for a in GRID for b in GRID] + [
    (n, n0) for n in (2.0, 200.0, 1000.0, 1e4) for n0 in (10.0, 20.0)]
POINTS = 40_000


def lattice_points(n: int) -> np.ndarray:
    u = np.random.default_rng(2003).random(n)  # multiples of 2**-53
    third = n // 3
    tails = np.ldexp(np.floor(np.ldexp(2.0 ** (-53 * u[:third]), 53)), -53)
    return np.concatenate([[0.0, 2.0**-53, 1 - 2.0**-53],
                           u[2 * third + 3:], tails, 1 - tails])


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    u = lattice_points(POINTS)
    errors, failures = {}, []
    betaincinv, calls = special.betaincinv, []
    special.betaincinv = lambda *args: calls.append(args) or betaincinv(*args)
    for a, b in SHAPES:
        beta_quantile(a, b, 0.5)  # builds the shape's table
        calls.clear()
        quantile = beta_quantile(a, b, u)
        if a != 1 and calls:  # drawn by the fallback
            failures.append(f"({a:.6g}, {b:.6g}): no table")
            continue
        errors[a, b] = float(np.abs(quantile - betaincinv(a, b, u)).max())
        if not errors[a, b] <= BOUND:
            failures.append(f"({a:.6g}, {b:.6g}): error {errors[a, b]:.3g}")
    a, b = max(errors, key=errors.get)
    print(f"{len(errors)} of {len(SHAPES)} shapes x {len(u)} uniforms: largest error "
          f"{errors[a, b]:.3g} at ({a:.6g}, {b:.6g}); bound {BOUND:g}")
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
