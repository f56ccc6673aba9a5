#!/usr/bin/env bash
# Worker invariance at study size: runs each data scenario at workers 1, 2 and,
# on more CPUs, nproc (where more than one pool process draws), and compares
# every CSV byte for byte with the workers-1 run; last, one process runs three
# scenarios at workers 2 through one shared pool.  The golden runs use 100
# draws, which fill at most two chunks (scenarios.chunk_rows: 64 rows or more
# at n = 1000).  Process means are stacked matmuls, one BLAS call per row,
# which every numpy must dispatch per row whatever the chunk a row is in, and
# row-wise sums; binary_missing's short rows come from rng.pcg64_uniforms, in
# every chunk.  Each python command runs under `timeout 300`, so a pool that
# cannot shut down fails the step rather than hanging the job.
#
# Usage: PYTHONPATH=src .github/scripts/worker_invariance.sh OUT_DIR
set -euo pipefail
out="${1:?usage: worker_invariance.sh OUT_DIR}"

counts="1 2"; if [ "$(nproc)" -gt 2 ]; then counts="$counts $(nproc)"; fi
for sid in interval_censored errors_in_variables interval_regression binary_missing; do
  for w in $counts; do
    timeout 300 python -m partialid.cli run --scenario "$sid" --n 1000 \
      --n-draws 1000 --seed 7 --workers "$w" --out-dir "$out/w$w" > /dev/null
    for f in coverage.csv intervals.csv; do
      cmp "$out/w1/${sid}_seed7/$f" "$out/w$w/${sid}_seed7/$f"
    done
  done
done
# interval_censored's gamma uniform, appended to the draw's arrays by the
# engine's one wrapper: the last column of each attempt row, after the two
# processes' sticks and one variate each; 126 prior rows a chunk
for w in $counts; do
  timeout 300 python -m partialid.cli run --scenario interval_censored --n 1000 \
    --prior-family II --n-draws 1000 --seed 7 --workers "$w" \
    --out-dir "$out/g$w" > /dev/null
  for f in coverage.csv intervals.csv gamma_hist.csv; do
    cmp "$out/g1/interval_censored_seed7/$f" "$out/g$w/interval_censored_seed7/$f"
  done
done
# several chunks of short stream rows, through the pool: 90000 attempts of 3
# uniforms (two Betas and the gamma uniform) cross scenarios.POOL_UNIFORMS
for w in $counts; do
  timeout 300 python -m partialid.cli run --scenario binary_missing --n 1000 \
    --prior-family II --n-draws 90000 --seed 7 --workers "$w" \
    --out-dir "$out/s$w" > /dev/null
  for f in coverage.csv intervals.csv gamma_hist.csv; do
    cmp "$out/s1/binary_missing_seed7/$f" "$out/s$w/binary_missing_seed7/$f"
  done
done
# rows longer than the buffer's cap of 2**18 uniforms: an interval_censored
# posterior at n = 140000 reads 280007 uniforms an attempt (both processes keep
# one stick; the gamma uniform included), one row a chunk, and its 20 attempts
# cross scenarios.POOL_UNIFORMS
for w in $counts; do
  timeout 300 python -m partialid.cli run --scenario interval_censored --n 140000 \
    --n-draws 20 --seed 7 --workers "$w" --out-dir "$out/b$w" > /dev/null
  for f in coverage.csv intervals.csv; do
    cmp "$out/b1/interval_censored_seed7/$f" "$out/b$w/interval_censored_seed7/$f"
  done
done
# one process runs the three Dirichlet-process scenarios back to back at
# workers 2, and its one attempt pool serves them all
timeout 300 python - "$out/shared" <<'EOF'
import sys
from partialid import scenarios
from partialid.cli import RunConfig, run_scenario
pools = []
for sid in ("interval_censored", "errors_in_variables", "interval_regression"):
    run_scenario(RunConfig(scenario=sid, n=1000, n_draws=1000, seed=7, workers=2,
                           out_dir=sys.argv[1]))
    pools.append(scenarios._pool)
assert pools[0] and all(p is pools[0] for p in pools), pools
EOF
for sid in interval_censored errors_in_variables interval_regression; do
  for f in coverage.csv intervals.csv; do
    cmp "$out/w1/${sid}_seed7/$f" "$out/shared/${sid}_seed7/$f"
  done
done
