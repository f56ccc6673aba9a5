"""Benchmark of the partialid package: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study_defaults --seed 1 --seconds 20 --trace 0

The workload is set up three times, each in a fresh interpreter, and the
median set-up time is reported as ``setup_s``; the third process goes on to
time units of the workload for ``--seconds`` and checks every unit's outputs.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one extra traced unit.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every unit passed its checks, 1 when one failed, and 2 when the
benchmark could not run (for example, without ``src/partialid``).
``--tiny`` shrinks every workload for a quick smoke run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study_defaults", "marginal_families", "parallel_posterior", "estimate_large")
SETUPS = 3
#: Every run ends within this many seconds, or fails.
DEADLINE_S = 175.0


def _run_child(cmd, env, timeout):
    """Run one benchmark process in its own session; kill the session if the run is cut."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException:  # timeout or termination: no process may outlive the run
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="partialid benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink inputs for a smoke run")
    args = parser.parse_args(argv)

    start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "partialid" / "__init__.py").is_file():
        print(f"error: no partialid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        setups = []
        for i in range(SETUPS):
            cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--tmp", tmp]
            if args.tiny:
                cmd.append("--tiny")
            if i < SETUPS - 1:
                cmd.append("--setup-only")
            timeout = DEADLINE_S - (time.monotonic() - start)
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            out = _run_child(cmd + ["--t0", repr(t0)], env, timeout)
            setups.append(out["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    end_to_end = {
        "draws_per_s": (out["draws_per_s"], "1/s"),
        "cpu_s_per_kdraw": (out["cpu_s_per_kdraw"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    attempted, failed = out["attempted"], out["failed"]
    print(f"# {args.workload} seed={args.seed} units={out['units']} unit_work={out['unit_work']} "
          f"machine={json.dumps(out['machine'])}")
    print(f"# calibration kernel {out['kernel_s']:.6g} s (reference {REFERENCE_S} s); "
          f"unscaled: draws_per_s {out['draws_per_s_raw']:.6g}, "
          f"cpu_s_per_kdraw {out['cpu_s_per_kdraw_raw']:.6g}; setups_s {setups}")
    for name, (value, unit) in end_to_end.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} units)")
    if args.trace:
        if args.workload == "parallel_posterior":
            print("# spans inside worker processes are not recorded; "
                  "scenarios.batch_*_cpu_s give the parent/children CPU split")
        metrics = out["layers"]
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
