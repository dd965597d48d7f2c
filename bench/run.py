"""Benchmark entry point: runs one workload in a fresh single-threaded process.

    python3 bench/run.py --workload eta_sweep_3reg40 --seed 1 --seconds 30 --trace 0

The workload runs in a child process (``worker.py``) started with the BLAS
and OpenMP thread pools at 1 and ``DC_REDUCE_THREADS`` unset. Its summary
is passed through, its result is written to ``bench/results/`` and the
result JSON is printed as the last line. With ``--trace 0`` the metrics are
the end-to-end ones, timed with tracing off; with ``--trace 1`` they are the
per-layer ones. Exits nonzero, printing no result, when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The worker must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance-offset", type=int, default=0,
                    help="move every instance seed by this much (README spread figures)")
    args = ap.parse_args(argv)

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("DC_REDUCE_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--instance-offset", str(args.instance_offset),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-offset{args.instance_offset}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
