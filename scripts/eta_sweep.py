#!/usr/bin/env python3
"""Qubit reduction and approximation ratio vs eta for weighted 3-regular graphs.

Writes one CSV with per-seed rows and mean/std aggregates. Alpha for sizes
above the oracle limit is taken against the eta = 1 run on the same instance.
Runs the paper's plain windows, without dead-end pruning, so R is the
paper's reduction.
"""

import argparse

from dcreduce.cli import SweepSpec, run_sweep
from dcreduce.driver import RunConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="20,30,40")
    parser.add_argument("--etas", default="0.0,0.25,0.5,0.75,1.0")
    parser.add_argument("--instances", type=int, default=32)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--out", default="eta_sweep.csv")
    args = parser.parse_args()
    spec = SweepSpec(
        families=("3reg",),
        sizes=tuple(int(x) for x in args.sizes.split(",")),
        etas=tuple(float(x) for x in args.etas.split(",")),
        instances=args.instances,
        seed0=args.seed0,
        config=RunConfig(prune_dominated=False),
        out=args.out,
    )
    rows = run_sweep(spec)
    for row in rows:
        if row["kind"] == "mean":
            print(
                f"n={row['n']} eta={row['eta']}: "
                f"mean R={row['r']:.3f} mean alpha={row['alpha'] if row['alpha'] is None else round(row['alpha'], 4)} "
                f"mean N_it={row['n_it']:.2f}"
            )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
