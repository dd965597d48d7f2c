#!/usr/bin/env python3
"""Reduction, approximation ratio, and iteration count across all graph
families and sizes, for a fixed list of eta values. Runs the paper's plain
windows, without dead-end pruning, so R is the paper's reduction."""

import argparse

from dcreduce.benchgen import family_matrix
from dcreduce.cli import SweepSpec, run_sweep
from dcreduce.driver import RunConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", default=",".join(f.label for f in family_matrix()))
    parser.add_argument("--sizes", default="8,12,16,20,24")
    parser.add_argument("--etas", default="1.0,0.5,0.0")
    parser.add_argument("--instances", type=int, default=32)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--out", default="family_size_sweep.csv")
    args = parser.parse_args()
    spec = SweepSpec(
        families=tuple(x for x in args.families.split(",") if x),
        sizes=tuple(int(x) for x in args.sizes.split(",")),
        etas=tuple(float(x) for x in args.etas.split(",")),
        instances=args.instances,
        seed0=args.seed0,
        config=RunConfig(prune_dominated=False),
        out=args.out,
    )
    rows = run_sweep(spec)
    n_rows = sum(1 for r in rows if r["kind"] == "row")
    print(f"wrote {args.out} ({n_rows} instance rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
