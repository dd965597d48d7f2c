#!/usr/bin/env python3
"""First-iteration interaction-shift histograms for the found solutions.

For each community of the first iteration, reports the interaction energy
of the returned configuration relative to its certified bound, and the
combined local-plus-interaction energy relative to the retained-window
floor. See the CSV header for the sign conventions. Runs the paper's plain
windows, without dead-end pruning.
"""

import argparse

from dcreduce.benchgen import family_by_label, generate
from dcreduce.cli import _write_diagnostics, diagnostics_rows
from dcreduce.driver import RunConfig, run, shift_diagnostics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="3reg")
    parser.add_argument("--sizes", default="20,40")
    parser.add_argument("--eta", type=float, default=0.5)
    parser.add_argument("--instances", type=int, default=32)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--bins", type=int, default=20)
    parser.add_argument("--out-prefix", default="shifts")
    args = parser.parse_args()
    config = family_by_label(args.family)
    for n in (int(x) for x in args.sizes.split(",")):
        records = []
        for i in range(args.instances):
            seed = args.seed0 + i
            h = generate(config.spec_for(n, seed))
            result = run(h, RunConfig(eta=args.eta, seed=seed, prune_dominated=False))
            records.extend((seed, d) for d in shift_diagnostics(h, result))
        rows = diagnostics_rows(records, args.family, n, args.eta, args.bins)
        path = f"{args.out_prefix}_{args.family}_n{n}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_diagnostics(rows, fh)
        medians = [r for r in rows if str(r[0]).startswith("median")]
        print(f"n={n}: {len(records)} communities, medians: "
              + ", ".join(f"{r[0]}={float(r[6]):.3f}" for r in medians)
              + f" -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
