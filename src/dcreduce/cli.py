"""Command-line harness: solve, sweep, gen, and diagnostics.

The sweep command reproduces the reduction/approximation experiments:
one CSV row per (family, n, eta, seed) plus aggregate mean/std rows. A
point that fails becomes one ``kind=error`` row per eta with its message in
the ``error`` column. Approximation ratios use the exhaustive oracle up to
the 30-variable scan ceiling and the eta = 1 run on the same instance
beyond that. Sweep points are independent and seeded; DC_REDUCE_THREADS > 1
dispatches them to a process pool. Every command refuses bad input, then
opens ``--out`` (or takes stdout), before its first run. ``--prune off``
runs the paper's plain windows, without dead-end pruning.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .benchgen import family_by_label, generate, parse_spec_string
from .driver import (
    RunConfig,
    approximation_ratio,
    brute_force_reference,
    run,
    shift_diagnostics,
    write_trace,
)
from .errors import DomainError, FormatError, ParameterError, ResourceError
from .hamiltonian import format_edge_list, load_problem
from .optimizer import SCAN_CEILING

# Exit codes: bad input or parameters, and a request past a resource ceiling.
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_ROW_FIELDS = (
    "kind", "family", "n", "eta", "seed", "r", "alpha", "n_it", "n_q", "energy", "wall_ms", "error",
)


@dataclass(frozen=True)
class SweepSpec:
    """Each point runs ``config`` with its own eta and instance seed."""

    families: tuple[str, ...]
    sizes: tuple[int, ...]
    etas: tuple[float, ...]
    instances: int = 32
    seed0: int = 0
    config: RunConfig = RunConfig()

    def __post_init__(self):
        """Refuse bad input before any point runs: empty lists, a first or
        last seed, unknown family labels, and etas that ``RunConfig``
        refuses. Sizes a family cannot generate still fail per point, as
        error rows."""
        if self.instances < 1:
            raise ParameterError(f"--instances must be at least 1, got {self.instances}")
        for seed in (self.seed0, self.seed0 + self.instances - 1):
            replace(self.config, seed=seed)
        for name, values in (("family", self.families), ("size", self.sizes), ("eta", self.etas)):
            if not values:
                raise ParameterError(f"a sweep needs at least one {name}")
        for label in self.families:
            family_by_label(label)
        for eta in self.etas:
            replace(self.config, eta=eta)


def _sweep_task(task: tuple) -> list[dict]:
    """All rows for one (family, n, seed) instance across the eta grid."""
    label, n, seed, etas, config = task
    h = generate(family_by_label(label).spec_for(n, seed))
    rows: list[dict] = []
    results: dict[float, tuple] = {}
    for eta in etas:
        start = time.perf_counter()
        result = run(h, replace(config, eta=eta, seed=seed))
        wall_ms = 1000.0 * (time.perf_counter() - start)
        results[eta] = (result, wall_ms)
    if n <= SCAN_CEILING:
        reference = brute_force_reference(h)
    elif 1.0 in results:
        reference = results[1.0][0].best_energy
    else:
        reference = run(h, replace(config, eta=1.0, seed=seed)).best_energy
    for eta in etas:
        result, wall_ms = results[eta]
        try:
            alpha = approximation_ratio(result.best_energy, reference)
        except DomainError:
            alpha = None
        rows.append(
            {
                "kind": "row",
                "family": label,
                "n": n,
                "eta": eta,
                "seed": seed,
                "r": result.r,
                "alpha": alpha,
                "n_it": result.iterations_used,
                "n_q": result.n_q,
                "energy": result.best_energy,
                "wall_ms": wall_ms,
            }
        )
    return rows


def _error_rows(task: tuple, exc: Exception) -> list[dict]:
    """One ``kind=error`` row per eta of a failed sweep point."""
    label, n, seed, etas = task[:4]
    message = f"{type(exc).__name__}: {exc}"
    return [
        {"kind": "error", "family": label, "n": n, "eta": eta, "seed": seed, "error": message}
        for eta in etas
    ]


def _worker_count() -> int:
    """DC_REDUCE_THREADS as a positive number of worker processes (1 if unset)."""
    text = os.environ.get("DC_REDUCE_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParameterError(f"DC_REDUCE_THREADS must be a positive integer, got {text!r}")
    return workers


def run_sweep(spec: SweepSpec, log=None) -> list[dict]:
    """Execute a sweep; returns row dicts (aggregates included at the end).

    A failed point is logged and becomes ``kind=error`` rows. Raises
    ParameterError for a DC_REDUCE_THREADS that is not a positive integer.
    """
    log = log if log is not None else (lambda msg: print(msg, file=sys.stderr))
    workers = _worker_count()
    tasks = [
        (label, n, spec.seed0 + i, tuple(spec.etas), spec.config)
        for label in spec.families
        for n in spec.sizes
        for i in range(spec.instances)
    ]
    rows: list[dict] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # Each point's rows, computed here on demand or read from its future.
        if pool is None:
            outcomes = [partial(_sweep_task, task) for task in tasks]
        else:
            outcomes = [pool.submit(_sweep_task, task).result for task in tasks]
        for task, outcome in zip(tasks, outcomes):
            try:
                rows.extend(outcome())
            except Exception as exc:  # a failed point must not kill the sweep
                log(f"sweep point {task[:3]} failed: {exc}")
                rows.extend(_error_rows(task, exc))
    rows.extend(_aggregate(rows))
    return rows


def _aggregate(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["kind"] != "row":
            continue
        groups.setdefault((row["family"], row["n"], row["eta"]), []).append(row)
    out: list[dict] = []
    for (family, n, eta), members in sorted(groups.items()):
        for kind, fn in (("mean", np.mean), ("std", np.std)):
            alphas = [m["alpha"] for m in members if m["alpha"] is not None]
            out.append(
                {
                    "kind": kind,
                    "family": family,
                    "n": n,
                    "eta": eta,
                    "seed": None,
                    "r": float(fn([m["r"] for m in members])),
                    "alpha": float(fn(alphas)) if alphas else None,
                    "n_it": float(fn([m["n_it"] for m in members])),
                    "n_q": float(fn([m["n_q"] for m in members])),
                    "energy": float(fn([m["energy"] for m in members])),
                    "wall_ms": float(fn([m["wall_ms"] for m in members])),
                }
            )
    return out


def write_rows(rows: list[dict], fh) -> None:
    """Sweep rows as CSV onto an open text file, floats in ``repr`` form."""
    writer = csv.writer(fh)
    writer.writerow(_ROW_FIELDS)
    for row in rows:
        writer.writerow(["" if row.get(f) is None else repr(row[f]) if isinstance(row[f], float) else row[f] for f in _ROW_FIELDS])


# -- commands -----------------------------------------------------------------


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _output(path):
    """``path`` opened for writing, or stdout when no path is given."""
    return open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout)


def _run_config_of(args, **fields) -> RunConfig:
    """The RunConfig of the run flags that ``common_opt`` registers, plus
    ``fields``; one backend serves both optimizer slots."""
    return RunConfig(
        optimizer_o1=args.optimizer,
        optimizer_o2=args.optimizer,
        prune_dominated=args.prune == "on",
        **fields,
    )


def _cmd_solve(args) -> int:
    config = _run_config_of(args, eta=args.eta, seed=args.seed)
    result = run(load_problem(args.problem), config)
    print(f"energy {result.best_energy!r}")
    print(f"config {''.join(str(b) for b in result.best_config)}")
    print(f"n_q {result.n_q}")
    print(f"r {result.r:.6f}")
    print(f"n_it {result.iterations_used}")
    print(f"criterion {result.criterion}")
    if args.out:
        write_trace(result, args.out)
        print(f"trace {args.out}")
    return 0


def _cmd_gen(args) -> int:
    h = generate(parse_spec_string(args.spec))
    with _output(args.out) as fh:
        fh.write(format_edge_list(h))
    return 0


def _parse_list(text: str, kind, flag: str) -> tuple:
    """Comma-separated values of ``kind``; ParameterError names ``flag``."""
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ParameterError(f"{flag} takes comma-separated {kind.__name__} values, got {text!r}") from exc


def _cmd_sweep(args) -> int:
    families = tuple(x.strip() for x in args.family.split(",") if x.strip())
    spec = SweepSpec(
        families=families,
        sizes=_parse_list(args.n, int, "--n"),
        etas=_parse_list(args.eta, float, "--eta"),
        instances=args.instances,
        seed0=args.seeds,
        config=_run_config_of(args),
    )
    _worker_count()  # a bad DC_REDUCE_THREADS is refused before --out opens
    with _output(args.out) as fh:
        write_rows(run_sweep(spec), fh)
    return 0


def _cmd_diagnostics(args) -> int:
    family = family_by_label(args.family)
    if args.instances < 1:
        raise ParameterError(f"--instances must be at least 1, got {args.instances}")
    if args.bins < 1:
        raise ParameterError(f"--bins must be at least 1, got {args.bins}")
    config = _run_config_of(args, eta=args.eta, seed=args.seeds + args.instances - 1)
    seeds = range(args.seeds, args.seeds + args.instances)
    # every instance is generated before --out opens, so a bad seed or size
    # is refused first
    instances = [generate(family.spec_for(args.n, seed)) for seed in seeds]
    with _output(args.out) as fh:
        records = []
        for seed, h in zip(seeds, instances):
            result = run(h, replace(config, seed=seed))
            records.extend((seed, diag) for diag in shift_diagnostics(h, result))
        _write_diagnostics(diagnostics_rows(records, args.family, args.n, args.eta, args.bins), fh)
    return 0


def diagnostics_rows(records, family, n, eta, bins=20) -> list[list]:
    """Community rows, histogram bins, and medians for the shift ratios.

    Sign convention: energies near the optimum are negative, so ratio_a is
    reported signed and the histogram is taken over -ratio_a (larger means
    a stronger favorable shift); ratio_b divides two negative quantities,
    so values above 1 mean the local-plus-interaction energy undercuts the
    retained-window floor.
    """
    rows: list[list] = [
        ["kind", "family", "n", "eta", "seed", "community",
         "delta", "e0", "interaction_energy", "local_energy", "ratio_a", "ratio_b"]
    ]
    neg_a: list[float] = []
    ratio_b: list[float] = []
    for seed, diag in records:
        rows.append([
            "community", family, n, eta, seed, diag.community,
            repr(diag.delta), repr(diag.e0), repr(diag.interaction_energy),
            repr(diag.local_energy), repr(diag.ratio_a),
            "" if diag.ratio_b is None else repr(diag.ratio_b),
        ])
        neg_a.append(-diag.ratio_a)
        if diag.ratio_b is not None:
            ratio_b.append(diag.ratio_b)
    for name, data in (("neg_ratio_a", neg_a), ("ratio_b", ratio_b)):
        if not data:
            continue
        counts, edges = np.histogram(data, bins=bins)
        for b in range(len(counts)):
            rows.append(["hist_" + name, family, n, eta, "", "",
                         repr(float(edges[b])), repr(float(edges[b + 1])),
                         int(counts[b]), "", "", ""])
        rows.append(["median_" + name, family, n, eta, "", "",
                     repr(float(np.median(data))), "", "", "", "", ""])
    return rows


def _write_diagnostics(rows, fh) -> None:
    fh.write("# ratio_a signed; histograms over -ratio_a; ratio_b > 1 means deeper than the window floor\n")
    writer = csv.writer(fh)
    for row in rows:
        writer.writerow(row)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcreduce",
        description="Divide-and-conquer reduction and solving of QUBO/PUBO problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_opt(p):
        """The run flags that ``_run_config_of`` reads."""
        p.add_argument("--optimizer", choices=("auto", "exhaustive", "annealing"), default="auto")
        p.add_argument("--prune", choices=("on", "off"), default="on",
                       help="dead-end pruning; off runs the paper's plain windows")

    p_solve = sub.add_parser("solve", help="solve one problem file (.json or edge list)")
    p_solve.add_argument("problem")
    p_solve.add_argument("--eta", type=float, default=1.0, help="retained fraction of the certified window")
    common_opt(p_solve)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", default=None, help="write the JSON run trace here")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random instance as an edge list")
    p_gen.add_argument("--spec", required=True, help="e.g. 3reg:n=40:seed=7 or ws:k=4:p=0.3:n=24:seed=1")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_sweep = sub.add_parser("sweep", help="R/alpha/N_it sweep over families, sizes, and eta")
    p_sweep.add_argument("--family", required=True, help="comma-separated family labels")
    p_sweep.add_argument("--n", required=True, help="comma-separated sizes")
    p_sweep.add_argument("--eta", default="1.0", help="comma-separated eta values")
    p_sweep.add_argument("--instances", type=int, default=32)
    p_sweep.add_argument("--seeds", type=int, default=0, help="first instance seed")
    common_opt(p_sweep)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_diag = sub.add_parser("diagnostics", help="first-iteration interaction-shift histograms")
    p_diag.add_argument("--family", default="3reg")
    p_diag.add_argument("--n", type=int, default=24)
    p_diag.add_argument("--eta", type=float, default=1.0, help="retained fraction of the certified window")
    common_opt(p_diag)
    p_diag.add_argument("--instances", type=int, default=8)
    p_diag.add_argument("--seeds", type=int, default=0)
    p_diag.add_argument("--bins", type=int, default=20)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=_cmd_diagnostics)
    return parser


def main(argv=None) -> int:
    """Run one command; a typed error becomes one ``error:`` line and its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, FormatError, OSError, ParameterError) as exc:
        return _fail(exc, EXIT_INPUT)
    except ResourceError as exc:
        return _fail(exc, EXIT_RESOURCE)


if __name__ == "__main__":
    raise SystemExit(main())
