"""One workload in one process: set up, time ``run()``, check, report.

Started by ``run.py`` in a fresh process with single-threaded BLAS/OpenMP
pools. Prints a summary and, as its last line, the result JSON. Exits 2
when ``dcreduce`` cannot be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import exact  # noqa: E402
import hostspeed  # noqa: E402
from layers import COUNTERS, LAYERS, LayerTrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups per process; setup_s is their median.
SETUP_REPEATS = 9
# Seconds of reference loops at least on either side of a set-up, and at
# the start of a round.
SETUP_SAMPLE_S = 0.02
ROUND_START_S = 0.1

REL_TOL = 1e-9


def _tol(energy: float) -> float:
    return REL_TOL * max(1.0, abs(energy))


def set_up(build, offset):
    """Import dcreduce afresh, build the instances, make one warm-up run.

    Returns the set-up time at nominal host speed, the module and the cases.
    """
    for name in [m for m in sys.modules if m == "dcreduce" or m.startswith("dcreduce.")]:
        del sys.modules[name]
    gc.collect()
    meter = hostspeed.Meter()
    meter.sample(at_least_s=SETUP_SAMPLE_S)
    start = time.perf_counter()
    dc = importlib.import_module("dcreduce")
    cases = build(dc, offset)
    dc.run(cases[0].h, cases[0].cfg)
    seconds = time.perf_counter() - start
    meter.sample(seconds, at_least_s=SETUP_SAMPLE_S)
    return meter.scale(seconds), dc, cases


def check_result(case, res, e_exact):
    """Problems found in one run() result, and whether it was certified.

    A run is certified when every window was enumerated completely and the
    recombined solve was an exhaustive scan; at eta = 1 it must then return
    the exact ground energy.
    """
    problems = []
    terms, n = case.h.terms, case.h.n_vars
    if len(res.best_config) != n:
        return [f"{case.label}: best_config has {len(res.best_config)} bits, expected {n}"], False
    own = exact.evaluate(terms, res.best_config)
    if abs(own - res.best_energy) > _tol(own):
        problems.append(f"{case.label}: best_energy {res.best_energy} but best_config evaluates to {own}")
    if res.best_energy < e_exact - _tol(e_exact):
        problems.append(f"{case.label}: energy {res.best_energy} below the exact ground energy {e_exact}")
    if res.n_q != max(res.trace.invocations):
        problems.append(f"{case.label}: n_q {res.n_q} != max(invocations) {max(res.trace.invocations)}")
    if abs(res.r - (1.0 - res.n_q / n)) > 1e-12:
        problems.append(f"{case.label}: r {res.r} != 1 - n_q/|V| = {1.0 - res.n_q / n}")
    certified = (
        all(all(level.complete) for level in res.trace.levels)
        and case.cfg.optimizer_o2 != "annealing"
        and res.trace.invocations[-1] <= case.cfg.brute_force_ceiling
    )
    if certified and case.cfg.eta == 1.0 and abs(res.best_energy - e_exact) > _tol(e_exact):
        problems.append(f"{case.label}: certified eta=1 run returned {res.best_energy}, exact {e_exact}")
    return problems, certified


def check_windows(windows):
    """Check sampled windows on PolyHamiltonians against brute force.

    Every kept state must carry its own energy and lie inside
    [e0, e0 + eta * delta] of the spectrum it belongs to, and e0 must not
    undercut the window's exact minimum. Windows too large to brute-force
    are skipped. Returns (problems, kept states inside the exact window,
    states in the exact window, windows skipped).
    """
    problems, found, total, skipped = [], 0, 0, 0
    for h, delta, eta, spectrum in windows:
        if h.n_vars > exact.MAX_BRUTE_FORCE_VARS:
            skipped += 1
            continue
        energies = exact.brute_force_energies(h.n_vars, h.terms)
        e_min = float(energies.min())
        hi = e_min + eta * delta
        tol = _tol(abs(e_min) + delta)
        total += int(np.count_nonzero(energies <= hi + tol))
        e0 = spectrum.states[0][1]
        if e0 < e_min - tol:
            problems.append(f"sampled window e0 {e0} below the exact minimum {e_min}")
        for config, claimed in spectrum.states:
            own = exact.evaluate(h.terms, config)
            if abs(own - claimed) > _tol(own):
                problems.append(f"sampled state energy {claimed} evaluates to {own}")
            if not e0 - tol <= own <= e0 + eta * delta + tol:
                problems.append(f"sampled state energy {own} outside [{e0}, {e0 + eta * delta}]")
            if own <= hi + tol:
                found += 1
    return problems, found, total, skipped


class Record(NamedTuple):
    label: str
    energy: float
    n_q: int
    r: float
    alpha: float
    certified_eta1: bool


class Round:
    """One pass over every case, in the run's order.

    Each result is checked as soon as its call is timed and only a summary
    is kept, so the process's memory does not grow with the round count.
    ``raw`` are the calls' wall times as measured, ``times`` the same at
    nominal host speed, filled in when the round ends.
    """

    def __init__(self):
        self.raw = []
        self.times = []
        self.records = []
        self.failures = []
        self.problems = []

    @property
    def wall(self):
        return sum(self.times)

    @property
    def raw_wall(self):
        return sum(self.raw)


def run_round(dc, cases, order, references):
    """Call run() on every case, with reference loops before and between."""
    rnd = Round()
    meter = hostspeed.Meter()
    meter.sample(at_least_s=ROUND_START_S)
    for i in order:
        case = cases[i]
        res = error = None
        start = time.perf_counter()
        try:
            res = dc.run(case.h, case.cfg)
        except Exception as exc:  # a failed call is counted, the run goes on
            error = exc
        seconds = time.perf_counter() - start
        meter.sample(seconds)
        rnd.raw.append(seconds)
        if error is not None:
            rnd.failures.append(f"{case.label}: {type(error).__name__}: {error}")
            continue
        e_exact = references[id(case.h)]
        problems, certified = check_result(case, res, e_exact)
        rnd.problems += problems
        rnd.records.append(Record(
            case.label, res.best_energy, res.n_q, res.r, res.best_energy / e_exact,
            certified and case.cfg.eta == 1.0,
        ))
    rnd.times = [meter.scale(t) for t in rnd.raw]
    return rnd


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_times):
    # Every round calls the cases in the same order, so zip pairs each case's
    # times; a case's median over rounds keeps one slow call from moving p50.
    case_times = [statistics.median(ts) for ts in zip(*(rnd.times for rnd in rounds))]
    records = [rec for rnd in rounds for rec in rnd.records]
    alphas = [rec.alpha for rec in records]
    return {
        "wall_s": metric(statistics.median(rnd.wall for rnd in rounds), "s"),
        "run_p50_ms": metric(1e3 * statistics.median(case_times), "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "r_mean": metric(statistics.fmean(rec.r for rec in records), "ratio"),
        "n_q_max": metric(max(rec.n_q for rec in records), "qubits"),
        "alpha_mean": metric(statistics.fmean(alphas), "ratio"),
        "alpha_min": metric(min(alphas), "ratio"),
    }


def per_layer(tracer, traced, untraced, recall):
    k = len(traced)
    traced_wall = statistics.fmean(rnd.wall for rnd in traced)
    # Layer times are raw; bring them to nominal host speed with the traced
    # rounds' own factor, so that they add up to trace.wall_s.
    speed = sum(rnd.wall for rnd in traced) / sum(rnd.raw_wall for rnd in traced)
    seconds = {layer: speed * tracer.seconds[layer] / k for layer in LAYERS}
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = metric(tracer.calls[layer] / k, "count")
        out[f"{layer}.s"] = metric(seconds[layer], "s")
    for name in COUNTERS:
        out[name] = metric(tracer.counts[name] / k, "count")
    for layer in ("optimizer.window_exhaustive", "optimizer.recombined_exhaustive"):
        busy = seconds[layer] * k
        out[f"{layer}.states_per_s"] = metric(
            tracer.counts[f"{layer}.states_scanned"] / busy if busy else 0.0, "1/s"
        )
    out["optimizer.window_sampled.recall"] = metric(recall, "ratio")
    out["optimizer.recombined_anneal.max_vars"] = metric(tracer.max_anneal_vars, "qubits")
    out["driver.self_s"] = metric(traced_wall - sum(seconds.values()), "s")
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(
        traced_wall - statistics.fmean(rnd.wall for rnd in untraced), "s"
    )
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--instance-offset", type=int, default=0)
    args = ap.parse_args(argv)
    build = WORKLOADS[args.workload]

    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            seconds, dc, cases = set_up(build, args.instance_offset)
            setup_times.append(seconds)
    except ImportError as exc:
        print(f"cannot import dcreduce from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(dc.__file__).resolve().is_relative_to(SRC):
        print(f"dcreduce was imported from {dc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    references = {}
    for case in cases:
        if id(case.h) not in references:
            references[id(case.h)] = exact.ground_energy(case.h.n_vars, case.h.terms)
    if max(references.values()) >= 0.0:
        print("an exact ground energy is not negative; alpha is undefined", file=sys.stderr)
        return 3

    # The instances are fixed; the seed orders the calls within a round.
    order = np.random.default_rng(args.seed).permutation(len(cases))
    tracer = LayerTrace(dc)
    untraced, traced = [], []
    gc.collect()
    start = time.perf_counter()
    while True:
        untraced.append(run_round(dc, cases, order, references))
        if args.trace:
            tracer.install()
            try:
                traced.append(run_round(dc, cases, order, references))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    rounds = untraced + traced

    problems = [p for rnd in rounds for p in rnd.problems]
    first = {rec.label: rec for rec in untraced[0].records}
    for rnd in rounds[1:]:
        for rec in rnd.records:
            ref = first.get(rec.label)
            if ref is not None and (rec.energy, rec.n_q) != (ref.energy, ref.n_q):
                problems.append(f"{rec.label}: result differs between rounds")
    certified_eta1 = sum(rec.certified_eta1 for rec in untraced[0].records)
    window_problems, found, total, skipped = check_windows(tracer.windows)
    problems += window_problems
    attempted = sum(len(rnd.times) for rnd in rounds)
    failures = [f for rnd in rounds for f in rnd.failures]
    results_ok = all(rnd.records for rnd in rounds)

    if args.trace:
        metrics = per_layer(tracer, traced, untraced, found / total if total else 0.0)
    elif results_ok:
        metrics = end_to_end(untraced, setup_times)
    else:
        metrics = {}

    print(f"workload {args.workload}: {len(cases)} cases, {len(rounds)} rounds, "
          f"seed {args.seed}, instance offset {args.instance_offset}")
    print(f"run() calls attempted {attempted}, failed {len(failures)}")
    for what, key in (("at nominal host speed", "wall"), ("as measured", "raw_wall")):
        print(f"round wall times {what} (s): untraced "
              + " ".join(f"{getattr(r, key):.3f}" for r in untraced)
              + ("; traced " + " ".join(f"{getattr(r, key):.3f}" for r in traced) if traced else ""))
    print(f"eta=1 runs certified and exact, first round: {certified_eta1}")
    if args.trace:
        print(f"sampled windows checked by brute force: {len(tracer.windows) - skipped}, "
              f"too large to check: {skipped}")
        if tracer.absent:
            print(f"absent from dcreduce (their metrics read 0): {', '.join(tracer.absent)}")
    for line in failures[:10] + problems[:20]:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = not problems and results_ok and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
