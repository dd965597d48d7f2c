"""The benchmark's workloads: fixed instance matrices built through dcreduce.

Why each workload was chosen is recorded in BENCHMARK.json and the README.
Every builder takes the imported ``dcreduce`` module, so that building the
instances is part of the measured set-up, and an instance-seed offset, which
is 0 for the benchmark itself and moves the whole matrix to other seeds for
the seed-to-seed spread reported in the README. The run seed of each case is
its instance seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Case:
    label: str
    h: object  # dcreduce.PolyHamiltonian
    cfg: object  # dcreduce.RunConfig


def _three_regular(dc, n, seed):
    return dc.benchgen.generate(dc.GraphSpec("k_regular", n, seed, k=3))


def eta_sweep_3reg40(dc, offset):
    cases = []
    for seed in range(offset, offset + 32):
        h = _three_regular(dc, 40, seed)
        for eta in (0.25, 0.5, 0.75, 1.0):
            cases.append(Case(f"3reg40-s{seed}-eta{eta}", h, dc.RunConfig(eta=eta, seed=seed)))
    return cases


def large_3reg120(dc, offset):
    """Not in BENCHMARK.json: one ~22 s round per run, too unsteady to gate
    (see the README); kept for runs by hand on the large-table paths."""
    return [
        Case(f"3reg120-s{seed}-eta0.5", _three_regular(dc, 120, seed), dc.RunConfig(eta=0.5, seed=seed))
        for seed in range(offset, offset + 4)
    ]


def structured_pubo(dc, n, seed):
    """3-regular couplings from benchgen, plus per vertex one cubic term on the
    vertex and two of its neighbours and one field, all uniform in [-1, 1]."""
    graph = _three_regular(dc, n, seed)
    rng = np.random.default_rng([seed, 3])
    neighbours = [[] for _ in range(n)]
    for u, v in sorted(graph.terms):
        neighbours[u].append(v)
        neighbours[v].append(u)
    items = list(graph.terms.items())
    for v in range(n):
        a, b = rng.choice(sorted(neighbours[v]), size=2, replace=False)
        items.append(((v, int(a), int(b)), float(rng.uniform(-1.0, 1.0))))
    for v in range(n):
        items.append(((v,), float(rng.uniform(-1.0, 1.0))))
    # A cubic term drawn from two of its vertices merges into one coefficient.
    return dc.PolyHamiltonian.from_terms(n, items)


def pubo_sampled24(dc, offset):
    return [
        Case(
            f"pubo24-s{seed}-eta0.5",
            structured_pubo(dc, 24, seed),
            dc.RunConfig(eta=0.5, seed=seed, optimizer_o1="annealing"),
        )
        for seed in range(offset, offset + 24)
    ]


WORKLOADS = {
    "eta_sweep_3reg40": eta_sweep_3reg40,
    "large_3reg120": large_3reg120,
    "pubo_sampled24": pubo_sampled24,
}
