"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is sized for a few minutes of desk runtime.
"""

import numpy as np

from dcreduce.benchgen import GraphSpec, family_matrix, generate
from dcreduce.clustering import (
    Partition,
    louvain,
    louvain_with_history,
    modularity,
)
from dcreduce.driver import RunConfig, approximation_ratio, run, shift_diagnostics
from dcreduce.hamiltonian import PolyHamiltonian
from dcreduce.optimizer import (
    enumerate_low_exhaustive,
    enumerate_low_sampled,
)
from dcreduce.reduction import (
    ChainLevel,
    DecodeChain,
    ReducedProblem,
    build_reduced,
    build_reduced_iter,
    community_objective,
    decompose,
    delta_pubo,
    delta_two_body,
    encode_community,
    iteration_delta,
)
from helpers import (
    brute_min,
    energy_of_indices,
    flip_all,
    indices_from_bits,
    level1_partition,
    naive_modularity,
    random_graph,
    random_pubo,
    random_quadratic,
)

ETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_01_eta_one_oracle_exactness():
    sizes = (8, 10, 12, 14, 16)
    checked = 0
    worst = 0.0
    for entry in family_matrix():
        for n in sizes:
            for seed in range(4):
                h = generate(entry.spec_for(n, seed))
                if not h.terms:
                    continue
                result = run(h, RunConfig(eta=1.0, seed=seed))
                # every run stops on a recombination criterion
                assert result.criterion in (1, 2, 3), (entry.label, n, seed, result.criterion)
                diff = abs(result.best_energy - brute_min(h))
                worst = max(worst, diff)
                assert diff <= 1e-9, (entry.label, n, seed, diff)
                checked += 1
    _report(1, checked >= 200 and worst <= 1e-9,
            f"{checked} instances exact at eta=1 (worst |diff| = {worst:.2e})")


def test_criterion_02_pubo_eta_one_exactness():
    checked = 0
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(9, 15))
        h = random_pubo(n, int(1.6 * n), seed, max_arity=4)
        result = run(h, RunConfig(eta=1.0, seed=seed))
        diff = abs(result.best_energy - brute_min(h))
        worst = max(worst, diff)
        assert diff <= 1e-9, (seed, n, diff)
        checked += 1
    _report(2, checked >= 50, f"{checked} PUBO instances exact at eta=1 (worst {worst:.2e})")


def _pipeline_levels(h, seed, eta):
    """Manual two-level pipeline returning (reduced problem, chain) per level."""
    p1 = level1_partition(h, seed)
    if p1.n_communities < 2:
        return []
    d = decompose(ReducedProblem.from_hamiltonian(h), p1)
    encodings = []
    for i, members in enumerate(d.members):
        delta = delta_two_body(d, i) if h.is_pure_quadratic() else delta_pubo(d, i)
        encodings.append(encode_community(enumerate_low_exhaustive(h.restrict(members), delta, eta)))
    rp = build_reduced(d, encodings)
    chain = DecodeChain(h.n_vars, [ChainLevel(d.members, tuple(encodings))])
    levels = [(rp, DecodeChain(h.n_vars, list(chain.levels)))]
    labels = [i // 2 for i in range(rp.n_communities)]
    p2 = Partition.from_labels(labels)
    if p2.n_communities < rp.n_communities:
        rd = decompose(rp, p2)
        encodings2 = [
            encode_community(enumerate_low_exhaustive(community_objective(rd, l), iteration_delta(rd, l), eta))
            for l in range(p2.n_communities)
        ]
        rp2 = build_reduced_iter(rd, encodings2)
        chain.levels.append(ChainLevel(tuple(rd.members), tuple(encodings2)))
        levels.append((rp2, DecodeChain(h.n_vars, list(chain.levels))))
    return levels


def test_criterion_03_master_bookkeeping_identity():
    instances = 0
    tuples_checked = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(9, 15))
        if seed % 2:
            h = random_pubo(n, int(1.5 * n), seed)
        else:
            h = random_quadratic(n, 2 * n, seed)
        eta = 1.0 if seed % 3 else 0.6
        for rp, chain in _pipeline_levels(h, seed, eta):
            for joint in range(1 << rp.total_qubits):
                idx = indices_from_bits(rp, joint)
                reduced = energy_of_indices(rp, idx) + h.constant
                direct = h.evaluate(chain.decode_full(joint))
                assert abs(reduced - direct) <= 1e-9, (seed, joint)
                tuples_checked += 1
        instances += 1
    _report(3, instances >= 50,
            f"bookkeeping identity on {instances} instances / {tuples_checked} joint tuples")


# Criteria 04 and 05 reproduce the paper's R bands, so they run its plain
# windows, without dead-end pruning (criterion 11 covers pruning).
PAPER = {"prune_dominated": False}


def test_criterion_04_eta_sweep_desk_reproduction():
    seeds = range(32)
    results = {}
    for eta in ETA_GRID:
        results[eta] = [
            run(generate(GraphSpec("k_regular", 40, s, k=3)), RunConfig(eta=eta, seed=s, **PAPER))
            for s in seeds
        ]
    mean_r1 = float(np.mean([r.r for r in results[1.0]]))
    mean_r05 = float(np.mean([r.r for r in results[0.5]]))
    alphas = [
        approximation_ratio(half.best_energy, full.best_energy)
        for half, full in zip(results[0.5], results[1.0])
    ]
    mean_alpha = float(np.mean(alphas))
    ok = 0.43 <= mean_r1 <= 0.63 and 0.65 <= mean_r05 <= 0.83 and mean_alpha >= 0.995
    _report(4, ok,
            f"3-regular |V|=40: mean R(1)={mean_r1:.3f} in [0.43,0.63], "
            f"mean R(0.5)={mean_r05:.3f} in [0.65,0.83], mean alpha(0.5)={mean_alpha:.4f} >= 0.995")


def test_criterion_05_degree_trend_at_24():
    means = {}
    for entry in family_matrix():
        rs = []
        for seed in range(32):
            h = generate(entry.spec_for(24, seed))
            rs.append(run(h, RunConfig(eta=1.0, seed=seed, **PAPER)).r)
        means[entry.label] = (entry.degree_class, float(np.mean(rs)))
    group2 = float(np.mean([m for d, m in means.values() if d == 2]))
    group4 = float(np.mean([m for d, m in means.values() if d == 4]))
    r3 = means["3reg"][1]
    ok = group2 > group4 and 0.35 <= r3 <= 0.55
    _report(5, ok,
            f"|V|=24 eta=1: degree-2 mean R {group2:.3f} > degree-4 mean R {group4:.3f}; "
            f"3-regular mean R {r3:.3f} in [0.35,0.55]")


def test_criterion_06_window_population_monotone_in_eta():
    violations = 0
    instances = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 13))
        h = random_quadratic(n, 2 * n, seed)
        p = level1_partition(h, seed)
        d = decompose(ReducedProblem.from_hamiltonian(h), p)
        for i, members in enumerate(d.members):
            delta = delta_two_body(d, i)
            local = h.restrict(members)
            previous = 0
            for eta in ETA_GRID:
                count = enumerate_low_exhaustive(local, delta, eta).d
                if count < previous:
                    violations += 1
                previous = count
        instances += 1
    _report(6, violations == 0 and instances == 100,
            f"d_i(eta) non-decreasing on {instances} instances ({violations} violations)")


def test_criterion_07_louvain_suite():
    worst_gap = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 14))
        n_edges = int(rng.integers(n, min(2 * n, n * (n - 1) // 2) + 1))
        g = random_graph(n, n_edges, seed)
        p, history = louvain_with_history(g, seed=seed)
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-9, seed
        recomputed = naive_modularity(g, p.community_of)
        gap = abs(modularity(g, p) - recomputed)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-12, seed
    edges = {}
    for a in range(4):
        for b in range(a + 1, 4):
            edges[(a, b)] = 1.0
            edges[(a + 4, b + 4)] = 1.0
    edges[(0, 4)] = 0.1
    from dcreduce.clustering import WeightedGraph

    split = louvain(WeightedGraph(8, edges), seed=5)
    planted = split.communities == ((0, 1, 2, 3), (4, 5, 6, 7))
    _report(7, planted and worst_gap <= 1e-12,
            f"1000 graphs Q-monotone; modularity matches direct formula "
            f"(worst gap {worst_gap:.1e}); planted two-clique split recovered")


def test_criterion_08_sampled_enumerator_fidelity():
    exact_matches = 0
    violations = 0
    for trial in range(100):
        n = 10 + (trial % 3)
        h = random_quadratic(n, 2 * n, trial)
        delta = 2.0
        exhaustive = enumerate_low_exhaustive(h, delta, 1.0)
        sampled = enumerate_low_sampled(h, delta, 1.0, 10_000 + trial)
        states = sampled.packed.tolist()
        if len(set(states)) != len(states):
            violations += 1
        if any(not sampled.window.contains(e) for e in sampled.energies.tolist()):
            violations += 1
        if set(states) == set(exhaustive.packed.tolist()):
            exact_matches += 1
    _report(8, exact_matches >= 95 and violations == 0,
            f"sampled enumerator exact on {exact_matches}/100 communities "
            f"({violations} window/duplicate violations)")


def test_criterion_09_symmetry_and_conversions():
    # flip-all invariance, 1000 cases
    for case in range(1000):
        rng = np.random.default_rng(case)
        n = int(rng.integers(4, 12))
        h = random_quadratic(n, 2 * n, case)
        x = tuple(int(b) for b in rng.integers(0, 2, size=n))
        assert abs(h.evaluate(x) - h.evaluate(flip_all(x))) <= 1e-12, case
    # conversion round-trips at n = 12
    rng = np.random.default_rng(7)
    n = 12
    table = rng.uniform(-2.0, 2.0, size=1 << n)
    h = PolyHamiltonian.from_boolean_table(table)
    np.testing.assert_allclose(h.energies(np.arange(1 << n)), table, atol=1e-9)
    q = np.triu(rng.uniform(-2.0, 2.0, size=(n, n)))
    hq = PolyHamiltonian.from_qubo(q, 0.5)
    states = np.arange(1 << n)
    x = ((states[:, None] >> np.arange(n)) & 1).astype(float)
    np.testing.assert_allclose(
        hq.energies(states), np.einsum("si,ij,sj->s", x, q, x) + 0.5, atol=1e-9
    )
    _report(9, True, "Z2 invariance (1000 cases) and conversion round-trips exact at n=12")


def test_criterion_10_shift_diagnostics_sanity():
    ratio_a_values = []
    ratio_b_values = []
    violations = 0
    for seed in range(16):
        h = generate(GraphSpec("k_regular", 24, seed, k=3))
        result = run(h, RunConfig(eta=0.5, seed=seed))
        for diag in shift_diagnostics(h, result):
            ratio_a_values.append(diag.ratio_a)
            if diag.ratio_b is not None:
                ratio_b_values.append(diag.ratio_b)
            if abs(diag.ratio_a) > 1.0 + 1e-9:
                violations += 1
    median_a = float(np.median([-a for a in ratio_a_values]))
    median_b = float(np.median(ratio_b_values))
    ok = violations == 0 and len(ratio_a_values) > 0
    _report(10, ok,
            f"{len(ratio_a_values)} first-iteration communities, |ratio_a| <= 1 "
            f"({violations} violations); medians: -ratio_a {median_a:.3f}, ratio_b {median_b:.3f}")


def test_criterion_11_dead_end_pruning_raises_r_exactly():
    r_on, r_off = [], []
    for s in range(32):
        h = generate(GraphSpec("k_regular", 40, s, k=3))
        r_on.append(run(h, RunConfig(eta=1.0, seed=s)).r)
        r_off.append(run(h, RunConfig(eta=1.0, seed=s, **PAPER)).r)
    worst = 0.0
    checked = 0
    for entry in family_matrix():
        for seed in range(3):
            h = generate(entry.spec_for(16, seed))
            if h.terms:
                worst = max(worst, abs(run(h, RunConfig(eta=1.0, seed=seed)).best_energy - brute_min(h)))
                checked += 1
    mean_on, mean_off = float(np.mean(r_on)), float(np.mean(r_off))
    _report(11, mean_on > mean_off and worst <= 1e-9,
            f"3-regular |V|=40 eta=1: mean R {mean_on:.3f} pruned > {mean_off:.3f} plain; "
            f"{checked} pruned |V|=16 runs exact (worst |diff| = {worst:.2e})")
