"""Dead-end elimination: certified against brute force at levels 1 and 2.

A state may be dropped only when another retained state beats it under
every boundary, so every ground state survives an eta = 1 run, and within
one level the optimum of the retained product is unchanged at any eta.
The blocked test with early exit drops exactly the states that the one-pass
all-pairs test drops.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcreduce.reduction as reduction_module
from dcreduce.clustering import Partition
from dcreduce.optimizer import enumerate_low_exhaustive
from dcreduce.reduction import (
    ChainLevel,
    DecodeChain,
    ReducedProblem,
    build_reduced_iter,
    community_objective,
    decompose,
    encode_community,
    iteration_delta,
    prune_dominated,
)
from helpers import dead_end_gains, energy_of_indices, indices_from_bits, random_pubo, random_quadratic, spin_energies


def _level(rd, eta, padding, prune, objectives):
    """Windows, pruned or not, and encodings of every community of rd."""
    spectra, encodings = [], []
    for l, objective in enumerate(objectives):
        delta = iteration_delta(rd, l)
        spectrum = enumerate_low_exhaustive(objective, delta, eta)
        if prune:
            spectrum = prune_dominated(rd, l, spectrum)
        spectra.append(spectrum)
        encodings.append(encode_community(spectrum, padding, delta=delta))
    return spectra, encodings


def _two_levels(h, labels1, labels2, eta, padding, prune):
    """Level 1 under labels1, then level 2 under labels2 (None when labels2
    does not merge anything); returns the reduced problems and the chain."""
    rd = decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels(labels1))
    _, encodings = _level(rd, eta, padding, prune, h.split(rd.members))
    rp1 = build_reduced_iter(rd, encodings)
    chain = DecodeChain(h.n_vars, [ChainLevel(rd.members, tuple(encodings))])
    p2 = Partition.from_labels(labels2[:rp1.n_communities])
    if p2.n_communities == rp1.n_communities:
        return rp1, None, chain
    rd2 = decompose(rp1, p2)
    objectives = [community_objective(rd2, l) for l in range(len(rd2.members))]
    _, encodings2 = _level(rd2, eta, padding, prune, objectives)
    rp2 = build_reduced_iter(rd2, encodings2)
    chain.levels.append(ChainLevel(rd2.members, tuple(encodings2)))
    return rp1, rp2, chain


def _product(rp, chain, depth):
    """Every joint state of the retained product at ``depth`` as (reduced
    energy, decoded configuration)."""
    levels = DecodeChain(chain.n_vars, chain.levels[:depth + 1])
    out = []
    for joint in range(1 << rp.total_qubits):
        out.append((energy_of_indices(rp, indices_from_bits(rp, joint)), levels.decode_full(joint)))
    return out


@given(
    seed=st.integers(0, 10**6),
    pubo=st.booleans(),
    padding=st.sampled_from(["repeat", "penalty"]),
    n=st.integers(6, 11),
    eta=st.sampled_from([0.5, 1.0]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_ground_states_survive(seed, pubo, padding, n, eta, data):
    h = random_pubo(n, int(1.5 * n), seed, max_arity=3) if pubo else random_quadratic(n, 2 * n, seed)
    energies = spin_energies(h) - h.constant
    e_min = float(energies.min())
    tol = 1e-9 * max(1.0, abs(e_min))
    ground = {
        tuple((s >> j) & 1 for j in range(n)) for s in np.flatnonzero(energies <= e_min + tol).tolist()
    }
    labels1 = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    labels2 = data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    pruned = _two_levels(h, labels1, labels2, eta, padding, prune=True)
    plain = _two_levels(h, labels1, labels2, eta, padding, prune=False)
    for depth in (0, 1):
        rp, rp_plain = pruned[depth], plain[depth]
        if rp is None:
            continue
        product = _product(rp, pruned[2], depth)
        best = min(e for e, _ in product)
        # the optimum of the retained product is what pruning leaves alone
        assert best == pytest.approx(min(e for e, _ in _product(rp_plain, plain[2], depth)), abs=1e-9)
        if eta == 1.0:
            assert best == pytest.approx(e_min, abs=1e-9)
            assert ground <= {config for _, config in product}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: pruning level 1 narrows level 2's cut-off at eta < 1",
)
def test_level_two_optimum_survives_pruning_at_eta_below_one():
    # the recorded counterexample of ROADMAP item 10, run without a draw:
    # pruned, level 2 retains -2.79760 where unpruned it retains -3.95664
    h = random_quadratic(6, 12, 383479)
    labels1, labels2 = [2, 0, 0, 1, 0, 1], [0, 1, 0, 0]
    pruned = _two_levels(h, labels1, labels2, 0.5, "repeat", prune=True)
    plain = _two_levels(h, labels1, labels2, 0.5, "repeat", prune=False)
    best = min(e for e, _ in _product(pruned[1], pruned[2], 1))
    assert best == pytest.approx(min(e for e, _ in _product(plain[1], plain[2], 1)), abs=1e-9)


def _dominates_everywhere(h, members, x, y):
    """Brute force: y's local plus interaction energy is below x's under
    every assignment of the variables outside ``members``."""
    outside = [v for v in range(h.n_vars) if v not in members]
    for values in itertools.product((0, 1), repeat=len(outside)):
        bits = [0] * h.n_vars
        for v, b in zip(outside, values):
            bits[v] = b
        energy = []
        for state in (x, y):
            for j, v in enumerate(members):
                bits[v] = (state >> j) & 1
            energy.append(h.evaluate(tuple(bits)))
        if energy[0] <= energy[1]:
            return False
    return True


@pytest.mark.parametrize("pubo", [False, True])
def test_dropped_states_are_beaten_under_every_boundary(pubo):
    dropped = 0
    for seed in range(12):
        h = random_pubo(10, 15, seed, max_arity=3) if pubo else random_quadratic(10, 20, seed)
        labels = [v % 3 for v in range(10)]
        rd = decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels(labels))
        for l, local in enumerate(h.split(rd.members)):
            spectrum = enumerate_low_exhaustive(local, iteration_delta(rd, l), 1.0)
            kept = prune_dominated(rd, l, spectrum)
            assert kept.window == spectrum.window and kept.complete == spectrum.complete
            survivors = set(kept.packed.tolist())
            assert survivors <= set(spectrum.packed.tolist())
            for x in set(spectrum.packed.tolist()) - survivors:
                assert any(
                    _dominates_everywhere(h, rd.members[l], x, y)
                    for y in spectrum.packed[:reduction_module.PRUNE_CANDIDATES].tolist()
                )
                dropped += 1
    assert dropped


@pytest.mark.parametrize("pubo", [False, True])
@pytest.mark.parametrize("slab", [None, 8])
def test_prune_keeps_what_the_all_pairs_test_keeps(pubo, slab, monkeypatch):
    # the seeds and partitions of the test above, at levels 1 and 2; a slab
    # of 8 entries splits every window into blocks of candidates and chunks
    # of states
    if slab is not None:
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
    dropped = 0
    for seed in range(12):
        h = random_pubo(10, 15, seed, max_arity=3) if pubo else random_quadratic(10, 20, seed)
        rd = decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels([v % 3 for v in range(10)]))
        _, encodings = _level(rd, 1.0, "repeat", True, h.split(rd.members))
        rd2 = decompose(build_reduced_iter(rd, encodings), Partition.from_labels([0, 0, 1]))
        for level in (rd, rd2):
            for l in range(len(level.members)):
                spectrum = enumerate_low_exhaustive(community_objective(level, l), iteration_delta(level, l), 1.0)
                if spectrum.d < 2:
                    continue
                rows = reduction_module._coupling_rows(level, l, spectrum.packed)
                keep = ~(dead_end_gains(rows, spectrum.energies) > spectrum.window.tol).any(axis=0)
                kept = prune_dominated(level, l, spectrum)
                assert np.array_equal(kept.packed, spectrum.packed[keep])
                dropped += spectrum.d - kept.d
    assert dropped


def _random_stacks(rng, d, buckets, integral):
    """One (groups, rows, d) stack per row count, 1 to 10 groups each; float
    groups differ in scale, so summing them in another order rounds
    differently."""
    stacks = []
    for rows in rng.choice(np.arange(1, 9), buckets, replace=False):
        shape = (int(rng.integers(1, 11)), int(rows), d)
        if integral:
            stacks.append(rng.integers(-2, 3, shape).astype(float))
        else:
            stacks.append(rng.normal(0.0, 0.3, shape) * 10.0 ** rng.integers(-4, 2, (shape[0], 1, 1)))
    return stacks


@pytest.mark.parametrize("slab", [None, 1, 700])
@pytest.mark.parametrize("integral", [True, False])
def test_dead_ends_match_the_all_pairs_test(slab, integral, monkeypatch):
    # the lowest ``PRUNE_CANDIDATES`` states are the candidates, so d runs
    # from 2 to past them; small slabs split the candidates into blocks and
    # the states into chunks. Every tol is a gain: 0 and 1 of the integral
    # stacks, and of the float ones some states' largest gains and the
    # floats just below them, so a gain off by an ulp flips a decision.
    if slab is not None:
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
    rng = np.random.default_rng([slab or 0, integral])
    dropped = kept = 0
    for d in (2, 3, 17, 63, 64, 65, 150):
        for buckets in (1, 3):
            energies = np.sort(rng.integers(-8, 9, d).astype(float) if integral else rng.normal(0.0, 2.0, d))
            stacks = _random_stacks(rng, d, buckets, integral)
            gains = dead_end_gains(stacks, energies)
            if integral:
                tols = [0.0, 1.0]
            else:
                edges = gains.max(axis=0)[rng.choice(d, min(d, 4), replace=False)]
                tols = [*edges, *np.nextafter(edges, -np.inf)]
            for tol in tols:
                expected = (gains > tol).any(axis=0)
                assert np.array_equal(reduction_module._dead_ends(stacks, energies, float(tol)), expected)
                dropped += int(expected.sum())
                kept += int((~expected).sum())
    assert dropped and kept


def test_rows_over_the_cap_leave_the_community_unpruned(monkeypatch):
    h = random_quadratic(12, 24, 4)
    rd = decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels([v % 4 for v in range(12)]))
    _, encodings = _level(rd, 1.0, "repeat", True, h.split(rd.members))
    rd2 = decompose(build_reduced_iter(rd, encodings), Partition.from_labels([0, 0, 1, 1]))
    monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
    for l in range(len(rd2.members)):
        spectrum = enumerate_low_exhaustive(community_objective(rd2, l), iteration_delta(rd2, l), 1.0)
        assert prune_dominated(rd2, l, spectrum) is spectrum
