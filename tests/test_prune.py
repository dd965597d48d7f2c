"""Dead-end elimination: certified against brute force at levels 1 and 2.

A state may be dropped only when another retained state beats it under
every boundary, so every ground state survives an eta = 1 run, and within
one level the optimum of the retained product is unchanged at any eta.
Before the test, every state with a padded register index is replaced by
its valid twin, so each configuration is tested and encoded once; the
blocked test with early exit then drops exactly the states that the
one-pass all-pairs test drops from the window with its aliases replaced.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcreduce as dc
import dcreduce.reduction as reduction_module
from dcreduce.clustering import Partition
from dcreduce.optimizer import LocalSpectrum, enumerate_low_exhaustive
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
from helpers import (
    coupling_rows, dead_end_gains, energy_of_indices, indices_from_bits, random_pubo, random_quadratic,
    spin_energies, twin_states, without_aliases,
)


def _level(rd, eta, prune, objectives):
    """Windows, pruned or not, and encodings of every community of rd."""
    spectra, encodings = [], []
    for l, objective in enumerate(objectives):
        spectrum = enumerate_low_exhaustive(objective, iteration_delta(rd, l), eta)
        if prune:
            spectrum = prune_dominated(rd, l, spectrum)
        spectra.append(spectrum)
        encodings.append(encode_community(spectrum))
    return spectra, encodings


def _two_levels(h, labels1, labels2, eta, prune):
    """Level 1 under labels1, then level 2 under labels2 (None when labels2
    does not merge anything); returns the reduced problems and the chain."""
    rd = decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels(labels1))
    _, encodings = _level(rd, eta, prune, h.split(rd.members))
    rp1 = build_reduced_iter(rd, encodings)
    chain = DecodeChain(h.n_vars, [ChainLevel(rd.members, tuple(encodings))])
    p2 = Partition.from_labels(labels2[:rp1.n_communities])
    if p2.n_communities == rp1.n_communities:
        return rp1, None, chain
    rd2 = decompose(rp1, p2)
    objectives = [community_objective(rd2, l) for l in range(len(rd2.members))]
    _, encodings2 = _level(rd2, eta, prune, objectives)
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
    n=st.integers(6, 11),
    eta=st.sampled_from([0.5, 1.0]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_ground_states_survive(seed, pubo, n, eta, data):
    h = random_pubo(n, int(1.5 * n), seed, max_arity=3) if pubo else random_quadratic(n, 2 * n, seed)
    energies = spin_energies(h) - h.constant
    e_min = float(energies.min())
    tol = 1e-9 * max(1.0, abs(e_min))
    ground = {
        tuple((s >> j) & 1 for j in range(n)) for s in np.flatnonzero(energies <= e_min + tol).tolist()
    }
    labels1 = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    labels2 = data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    pruned = _two_levels(h, labels1, labels2, eta, prune=True)
    plain = _two_levels(h, labels1, labels2, eta, prune=False)
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
@pytest.mark.parametrize("n, seed, labels1, labels2", [
    # pruned, level 2 retains -2.79760 where unpruned it retains -3.95664
    (6, 383479, [2, 0, 0, 1, 0, 1], [0, 1, 0, 0]),
    # pruned, level 2 retains -4.07756 where unpruned it retains -4.34588
    (7, 926480, [0, 1, 1, 0, 0, 0, 2], [1, 0, 1, 0]),
], ids=["seed383479", "seed926480"])
def test_level_two_optimum_survives_pruning_at_eta_below_one(n, seed, labels1, labels2):
    # the recorded counterexamples of ROADMAP item 10, run without a draw
    h = random_quadratic(n, 2 * n, seed)
    pruned = _two_levels(h, labels1, labels2, 0.5, prune=True)
    plain = _two_levels(h, labels1, labels2, 0.5, prune=False)
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


def _windows(pubo, seed):
    """The seeds and partitions of the test above: every complete eta = 1
    window at levels 1 and 2, as (decomposition, community, spectrum)."""
    h = random_pubo(10, 15, seed, max_arity=3) if pubo else random_quadratic(10, 20, seed)
    rd = decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels([v % 3 for v in range(10)]))
    _, encodings = _level(rd, 1.0, True, h.split(rd.members))
    rd2 = decompose(build_reduced_iter(rd, encodings), Partition.from_labels([0, 0, 1]))
    for level in (rd, rd2):
        for l in range(len(level.members)):
            yield level, l, enumerate_low_exhaustive(community_objective(level, l), iteration_delta(level, l), 1.0)


def _all_pairs_keeps(rd, l, spectrum):
    """The all-pairs test's survivors of the window with its aliases replaced."""
    spectrum = without_aliases(rd, l, spectrum)
    if spectrum.d < 2:
        return spectrum.packed
    rows = reduction_module._coupling_rows(rd, l, spectrum.packed)
    return spectrum.packed[~(dead_end_gains(rows, spectrum.energies) > spectrum.window.tol).any(axis=0)]


@pytest.mark.parametrize("pubo", [False, True])
@pytest.mark.parametrize("slab", [None, 8])
def test_prune_keeps_what_the_all_pairs_test_keeps(pubo, slab, monkeypatch):
    # a slab of 8 entries splits every window into blocks of candidates and
    # chunks of states
    if slab is not None:
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
    dropped = 0
    for seed in range(12):
        for rd, l, spectrum in _windows(pubo, seed):
            kept = prune_dominated(rd, l, spectrum)
            assert np.array_equal(kept.packed, _all_pairs_keeps(rd, l, spectrum))
            dropped += spectrum.d - kept.d
    assert dropped


@pytest.mark.parametrize("pubo", [False, True])
@pytest.mark.parametrize("cap", [None, 16])
def test_coupling_rows_match_the_member_by_member_reference(pubo, cap, monkeypatch):
    # the rows of every level-1 and level-2 window and of its two lowest
    # states, padded members included, equal the reference's bit for bit,
    # stack by stack in the same order; under a cap of 16 entries the rows
    # of two states still fit where some level-2 couplings are read entry-wise
    if cap is not None:
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", cap)
    padded = lazy = 0
    for seed in range(12):
        for rd, l, spectrum in _windows(pubo, seed):
            for packed in (spectrum.packed, spectrum.packed[:2]):
                rows = reduction_module._coupling_rows(rd, l, packed)
                reference = coupling_rows(rd, l, packed)
                if reference is None:
                    assert rows is None
                    continue
                assert [(s.dtype, s.shape) for s in rows] == [(s.dtype, s.shape) for s in reference]
                assert [s.tobytes() for s in rows] == [s.tobytes() for s in reference]
                padded += any(rd.rp.encodings[c].d < rd.rp.encodings[c].d_tilde for c in rd.members[l])
                lazy += any(not rd.rp.couplings[fp].can_materialize for fp in rd.straddle_by_super[l])
    assert padded
    assert lazy if cap is not None else not lazy


def _decode(rd, l, packed):
    """Each packed state of community ``l`` as the tuple of its members'
    decoded states: equal tuples are one configuration of the variables."""
    out = []
    for state in np.asarray(packed).tolist():
        config, offset = [], 0
        for c in rd.members[l]:
            enc = rd.rp.encodings[c]
            config.append(int(enc.decode[(state >> offset) & ((1 << enc.m_tilde) - 1)]))
            offset += enc.m_tilde
        out.append(tuple(config))
    return out


@pytest.mark.parametrize("pubo", [False, True])
def test_complete_level_two_window_is_pruned_to_distinct_states(pubo):
    # every configuration of the window is tested and encoded once: the kept
    # states have no padded index and decode to what the reference keeps
    aliased = 0
    for seed in range(12):
        for rd, l, spectrum in _windows(pubo, seed):
            twins = twin_states(rd, l, spectrum.packed)
            if twins == spectrum.packed.tolist():
                continue
            aliased += 1
            # an alias decodes to its twin's configuration
            assert _decode(rd, l, twins) == _decode(rd, l, spectrum.packed)
            kept = prune_dominated(rd, l, spectrum)
            assert twin_states(rd, l, kept.packed) == kept.packed.tolist()
            decoded = _decode(rd, l, kept.packed)
            assert len(set(decoded)) == kept.d
            assert set(decoded) == set(_decode(rd, l, _all_pairs_keeps(rd, l, spectrum)))
    assert aliased


def test_sampled_alias_without_its_twin_keeps_the_twin():
    # a level-2 window of padded members, hand-thinned as a sampler might
    # leave it: without the twin of an alias, with other aliases and twins
    rd, l, spectrum, twins = next(
        (rd, l, spectrum, twins) for rd, l, spectrum in _windows(False, 0)
        for twins in [np.array(twin_states(rd, l, spectrum.packed))]
        if len(set(twins[twins != spectrum.packed].tolist())) >= 2
    )
    alias = int(np.flatnonzero(twins != spectrum.packed)[0])
    twin = int(twins[alias])
    thinned = spectrum.packed != twin
    sampled = LocalSpectrum(
        spectrum.packed[thinned], spectrum.energies[thinned], spectrum.window, False, spectrum.n_vars
    )
    replaced = reduction_module._without_aliases(rd, l, sampled)
    reference = without_aliases(rd, l, sampled)
    assert np.array_equal(replaced.packed, reference.packed)
    assert np.array_equal(replaced.energies, reference.energies)
    assert twin in replaced.packed.tolist()
    assert replaced.window == sampled.window and not replaced.complete
    assert np.array_equal(prune_dominated(rd, l, sampled).packed, _all_pairs_keeps(rd, l, sampled))
    # alone in its spectrum, the alias is encoded as its twin
    alone = LocalSpectrum(spectrum.packed[alias:alias + 1], spectrum.energies[alias:alias + 1],
                          spectrum.window, False, spectrum.n_vars)
    assert prune_dominated(rd, l, alone).packed.tolist() == [twin]


def _padded(encodings, members, packed):
    """Which packed states hold an index past some member encoding's ``d``."""
    out = []
    for state in np.asarray(packed).tolist():
        offset, padded = 0, False
        for c in members:
            padded |= (state >> offset) & ((1 << encodings[c].m_tilde) - 1) >= encodings[c].d
            offset += encodings[c].m_tilde
        out.append(padded)
    return out


def _level_two_aliases(result):
    """Level-2 states that hold a padded index of a level-1 register, and
    all level-2 states."""
    below, level = result.chain.levels[0].encodings, result.chain.levels[1]
    aliases = sum(sum(_padded(below, members, enc.decode[:enc.d]))
                  for members, enc in zip(level.membership, level.encodings))
    return aliases, sum(enc.d for enc in level.encodings)


def test_aliases_stay_with_pruning_off():
    # 3-regular |V| = 24, seed 3, eta 1 (before aliases were replaced, the
    # pruned run encoded 4 aliases among its 10 level-2 states)
    h = dc.benchgen.generate(dc.GraphSpec("k_regular", 24, 3, k=3))
    pruned = dc.run(h, dc.RunConfig(eta=1.0, seed=3))
    plain = dc.run(h, dc.RunConfig(eta=1.0, seed=3, prune_dominated=False))
    assert _level_two_aliases(pruned) == (0, 6)
    assert _level_two_aliases(plain) == (70, 126)
    assert pruned.best_energy == plain.best_energy


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
    _, encodings = _level(rd, 1.0, True, h.split(rd.members))
    rd2 = decompose(build_reduced_iter(rd, encodings), Partition.from_labels([0, 0, 1, 1]))
    monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
    for l in range(len(rd2.members)):
        spectrum = enumerate_low_exhaustive(community_objective(rd2, l), iteration_delta(rd2, l), 1.0)
        assert prune_dominated(rd2, l, spectrum) is spectrum


def _register_configs(result):
    """Per level, per register: whether its window was complete, and its
    retained states decoded to the bits of its original variables, in
    membership order. A register index past d repeats index ``mu % d``."""
    below = [[(b,) for b in (0, 1)] for _ in range(result.n_vars)]
    widths = [1] * result.n_vars
    out = []
    for trace, level in zip(result.trace.levels, result.chain.levels):
        registers = []
        for members, enc in zip(level.membership, level.encodings):
            configs = []
            for state in enc.decode[:enc.d].tolist():
                bits = ()
                for c in members:
                    idx = state & ((1 << widths[c]) - 1)
                    bits += below[c][idx % len(below[c])]
                    state >>= widths[c]
                configs.append(bits)
            registers.append(configs)
        out.append(list(zip(trace.complete, registers)))
        below, widths = registers, [enc.m_tilde for enc in level.encodings]
    return out


@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_complete_registers_are_flip_closed_after_pruning(eta):
    # ROADMAP item 10(b): the two-body cut-off at level >= 2 takes half the
    # interaction's range, which holds when every complete register that
    # pruning leaves also keeps the all-spins flip of each retained state
    cases = [(dc.GraphSpec("k_regular", 40, seed, k=3), seed) for seed in range(32)]
    cases += [(entry.spec_for(n, seed), seed) for entry in dc.family_matrix() for n in (24, 32) for seed in range(6)]
    checked = 0
    for spec, seed in cases:
        h = dc.generate(spec)
        if not h.terms:
            continue
        assert h.is_pure_quadratic()
        result = dc.run(h, dc.RunConfig(eta=eta, seed=seed))
        for depth, registers in enumerate(_register_configs(result), start=1):
            for c, (complete, configs) in enumerate(registers):
                if not complete:
                    continue
                retained = set(configs)
                assert {tuple(1 - b for b in x) for x in retained} == retained, (spec, eta, depth, c)
                checked += 1
    assert checked > 500
