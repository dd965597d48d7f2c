"""Encoding, reduced-problem, and decode-chain tests.

The master bookkeeping identity -- reduced energy equals the original
energy of the decoded configuration for every joint index tuple at every
level -- is the load-bearing test here; it subsumes the per-equation
checks of the encoding and coupling construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcreduce.clustering import Partition
from dcreduce.errors import ResourceError
from dcreduce.hamiltonian import MAX_PACKED_VARS, PolyHamiltonian, bits_to_int, int_to_bits
from dcreduce.optimizer import LocalSpectrum, Window, _check_packable, _freeze, enumerate_low_exhaustive
import dcreduce.reduction as reduction_module
from dcreduce.reduction import (
    ChainLevel,
    _coupling_range,
    _member_gathers,
    Coupling,
    DecodeChain,
    EncodedCommunity,
    ReducedProblem,
    TableObjective,
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
    energy_of_indices, indices_from_bits, is_padded, level1_partition, random_coupling, random_pubo,
    random_quadratic, spin_energies, split_registers, without_aliases,
)


def _level_one(h, labels, eta=1.0):
    d = decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels(labels))
    encodings = []
    for i, members in enumerate(d.members):
        delta = delta_two_body(d, i) if d.rp.quadratic else delta_pubo(d, i)
        encodings.append(encode_community(enumerate_low_exhaustive(h.split([members])[0], delta, eta)))
    rp = build_reduced(d, encodings)
    chain = DecodeChain(h.n_vars, [ChainLevel(d.members, tuple(encodings))])
    return d, rp, chain


def _footprint(d, subset):
    """Ascending ids of the communities a level-0 term touches."""
    return tuple(sorted({d.partition.community_of[v] for v in subset}))


def _check_master_identity(h, rp, chain, constant):
    for joint in range(1 << rp.total_qubits):
        idx = indices_from_bits(rp, joint)
        reduced = energy_of_indices(rp, idx) + constant
        decoded = chain.decode_full(joint)
        assert reduced == pytest.approx(h.evaluate(decoded), abs=1e-9)


class TestEncode:
    def _spectrum(self, d, n=4, seed=0):
        # fabricate a spectrum with d states via a window over a random local
        h = random_quadratic(n, 2 * n, seed)
        energies = np.sort(spin_energies(h))
        delta = float(energies[d - 1] - energies[0]) if d > 1 else 0.0
        spec = enumerate_low_exhaustive(h, delta, 1.0)
        assert spec.d >= d
        return spec

    def test_five_states_repeat_padding(self):
        h = PolyHamiltonian(3, {(0,): -0.1, (0, 1): 1.0, (1, 2): 0.5, (0, 2): 0.25})
        spec = enumerate_low_exhaustive(h, 1.6, 1.0)
        assert spec.d == 5  # chosen instance: exactly five states in window
        enc = encode_community(spec)
        assert enc.m_tilde == 3
        assert enc.decode[:5].tolist() == spec.packed.tolist()
        assert enc.decode[5:].tolist() == spec.packed[:3].tolist()
        assert enc.energies.tolist() == spec.energies.tolist() + spec.energies[:3].tolist()
        assert is_padded(enc).tolist() == [False] * 5 + [True] * 3

    def test_single_state_gets_one_qubit(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0, (0,): -0.3})
        spec = enumerate_low_exhaustive(h, 0.0, 0.0)
        assert spec.d == 1
        enc = encode_community(spec)
        assert enc.m_tilde == 1
        assert enc.decode[0] == enc.decode[1]

    def test_power_of_two_no_padding(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        spec = enumerate_low_exhaustive(h, 10.0, 1.0)
        assert spec.d == 4
        enc = encode_community(spec)
        assert enc.m_tilde == 2
        assert not any(is_padded(enc))

    def test_energy_ordering(self):
        spec = self._spectrum(6, seed=5)
        enc = encode_community(spec)
        unpadded = [e for e, p in zip(enc.energies, is_padded(enc)) if not p]
        assert unpadded == sorted(unpadded)


class TestPackedStates:
    def test_arrays_are_read_only(self):
        h = PolyHamiltonian(3, {(0,): -0.1, (0, 1): 1.0, (1, 2): 0.5, (0, 2): 0.25})
        spec = enumerate_low_exhaustive(h, 1.6, 1.0)
        enc = encode_community(spec)
        for array in (spec.packed, spec.energies, enc.decode, enc.energies):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_bit_61_through_gathers_and_decode(self):
        # 31 two-qubit registers under one super-community fill all 62
        # packable bits, and every retained state sets bit 61
        n = MAX_PACKED_VARS
        rng = np.random.default_rng(61)
        h = PolyHamiltonian.from_terms(n, [((n - 1,), -1.0), ((0, n - 1), 0.5), ((29, 30), 0.25)])
        states = np.unique(rng.integers(0, 1 << n, size=5, dtype=np.int64) | (1 << (n - 1)))
        energies = h.energies(states)
        win = Window(float(energies.min()), float(energies.max()), 1e-9)
        spectrum = _freeze(h, states, energies, win, True)
        assert ((spectrum.packed >> (n - 1)) == 1).all()
        assert [bits for bits, _ in spectrum.states] == [int_to_bits(s, n) for s in spectrum.packed.tolist()]
        enc = encode_community(spectrum)
        assert is_padded(enc).any()

        old = [EncodedCommunity(2, rng.permutation(4), np.zeros(4), 4, 2) for _ in range(31)]
        rd = decompose(ReducedProblem(old, {}, False, 0), Partition.from_labels([0] * 31))
        gathers = _member_gathers(rd, [enc])
        for c in range(31):
            expected = [bits_to_int(int_to_bits(s, n)[2 * c:2 * c + 2]) for s in enc.decode.tolist()]
            assert gathers[c].tolist() == expected
        assert (gathers[30] >> 1 == 1).all()

        chain = DecodeChain(n, [
            ChainLevel(tuple((2 * c, 2 * c + 1) for c in range(31)), tuple(old)),
            ChainLevel((tuple(range(31)),), (enc,)),
        ])
        for mu, state in enumerate(enc.decode.tolist()):
            bits = int_to_bits(state, n)
            expected = ()
            for c in range(31):
                index = bits_to_int(bits[2 * c:2 * c + 2])
                expected += int_to_bits(int(old[c].decode[index]), 2)
            assert chain.decode_full(mu) == expected

        _check_packable(h, "a spectrum")
        with pytest.raises(ResourceError, match="63 variables"):
            _check_packable(PolyHamiltonian(n + 1, {(0, n): 1.0}), "a spectrum")


def _widths(rng, total):
    """Random register widths of 1 to 4 bits that sum to ``total``."""
    widths = []
    while sum(widths) < total:
        widths.append(min(int(rng.integers(1, 5)), total - sum(widths)))
    return widths


class TestRegisterLayout:
    """The broadcast splits by ``_register_layout`` equal a split one
    register at a time, with registers up to bit 61 and, for Python-int
    keys, past it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_member_gathers(self, seed):
        # two new communities of 62 bits each, their members interleaved
        rng = np.random.default_rng(seed + 700)
        sizes = [_widths(rng, MAX_PACKED_VARS), _widths(rng, MAX_PACKED_VARS)]
        labels = rng.permutation([0] * len(sizes[0]) + [1] * len(sizes[1])).tolist()
        partition = Partition.from_labels(labels)
        widths = [0] * len(labels)
        for members, group in zip(partition.communities, sizes):
            for c, m in zip(members, group):
                widths[c] = m
        old = [EncodedCommunity(m, np.arange(1 << m), np.zeros(1 << m), 1 << m, m) for m in widths]
        rd = decompose(ReducedProblem(old, {}, 0), partition)
        assert [sum(widths[c] for c in members) for members in rd.members] == [MAX_PACKED_VARS] * 2
        encodings = []
        for _ in rd.members:
            decode = rng.integers(0, 1 << MAX_PACKED_VARS, 8, dtype=np.int64)
            decode[::2] |= 1 << (MAX_PACKED_VARS - 1)
            encodings.append(EncodedCommunity(3, decode, np.zeros(8), 8, MAX_PACKED_VARS))
        gathers = _member_gathers(rd, encodings)
        for members, enc in zip(rd.members, encodings):
            expected = [split_registers(state, [widths[c] for c in members]) for state in enc.decode.tolist()]
            for k, c in enumerate(members):
                assert gathers[c].dtype == np.int64
                assert gathers[c].tolist() == [registers[k] for registers in expected]
            assert (gathers[members[-1]] >> (widths[members[-1]] - 1))[::2].all()

    @pytest.mark.parametrize("bits", [MAX_PACKED_VARS, MAX_PACKED_VARS + 8])
    def test_table_objective_energies(self, bits):
        # int64 keys up to bit 61, and Python-int keys past it
        rng = np.random.default_rng(bits)
        widths = _widths(rng, bits)
        couplings = []
        for _ in widths:
            pos = tuple(sorted(rng.choice(len(widths), 2, replace=False).tolist()))
            couplings.append((pos, random_coupling(rng, tuple(1 << widths[p] for p in pos), _GRID_VALUES)))
        objective = TableObjective(widths, [rng.choice(_GRID_VALUES, 1 << m) for m in widths], couplings)
        keys = [bits_to_int(rng.integers(0, 2, bits).tolist()) | (k % 2) << (bits - 1) for k in range(40)]
        idx = np.array([split_registers(key, widths) for key in keys]).T
        expected = objective._energies_at(list(idx), (len(keys),))
        packed = np.array(keys, dtype=np.int64 if bits <= MAX_PACKED_VARS else object)
        np.testing.assert_array_equal(_bits(objective.energies(packed)), _bits(expected))

    @pytest.mark.parametrize("complete", [True, False])
    def test_without_aliases(self, complete):
        # every member padded; each alias takes one member's index up by its
        # d, and an alias of the top member sets bit 61
        rng = np.random.default_rng(710 + complete)
        widths = _widths(rng, MAX_PACKED_VARS)
        ds = [1 if m == 1 else int(rng.integers((1 << (m - 1)) + 1, 1 << m)) for m in widths]
        old = [EncodedCommunity(m, np.arange(1 << m), np.zeros(1 << m), d, m) for m, d in zip(widths, ds)]
        rd = decompose(ReducedProblem(old, {}, 0), Partition.from_labels([0] * len(old)))
        offsets = np.cumsum([0] + widths[:-1]).tolist()
        states = {}
        for t in range(30):
            index = [int(rng.integers(0, d)) for d in ds]
            twin = sum(i << off for i, off in zip(index, offsets))
            energy = float(rng.integers(0, 8)) / 2
            if complete or t % 3:
                states[twin] = energy
            for k in rng.choice(len(ds), 3).tolist() + [len(ds) - 1] * (t == 0):
                if index[k] + ds[k] < 1 << widths[k]:
                    states[twin + (ds[k] << offsets[k])] = energy
        packed = np.array(list(states), dtype=np.int64)
        spectrum = LocalSpectrum.in_order(
            packed, np.array(list(states.values())), Window(0.0, 3.5, 1e-9), complete, MAX_PACKED_VARS
        )
        assert (packed >> (MAX_PACKED_VARS - 1)).any()
        replaced = reduction_module._without_aliases(rd, 0, spectrum)
        reference = without_aliases(rd, 0, spectrum)
        assert replaced.d < spectrum.d
        assert replaced.packed.tolist() == reference.packed.tolist()
        np.testing.assert_array_equal(_bits(replaced.energies), _bits(reference.energies))
        assert replaced.complete == complete


class TestLevelZero:
    @pytest.mark.parametrize("seed", range(6))
    def test_full_objective_reproduces_energies(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        base = random_pubo(n, 2 * n, seed, max_arity=3)
        fields = [((v,), float(rng.uniform(-1.0, 1.0))) for v in range(0, n, 2)]
        h = PolyHamiltonian.from_terms(n, [*base.terms.items(), *fields, ((), 0.37)])
        rp = ReducedProblem.from_hamiltonian(h)
        assert rp.m_tildes == (1,) * n
        assert all(enc.decode.tolist() == [0, 1] for enc in rp.encodings)
        got = rp.full_objective().energies(np.arange(1 << n)) + h.constant
        np.testing.assert_allclose(got, spin_energies(h), rtol=0, atol=1e-12)


    @pytest.mark.parametrize("tables", [True, False])
    def test_j_tilde_is_abs_coeff(self, monkeypatch, tables):
        # with or without the level-0 tables (a cap of 0 builds none)
        if not tables:
            monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
        h = random_pubo(10, 24, 7, max_arity=4)
        rp = ReducedProblem.from_hamiltonian(h)
        assert rp.couplings
        assert all((c._table is not None) == tables for c in rp.couplings.values())
        for subset, coupling in rp.couplings.items():
            assert _bits(coupling.norm) == _bits(abs(h.terms[subset]))


class TestSignVectors:
    def test_entries_are_unit(self):
        # every first-level coupling entry is the signed sum of its
        # straddling terms on the decoded states, sum coeff * prod(1 - 2 bit)
        h = random_pubo(8, 14, 2)
        d, rp, _ = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2])
        assert rp.couplings
        for footprint, coupling in rp.couplings.items():
            expected = np.zeros(coupling.shape)
            for joint in np.ndindex(*coupling.shape):
                bits = {}
                for c, mu in zip(footprint, joint):
                    state = int(rp.encodings[c].decode[mu])
                    bits.update(zip(d.members[c], int_to_bits(state, len(d.members[c]))))
                for subset in d.straddling_footprints:
                    if _footprint(d, subset) == footprint:
                        expected[joint] += h.terms[subset] * np.prod([1 - 2 * bits[v] for v in subset])
            np.testing.assert_allclose(coupling.table(), expected, rtol=0, atol=1e-12)

    def test_two_single_variable_communities(self):
        h = PolyHamiltonian(2, {(0, 1): 0.8})
        _, rp, _ = _level_one(h, [0, 1], eta=1.0)
        table = rp.couplings[(0, 1)].table()
        np.testing.assert_allclose(table, 0.8 * np.array([[1.0, -1.0], [-1.0, 1.0]]))


class TestBuildReduced:
    def test_master_identity_quadratic(self):
        for seed in range(8):
            h = random_quadratic(10, 16, seed)
            p = level1_partition(h, seed)
            _, rp, chain = _level_one(h, p.community_of)
            _check_master_identity(h, rp, chain, h.constant)

    def test_master_identity_pubo(self):
        for seed in range(6):
            h = random_pubo(9, 13, seed)
            p = level1_partition(h, seed)
            _, rp, chain = _level_one(h, p.community_of)
            _check_master_identity(h, rp, chain, h.constant)

    def test_master_identity_reduced_eta(self):
        for seed in range(4):
            h = random_quadratic(10, 16, seed + 30)
            p = level1_partition(h, seed)
            _, rp, chain = _level_one(h, p.community_of, eta=0.5)
            _check_master_identity(h, rp, chain, h.constant)

    def test_eta_one_min_is_global_min(self):
        for seed in range(6):
            h = random_quadratic(11, 18, seed)
            p = level1_partition(h, seed)
            _, rp, chain = _level_one(h, p.community_of)
            best = min(
                energy_of_indices(rp, indices_from_bits(rp, j))
                for j in range(1 << rp.total_qubits)
            )
            assert best + h.constant == pytest.approx(float(spin_energies(h).min()), abs=1e-9)

    def test_chi_count_matches_edge_formula(self):
        for seed in range(6):
            h = random_quadratic(10, 20, seed)
            p = level1_partition(h, seed)
            d, rp, _ = _level_one(h, p.community_of)
            expected = 0
            for i in range(p.n_communities):
                for j in range(i + 1, p.n_communities):
                    n_edges = sum(
                        1 for s in d.straddling_footprints if _footprint(d, s) == (i, j)
                    )
                    expected += (
                        rp.encodings[i].d_tilde * rp.encodings[j].d_tilde * n_edges
                    )
            assert rp.n_chi == expected


class TestContractedGraph:
    def test_exact_norm_weight(self):
        h = PolyHamiltonian(2, {(0, 1): 0.8})
        _, rp, _ = _level_one(h, [0, 1])
        g = rp.contracted_graph()
        assert g.edges == pytest.approx({(0, 1): 0.8})

    def test_bound_weight_without_chi(self, monkeypatch):
        # past the table cap, a coupling weighs its bound sum |c_t|
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
        h = PolyHamiltonian(4, {(0, 2): 0.5, (1, 3): -0.25, (0, 1): 0.9, (2, 3): 0.9})
        _, rp, _ = _level_one(h, [0, 0, 1, 1])
        g = rp.contracted_graph()
        assert g.edges == pytest.approx({(0, 1): 0.75})

    def test_exact_never_exceeds_bound(self, monkeypatch):
        for seed in range(8):
            h = random_quadratic(10, 18, seed)
            p = level1_partition(h, seed)
            _, rp_exact, _ = _level_one(h, p.community_of)
            with monkeypatch.context() as patch:
                patch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
                _, rp_bound, _ = _level_one(h, p.community_of)
                bounds = {fp: coupling.norm for fp, coupling in rp_bound.couplings.items()}
            for footprint, coupling in rp_exact.couplings.items():
                assert coupling.norm <= bounds[footprint] + 1e-12

    def test_norm_is_the_largest_entry_or_the_bound(self, monkeypatch):
        rng = np.random.default_rng(11)
        couplings = [random_coupling(rng, (5, 3)) for _ in range(12)]
        multi = [c for c in couplings if len(c.coeffs) > 1]
        assert multi
        for coupling in multi:
            assert coupling.norm == float(np.abs(coupling.table()).max())
        # past the cap a multi-term coupling weighs its bound sum |c_t|
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 14)
        rng = np.random.default_rng(11)
        lazy = [c for c in (random_coupling(rng, (5, 3)) for _ in range(12)) if len(c.coeffs) > 1]
        for coupling in lazy:
            assert not coupling.can_materialize
            assert coupling.norm == coupling.bound
        # a one-term coupling's entries are all +-c, so its bound is its norm
        one = Coupling((-0.375,), tuple((rng.integers(0, 2, size, dtype=np.uint16),) for size in (5, 3)))
        assert one.norm == one.bound == 0.375

    def test_norm_is_computed_once_for_graph_and_cut_off(self, monkeypatch):
        h = random_quadratic(10, 18, 2)
        _, rp, _ = _level_one(h, [v % 3 for v in range(10)])
        table = Coupling.table
        reads = []
        monkeypatch.setattr(Coupling, "table", lambda self: reads.append(self) or table(self))
        rp.contracted_graph()
        multi_term = sum(len(c.coeffs) > 1 for c in rp.couplings.values())
        assert len(reads) == multi_term > 0
        # the second read, through the two-body cut-off, builds no table
        rd = decompose(rp, Partition.from_labels(range(rp.n_communities)))
        assert set(rd.straddling_footprints) == set(rp.couplings)
        deltas = [delta_two_body(rd, l) for l in range(rp.n_communities)]
        assert len(reads) == multi_term
        assert deltas[0] == sum(rp.couplings[fp].norm for fp in rd.straddle_by_super[0])

    def test_hyper_footprint_clique_expansion(self):
        h = PolyHamiltonian(3, {(0, 1, 2): 0.6})
        _, rp, _ = _level_one(h, [0, 1, 2])
        g = rp.contracted_graph()
        assert g.edges == pytest.approx({(0, 1): 0.2, (0, 2): 0.2, (1, 2): 0.2})


def _two_level(h, seed=0, eta=1.0):
    p1 = level1_partition(h, seed)
    if p1.n_communities < 2:
        return None
    d, rp, chain = _level_one(h, p1.community_of, eta=eta)
    # force a second level by pairing communities
    labels = [i // 2 for i in range(rp.n_communities)]
    p2 = Partition.from_labels(labels)
    if p2.n_communities == rp.n_communities:
        return None
    rd = decompose(rp, p2)
    encodings = [
        encode_community(enumerate_low_exhaustive(community_objective(rd, l), iteration_delta(rd, l), eta))
        for l in range(p2.n_communities)
    ]
    rp2 = build_reduced_iter(rd, encodings)
    chain.levels.append(ChainLevel(tuple(rd.members), tuple(encodings)))
    return rp2, chain


def _iterate_once(h, rp, chain, labels, eta=1.0):
    """One manual iteration level under an explicit community grouping."""
    p = Partition.from_labels(labels)
    if p.n_communities == rp.n_communities:
        return None
    rd = decompose(rp, p)
    encodings = [
        encode_community(enumerate_low_exhaustive(community_objective(rd, l), iteration_delta(rd, l), eta))
        for l in range(p.n_communities)
    ]
    new_rp = build_reduced_iter(rd, encodings)
    chain.levels.append(ChainLevel(tuple(rd.members), tuple(encodings)))
    return new_rp


class TestTableCap:
    """``MATERIALIZE_ENTRIES`` is the one coupling-table cap, and
    ``Coupling.can_materialize`` the one test of it."""

    def test_edge_at_the_real_cap(self):
        # lazy couplings, so no table is built
        rng = np.random.default_rng(0)
        assert random_coupling(rng, (1 << 11, 1 << 11)).can_materialize
        past = random_coupling(rng, (1 << 11, (1 << 11) + 1))
        assert not past.can_materialize
        with pytest.raises(ResourceError, match="materialization cap"):
            past.table()

    def test_edge_in_build_reduced_iter(self, monkeypatch):
        h = random_quadratic(10, 18, 620)
        d, _, chain = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
        encodings = chain.levels[0].encodings
        footprint = (0, 2)
        # a table exactly at the cap is built on its first read and gets its
        # exact norm, which here is below the bound sum |c_t|
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 8 * 16)
        rp = build_reduced_iter(d, encodings)
        coupling = rp.couplings[footprint]
        assert coupling.shape == (8, 16)
        coupling.values([0, 0])
        assert coupling._table is not None
        exact = float(np.abs(coupling.table()).max())
        assert coupling.norm == exact
        assert exact < coupling.bound
        # one entry past the cap it stays lazy, everywhere
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 8 * 16 - 1)
        rp = build_reduced_iter(d, encodings)
        coupling = rp.couplings[footprint]
        assert coupling._table is None
        assert coupling.norm == coupling.bound
        with pytest.raises(ResourceError, match="materialization cap"):
            coupling.table()
        objective = rp.full_objective()
        _assert_scan_matches(objective)
        assert coupling._table is None

    def test_table_built_on_first_read(self, monkeypatch):
        h = random_quadratic(10, 18, 620)
        d, _, chain = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
        encodings = chain.levels[0].encodings
        footprint = (0, 2)
        grid = np.ix_(np.arange(8), np.arange(16))
        # the entry-wise sums, from a twin built and read under a cap of 0
        with monkeypatch.context() as patch:
            patch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
            twin = build_reduced_iter(d, encodings).couplings[footprint]
            expected = twin.values(grid)
        assert twin.shape == (8, 16) and twin._table is None
        # within the cap: no table after the build, one on the first read,
        # equal to the entry-wise sums bit for bit
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 8 * 16)
        rp = build_reduced_iter(d, encodings)
        assert all(c._table is None for c in rp.couplings.values())
        coupling = rp.couplings[footprint]
        first = coupling.values(grid)
        assert coupling._table is not None
        np.testing.assert_array_equal(_bits(first), _bits(expected))
        np.testing.assert_array_equal(_bits(coupling.table()), _bits(expected))
        # one entry past the cap: read, weighed and scanned, never built
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 8 * 16 - 1)
        rp = build_reduced_iter(d, encodings)
        coupling = rp.couplings[footprint]
        np.testing.assert_array_equal(_bits(coupling.values(grid)), _bits(expected))
        rp.contracted_graph()
        _assert_scan_matches(rp.full_objective())
        assert coupling._table is None


class TestIteration:
    def test_three_level_master_identity(self):
        # force three levels by pairing communities twice; the identity must
        # survive arbitrary depth
        checked = 0
        for seed in range(12):
            h = random_quadratic(13, 24, seed + 200)
            p1 = level1_partition(h, seed)
            if p1.n_communities < 4:
                continue
            _, rp, chain = _level_one(h, p1.community_of)
            rp2 = _iterate_once(h, rp, chain, [i // 2 for i in range(rp.n_communities)])
            if rp2 is None or rp2.n_communities < 2:
                continue
            rp3 = _iterate_once(h, rp2, chain, [i // 2 for i in range(rp2.n_communities)])
            if rp3 is None:
                continue
            _check_master_identity(h, rp3, chain, h.constant)
            best = min(
                energy_of_indices(rp3, indices_from_bits(rp3, j))
                for j in range(1 << rp3.total_qubits)
            )
            assert best + h.constant == pytest.approx(float(spin_energies(h).min()), abs=1e-9)
            checked += 1
        assert checked >= 2

    def test_two_level_master_identity(self):
        checked = 0
        for seed in range(10):
            h = random_quadratic(12, 20, seed)
            out = _two_level(h, seed)
            if out is None:
                continue
            rp2, chain = out
            _check_master_identity(h, rp2, chain, h.constant)
            checked += 1
        assert checked >= 3

    def test_two_level_pubo_master_identity(self):
        checked = 0
        for seed in range(10):
            h = random_pubo(10, 16, seed)
            out = _two_level(h, seed)
            if out is None:
                continue
            rp2, chain = out
            _check_master_identity(h, rp2, chain, h.constant)
            checked += 1
        assert checked >= 3

    def test_two_level_eta_one_exact(self):
        for seed in range(8):
            h = random_quadratic(12, 20, seed + 40)
            out = _two_level(h, seed)
            if out is None:
                continue
            rp2, chain = out
            best = min(
                energy_of_indices(rp2, indices_from_bits(rp2, j))
                for j in range(1 << rp2.total_qubits)
            )
            assert best + h.constant == pytest.approx(float(spin_energies(h).min()), abs=1e-9)

    def test_path_graph_decode_matches_direct_enumeration(self):
        # 6-variable path; two-level chain must reproduce the exact optimum
        h = PolyHamiltonian(6, {(i, i + 1): [0.9, -0.7, 0.5, -0.8, 0.6][i] for i in range(5)})
        out = _two_level(h, seed=1)
        assert out is not None
        rp2, chain = out
        joints = range(1 << rp2.total_qubits)
        best = min(joints, key=lambda j: energy_of_indices(rp2, indices_from_bits(rp2, j)))
        decoded = chain.decode_full(best)
        assert h.evaluate(decoded) == pytest.approx(float(spin_energies(h).min()), abs=1e-9)

    def test_monotone_window_population(self):
        # d_i(eta) is non-decreasing in eta for a fixed partition
        for seed in range(10):
            h = random_quadratic(10, 16, seed)
            p = level1_partition(h, seed)
            d = decompose(ReducedProblem.from_hamiltonian(h), p)
            for i, members in enumerate(d.members):
                delta = delta_two_body(d, i)
                local = h.split([members])[0]
                previous = 0
                for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
                    count = enumerate_low_exhaustive(local, delta, eta).d
                    assert count >= previous
                    previous = count

    @given(
        seed=st.integers(0, 10**6),
        pubo=st.booleans(),
        tables=st.booleans(),
        eta=st.sampled_from([0.4, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_master_identity_property(self, seed, pubo, tables, eta, data):
        # level 1 and one iteration level under drawn partitions, with
        # coupling tables or (a cap of 0) entry-wise couplings and bounds
        n = 8
        h = random_pubo(n, 12, seed, max_arity=3) if pubo else random_quadratic(n, 12, seed)
        with pytest.MonkeyPatch.context() as patch:
            if not tables:
                patch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
            labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            _, rp, chain = _level_one(h, labels, eta)
            _check_master_identity(h, rp, chain, h.constant)
            k = rp.n_communities
            labels = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
            rp2 = _iterate_once(h, rp, chain, labels, eta)
            if rp2 is not None:
                _check_master_identity(h, rp2, chain, h.constant)

    @given(st.integers(0, 10**6), st.integers(0, 2**12 - 1))
    @settings(max_examples=40, deadline=None)
    def test_decode_identity_property(self, seed, joint_bits):
        h = random_quadratic(9, 14, seed % 50)
        p = level1_partition(h, seed % 7)
        _, rp, chain = _level_one(h, p.community_of)
        joint = joint_bits & ((1 << rp.total_qubits) - 1)
        decoded = chain.decode_full(joint)
        assert len(decoded) == h.n_vars
        reduced = energy_of_indices(rp, indices_from_bits(rp, joint)) + h.constant
        assert reduced == pytest.approx(h.evaluate(decoded), abs=1e-9)

    def test_entry_backed_couplings_match_materialized(self, monkeypatch):
        # force every coupling onto the on-demand evaluation path and check
        # the identity still holds (this is the large-table fallback)
        import dcreduce.reduction as reduction_module

        for seed in range(4):
            h = random_quadratic(10, 16, seed + 70)
            p = level1_partition(h, seed)
            if p.n_communities < 2:
                continue
            monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
            _, rp, chain = _level_one(h, p.community_of)
            assert all(not c.can_materialize for c in rp.couplings.values())
            # the norm degrades to the bound when nothing materializes
            for coupling in rp.couplings.values():
                assert coupling.norm == coupling.bound
            _check_master_identity(h, rp, chain, h.constant)
            # read entry-wise while the cap is 0, so no table is built
            rng = np.random.default_rng(seed)
            probes = {fp: [rng.integers(0, s, size=32) for s in c.shape] for fp, c in rp.couplings.items()}
            entries = {fp: c.values(probes[fp]) for fp, c in rp.couplings.items()}
            monkeypatch.undo()
            _, rp_mat, _ = _level_one(h, p.community_of)
            for footprint, probe in probes.items():
                np.testing.assert_allclose(
                    entries[footprint], rp_mat.couplings[footprint].table()[tuple(probe)],
                )

    def test_reduced_minimum_monotone_in_eta_for_fixed_partition(self):
        # with the partition held fixed, smaller eta keeps a subset of the
        # states, so the reduced-space minimum cannot improve
        for seed in range(6):
            h = random_quadratic(10, 16, seed + 60)
            p = level1_partition(h, seed)
            if p.n_communities < 2:
                continue
            previous = None
            for eta in (1.0, 0.75, 0.5, 0.25, 0.0):
                _, rp, _ = _level_one(h, p.community_of, eta=eta)
                best = min(
                    energy_of_indices(rp, indices_from_bits(rp, j))
                    for j in range(1 << rp.total_qubits)
                )
                if previous is not None:
                    assert best >= previous - 1e-12
                previous = best


def _meshgrid_range(rp, footprints, touched):
    # only unpadded indices: the range must not depend on the padding
    valid = [np.flatnonzero(~np.array(is_padded(rp.encodings[c]))) for c in touched]
    grids = np.meshgrid(*valid, indexing="ij")
    position = {c: i for i, c in enumerate(touched)}
    total = np.zeros(grids[0].shape)
    for footprint in footprints:
        total = total + rp.couplings[footprint].values([grids[position[c]] for c in footprint])
    return float(total.max() - total.min())


def _inside_splits(subset, touched):
    """Inside sets for ``_coupling_range``: the first touched community, the
    last, the first two, the odd ids (perhaps none), the first footprint's
    communities, which leave that footprint no outside part, and all."""
    return [{touched[0]}, {touched[-1]}, set(touched[:2]), {c for c in touched if c % 2}, set(subset[0]), set(touched)]


def _check_range_splits(rp, subsets):
    # the elimination re-reads the full grid's extremes: equal, not approx
    for subset in subsets:
        if not subset:
            continue
        touched = sorted({c for fp in subset for c in fp})
        expected = _meshgrid_range(rp, subset, touched)
        for inside in _inside_splits(subset, touched):
            assert _coupling_range(rp, subset, touched, inside) == expected


class TestCouplingRange:
    @pytest.mark.parametrize("tables", [True, False])
    def test_matches_meshgrid_reference(self, monkeypatch, tables):
        # with coupling tables, or (a cap of 0) with entry-wise couplings
        # and windows cut off by their bounds
        if not tables:
            monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
        hyper = padded = 0
        for seed in range(8):
            h = random_pubo(10, 22, seed + 400, max_arity=3)
            labels = [0, 0, 0, 1, 1, 1, 2, 2, 3, 3]
            _, rp, _ = _level_one(h, labels, eta=0.6)
            hyper += any(len(fp) == 3 for fp in rp.couplings)
            padded += any(any(is_padded(enc)) for enc in rp.encodings)
            footprints = sorted(rp.couplings)
            _check_range_splits(rp, [footprints] + [[fp for fp in footprints if c in fp] for c in range(4)])
        assert hyper and padded

    def test_lazy_rereads_match_meshgrid_reference(self, monkeypatch):
        # nothing materializes, so every entry, re-reads included, is summed
        # from the terms' sign features
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
        for seed in range(4):
            h = random_pubo(10, 22, seed + 400, max_arity=3)
            _, rp, _ = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3], eta=0.6)
            assert not any(c.can_materialize for c in rp.couplings.values())
            footprints = sorted(rp.couplings)
            _check_range_splits(rp, [footprints] + [[fp for fp in footprints if c in fp] for c in range(4)])

    def test_level_two_component_spans_two_registers(self):
        # padded level-2 registers; with community 0 inside (the
        # first split), a footprint over the two others joins their
        # multi-qubit registers into one outside component
        spans = 0
        for seed in range(6):
            h = random_pubo(12, 30, seed + 500, max_arity=3)
            _, rp, chain = _level_one(h, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5], eta=0.3)
            rp2 = _iterate_once(h, rp, chain, [0, 0, 1, 1, 2, 2], eta=0.3)
            footprints = sorted(rp2.couplings)
            spans += (any(any(is_padded(enc)) for enc in rp2.encodings) and min(rp2.m_tildes[1:]) >= 2
                      and any({1, 2} <= set(fp) for fp in footprints))
            _check_range_splits(rp2, [footprints] + [[fp for fp in footprints if c in fp] for c in range(3)])
        assert spans


# -- grid kernels: slab scans and blocked coupling composition ------------------


def _bits(values):
    """Raw IEEE-754 bits: equal bits mean bit-identical, signed zeros included."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _register_of(chain, depth, v):
    """The register holding variable ``v`` at level ``depth`` of the chain."""
    c = next(c for c, members in enumerate(chain.levels[0].membership) if v in members)
    for level in chain.levels[1:depth + 1]:
        c = next(s for s, members in enumerate(level.membership) if c in members)
    return c


def _variables_at(chain, depth, c, index):
    """Original variable -> bit for register ``c`` of level ``depth`` at ``index``."""
    level = chain.levels[depth]
    enc = level.encodings[c]
    state = int(enc.decode[index])
    if depth == 0:
        return dict(zip(level.membership[c], int_to_bits(state, enc.n_local_vars)))
    out, offset = {}, 0
    for member in level.membership[c]:
        m = chain.levels[depth - 1].encodings[member].m_tilde
        out.update(_variables_at(chain, depth - 1, member, (state >> offset) & ((1 << m) - 1)))
        offset += m
    return out


def _assert_entries_are_term_sums(h, chain, depth, rp):
    """Every coupling of level ``depth`` equals, on its open grid, the sum of
    the level-0 terms whose registers there are exactly its footprint, read
    off the decoded variables."""
    for footprint, coupling in rp.couplings.items():
        spins = {}  # variable -> its +-1 along its register's axis
        for k, (c, size) in enumerate(zip(footprint, coupling.shape)):
            decoded = [_variables_at(chain, depth, c, index) for index in range(size)]
            axis = [-1 if a == k else 1 for a in range(len(footprint))]
            for v in decoded[0]:
                spins[v] = np.array([1 - 2 * bits[v] for bits in decoded]).reshape(axis)
        expected = np.zeros(coupling.shape)
        for subset, coeff in h.terms.items():
            if tuple(sorted({_register_of(chain, depth, v) for v in subset})) == footprint:
                sign = 1
                for v in subset:
                    sign = sign * spins[v]
                expected = expected + coeff * sign
        grid = np.ix_(*map(np.arange, coupling.shape))
        np.testing.assert_allclose(coupling.values(grid), expected, rtol=0, atol=1e-12)


def _assert_scan_matches(objective):
    starts, slabs = zip(*objective.scan_chunks())
    assert list(starts) == np.cumsum([0] + [len(s) for s in slabs[:-1]]).tolist()
    states = np.arange(1 << objective.n_vars, dtype=np.int64)
    np.testing.assert_array_equal(_bits(np.concatenate(slabs)), _bits(objective.energies(states)))


def _assert_tables_match(rp):
    """Every coupling's table equals the entry-wise ``values`` on the full
    open grid of a fresh coupling with the same terms and features (read
    under a cap of 0, so it builds no table), bit for bit."""
    for coupling in rp.couplings.values():
        fresh = Coupling(coupling.coeffs, coupling.masks)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
            expected = fresh.values(np.ix_(*map(np.arange, coupling.shape)))
        np.testing.assert_array_equal(_bits(coupling.table()), _bits(expected))


# Term coefficients: signed zeros, and values whose sums round, so that
# adding in another order changes bits.
_GRID_VALUES = np.array([-1.5, -0.3, -0.0, 0.0, 0.1, 0.7, 2.0 / 3.0])


def _random_encoding(rng, width):
    """Encoding of a random register whose decode entries have ``width`` bits."""
    m = int(rng.integers(1, 4))
    decode = [bits_to_int(rng.integers(0, 2, width).tolist()) for _ in range(1 << m)]
    energies = rng.choice(_GRID_VALUES, 1 << m)
    return EncodedCommunity(m, decode, energies, 1 << m, width)


def _random_reduced(rng, k):
    encodings = [_random_encoding(rng, 1) for _ in range(k)]
    couplings = {}
    for _ in range(int(rng.integers(1, 2 * k + 1))):
        size = int(rng.integers(2, min(k, 3) + 1))
        footprint = tuple(sorted(rng.choice(k, size, replace=False).tolist()))
        shape = tuple(encodings[c].d_tilde for c in footprint)
        couplings[footprint] = random_coupling(rng, shape, _GRID_VALUES)
    return ReducedProblem(encodings, couplings, 0)


def _random_next(rng, rp):
    """The next level under a random coarser grouping, with random decode
    tables; its couplings have no tables until they are read."""
    labels = rng.integers(0, max(1, rp.n_communities - 1), rp.n_communities).tolist()
    rd = decompose(rp, Partition.from_labels(labels))
    encodings = [
        _random_encoding(rng, sum(rp.encodings[c].m_tilde for c in members))
        for members in rd.members
    ]
    return build_reduced_iter(rd, encodings)


class TestGridKernels:
    """``TableObjective.scan_chunks`` equals ``energies`` and
    ``Coupling.table`` equals ``values`` on the open grid, bit for bit."""

    @pytest.mark.parametrize("slab", [2, 16, 1 << 16])
    def test_scan_matches_energies_of(self, monkeypatch, slab):
        # slab 2 cuts inside every register wider than one qubit
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
        padded = 0
        for seed in range(3):
            h = random_pubo(10, 22, seed + 600, max_arity=3)
            _, rp, chain = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3], eta=0.7)
            _assert_scan_matches(rp.full_objective())
            rp2 = _iterate_once(h, rp, chain, [0, 0, 1, 1], eta=0.7)
            _assert_scan_matches(rp2.full_objective())
            padded += any(any(is_padded(enc)) for enc in rp.encodings + rp2.encodings)
        assert padded

    @pytest.mark.parametrize("slab", [4, 1 << 16])
    def test_scan_with_lazy_couplings(self, monkeypatch, slab):
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
        for seed in range(3):
            h = random_quadratic(10, 18, seed + 620)
            _, rp, _ = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
            objective = rp.full_objective()
            assert all(c._table is None for _, c in objective.couplings)
            _assert_scan_matches(objective)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_single_register(self, monkeypatch, m):
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", 4)
        rng = np.random.default_rng(m)
        _assert_scan_matches(TableObjective([m], [rng.choice(_GRID_VALUES, 1 << m)], []))
        # two registers, the low one wider than the slab, and a coupling
        coupling = random_coupling(rng, (1 << m, 4), _GRID_VALUES)
        _assert_scan_matches(
            TableObjective([m, 2], [rng.choice(_GRID_VALUES, 1 << m), np.zeros(4)], [((0, 1), coupling)])
        )

    def test_values_match_table_on_every_index_form(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(20):
            shape = tuple(int(size) for size in rng.integers(1, 9, size=3))
            coupling = random_coupling(rng, shape, _GRID_VALUES)
            lazy = Coupling(coupling.coeffs, coupling.masks)
            full = coupling.table()
            # a cap of 0 keeps the twin entry-wise
            monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
            point = tuple(int(rng.integers(0, size)) for size in shape)
            assert _bits(lazy.values(point)) == _bits(full[point])
            assert _bits(lazy.values([np.array(i) for i in point])) == _bits(full[point])
            # aligned index arrays of unequal rank, and a Python int
            rows = rng.integers(0, shape[0], (7, 4))
            cols = rng.integers(0, shape[1], 4)
            idx = (rows, cols, point[2])
            np.testing.assert_array_equal(_bits(lazy.values(idx)), _bits(full[idx]))
            monkeypatch.undo()

    @pytest.mark.parametrize("slab", [4, 1 << 16])
    def test_term_over_old_registers_of_one_new_register(self, monkeypatch, slab):
        # a cubic term can reach two old registers that the next level puts
        # in one new register; its feature there is the XOR of the old ones
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
        merged = 0
        for seed in range(4):
            h = random_pubo(10, 24, seed + 640, max_arity=3)
            _, rp, chain = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3], eta=0.8)
            rp2 = _iterate_once(h, rp, chain, [0, 0, 1, 1], eta=0.8)
            for subset in h.terms:
                registers = {_register_of(chain, 0, v) for v in subset}
                merged += len(registers) > len({c // 2 for c in registers}) > 1
            for depth, level in enumerate((rp, rp2)):
                _assert_entries_are_term_sums(h, chain, depth, level)
                _assert_tables_match(level)
        assert merged

    def test_terms_past_one_word(self):
        # dense cubic terms: the second level's couplings carry more than 16
        # terms, so old words land shifted across word boundaries
        wide = 0
        for seed in range(3):
            h = random_pubo(12, 90, seed + 680, max_arity=3)
            _, rp, chain = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3], eta=0.3)
            rp2 = _iterate_once(h, rp, chain, [0, 0, 1, 1], eta=0.3)
            wide += max(len(coupling.coeffs) for coupling in rp2.couplings.values()) > 16
            _assert_entries_are_term_sums(h, chain, 1, rp2)
            _assert_tables_match(rp2)
        assert wide

    def test_lazy_coupling_carried_into_the_next_level(self, monkeypatch):
        # the next level reads its old couplings' terms and features, never
        # their tables, so it is the same whether or not they materialized
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        for seed in range(4):
            h = random_quadratic(12, 22, seed + 660)
            _, rp, chain = _level_one(h, labels)
            for coupling in rp.couplings.values():
                coupling.table()
            eager = _iterate_once(h, rp, chain, [0, 0, 1, 1])
            with monkeypatch.context() as patch:
                patch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
                _, rp, chain = _level_one(h, labels)
                lazy = _iterate_once(h, rp, chain, [0, 0, 1, 1])
                assert all(coupling._table is None for coupling in rp.couplings.values())
            assert lazy.couplings.keys() == eager.couplings.keys()
            for footprint, coupling in lazy.couplings.items():
                np.testing.assert_array_equal(_bits(coupling.table()), _bits(eager.couplings[footprint].table()))
            _assert_entries_are_term_sums(h, chain, 1, lazy)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 5),
        slab=st.sampled_from([1, 2, 8, 64, 1 << 16]),
        materialize=st.sampled_from([0, 8, 1 << 22]),
    )
    def test_random_reduced_problems(self, seed, k, slab, materialize):
        rng = np.random.default_rng(seed)
        rp = _random_reduced(rng, k)
        rp2 = _random_next(rng, rp)
        # materialize about half of the middle level, so the top level
        # is built from both kinds of old coupling
        for coupling in rp2.couplings.values():
            if rng.random() < 0.5:
                coupling.table()
        rp3 = _random_next(rng, rp2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction_module, "SLAB_ENTRIES", slab)
            # reference tables under the real cap, scans under the patched one
            for level in (rp2, rp3):
                _assert_tables_match(level)
            patch.setattr(reduction_module, "MATERIALIZE_ENTRIES", materialize)
            for level in (rp, rp2, rp3):
                _assert_scan_matches(level.full_objective())
