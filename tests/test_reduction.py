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

from dcreduce.clustering import Partition, hypergraph_to_graph, louvain
from dcreduce.cutoff import Window, decompose, delta_pubo, delta_two_body
from dcreduce.errors import ParameterError, ResourceError
from dcreduce.hamiltonian import MAX_PACKED_VARS, PolyHamiltonian, bits_to_int, int_to_bits
from dcreduce.optimizer import _check_packable, _freeze, as_objective, enumerate_low_exhaustive
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
    decompose_reduced,
    encode_community,
    iteration_delta,
    reduced_as_poly,
)
from helpers import random_pubo, random_quadratic, spin_energies


def _level_one(h, labels, eta=1.0, padding="repeat", compute_chi=True):
    p = Partition.from_labels(labels)
    d = decompose(h, p)
    quadratic = h.is_pure_quadratic()
    spectra, deltas = [], []
    for i in range(p.n_communities):
        delta = delta_two_body(d, i) if quadratic else delta_pubo(d, i)
        deltas.append(delta)
        spectra.append(enumerate_low_exhaustive(d.local_poly(i), delta, eta))
    encodings = [
        encode_community(spec, padding, delta=deltas[i]) for i, spec in enumerate(spectra)
    ]
    rp = build_reduced(d, encodings, compute_chi)
    chain = DecodeChain(h.n_vars, [ChainLevel(tuple(d.community_vars), tuple(encodings))])
    return d, rp, chain


def _check_master_identity(h, rp, chain, constant):
    for joint in range(1 << rp.total_qubits):
        idx = rp.indices_from_bits(joint)
        reduced = rp.energy_of_indices(idx) + constant
        decoded = chain.decode_full(joint)
        assert reduced == pytest.approx(h.evaluate(decoded), abs=1e-9)


def _uses_padded_index(chain, joint):
    """True when the joint state or any state it decodes to below the top
    level sits on a padded index."""
    idx = []
    offset = 0
    for enc in chain.levels[-1].encodings:
        idx.append((joint >> offset) & (enc.d_tilde - 1))
        offset += enc.m_tilde
    for depth in range(len(chain.levels) - 1, -1, -1):
        level = chain.levels[depth]
        if any(enc.is_padded[i] for enc, i in zip(level.encodings, idx)):
            return True
        if depth == 0:
            return False
        below = chain.levels[depth - 1].encodings
        lower = [0] * len(below)
        for c, member_ids in enumerate(level.membership):
            enc = level.encodings[c]
            bits = int_to_bits(int(enc.decode[idx[c]]), enc.n_local_vars)
            off = 0
            for mid in member_ids:
                lower[mid] = sum(b << r for r, b in enumerate(bits[off:off + below[mid].m_tilde]))
                off += below[mid].m_tilde
        idx = lower


def _check_penalty_identity(h, rp, chain, constant):
    """Penalty padding prices padded indices above every real state, so the
    reduced energy bounds the decoded one from above, with equality unless
    the joint state reaches a padded index at some level."""
    for joint in range(1 << rp.total_qubits):
        reduced = rp.energy_of_indices(rp.indices_from_bits(joint)) + constant
        direct = h.evaluate(chain.decode_full(joint))
        if _uses_padded_index(chain, joint):
            assert reduced > direct
        else:
            assert reduced == pytest.approx(direct, abs=1e-9)


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
        assert enc.is_padded.tolist() == [False] * 5 + [True] * 3

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
        assert not any(enc.is_padded)

    def test_energy_ordering(self):
        spec = self._spectrum(6, seed=5)
        enc = encode_community(spec)
        unpadded = [e for e, p in zip(enc.energies, enc.is_padded) if not p]
        assert unpadded == sorted(unpadded)

    def test_penalty_padding(self):
        h = PolyHamiltonian(3, {(0,): -0.1, (0, 1): 1.0, (1, 2): 0.5, (0, 2): 0.25})
        spec = enumerate_low_exhaustive(h, 1.6, 1.0)
        assert spec.d == 5
        enc = encode_community(spec, "penalty", delta=1.6)
        pad_value = spec.e0 + 1.6 + 2.6  # e0 + delta + (delta + 1)
        for mu in range(5, 8):
            assert enc.energies[mu] == pytest.approx(pad_value)
        assert max(enc.energies[:5]) < enc.energies[5]

    def test_unknown_mode(self):
        spec = self._spectrum(2)
        with pytest.raises(ParameterError):
            encode_community(spec, "wrap")


class TestPackedStates:
    def test_arrays_are_read_only(self):
        h = PolyHamiltonian(3, {(0,): -0.1, (0, 1): 1.0, (1, 2): 0.5, (0, 2): 0.25})
        spec = enumerate_low_exhaustive(h, 1.6, 1.0)
        enc = encode_community(spec, "penalty", delta=1.6)
        for array in (spec.packed, spec.energies, enc.decode, enc.energies):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_bit_61_through_gathers_and_decode(self):
        # 31 two-qubit registers under one super-community fill all 62
        # packable bits, and every retained state sets bit 61
        n = MAX_PACKED_VARS
        rng = np.random.default_rng(61)
        h = PolyHamiltonian.from_terms(n, [((n - 1,), -1.0), ((0, n - 1), 0.5), ((29, 30), 0.25)])
        objective = as_objective(h)
        states = np.unique(rng.integers(0, 1 << n, size=5, dtype=np.int64) | (1 << (n - 1)))
        energies = objective.energies_of(states)
        win = Window(float(energies.min()), float(energies.max()), 1e-9)
        spectrum = _freeze(objective, states, energies, win, True)
        assert ((spectrum.packed >> (n - 1)) == 1).all()
        assert [bits for bits, _ in spectrum.states] == [int_to_bits(s, n) for s in spectrum.packed.tolist()]
        enc = encode_community(spectrum)
        assert enc.is_padded.any()

        old = [EncodedCommunity(2, rng.permutation(4), np.zeros(4), "repeat", 4, 2) for _ in range(31)]
        rd = decompose_reduced(ReducedProblem(old, {}, False, 0), Partition.from_labels([0] * 31))
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

        _check_packable(objective, "a spectrum")
        with pytest.raises(ResourceError, match="63 variables"):
            _check_packable(PolyHamiltonian(n + 1, {(0, n): 1.0}), "a spectrum")


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
        got = rp.full_objective().energies_of(np.arange(1 << n)) + h.constant
        np.testing.assert_allclose(got, spin_energies(h), rtol=0, atol=1e-12)


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
                    bits.update(zip(d.community_vars[c], int_to_bits(state, len(d.community_vars[c]))))
                for subset, coeff in d.straddling_terms.items():
                    if d.footprint(subset) == footprint:
                        expected[joint] += coeff * np.prod([1 - 2 * bits[v] for v in subset])
            np.testing.assert_allclose(coupling.table(), expected, rtol=0, atol=1e-12)

    def test_two_single_variable_communities(self):
        h = PolyHamiltonian(2, {(0, 1): 0.8})
        _, rp, _ = _level_one(h, [0, 1], eta=1.0)
        table = rp.coupling_table((0, 1))
        np.testing.assert_allclose(table, 0.8 * np.array([[1.0, -1.0], [-1.0, 1.0]]))


class TestBuildReduced:
    def test_master_identity_quadratic(self):
        for seed in range(8):
            h = random_quadratic(10, 16, seed)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            _, rp, chain = _level_one(h, p.community_of)
            _check_master_identity(h, rp, chain, h.constant)

    def test_master_identity_pubo(self):
        for seed in range(6):
            h = random_pubo(9, 13, seed)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            _, rp, chain = _level_one(h, p.community_of)
            _check_master_identity(h, rp, chain, h.constant)

    def test_master_identity_reduced_eta(self):
        for seed in range(4):
            h = random_quadratic(10, 16, seed + 30)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            _, rp, chain = _level_one(h, p.community_of, eta=0.5)
            _check_master_identity(h, rp, chain, h.constant)

    def test_eta_one_min_is_global_min(self):
        for seed in range(6):
            h = random_quadratic(11, 18, seed)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            _, rp, chain = _level_one(h, p.community_of)
            best = min(
                rp.energy_of_indices(rp.indices_from_bits(j))
                for j in range(1 << rp.total_qubits)
            )
            assert best + h.constant == pytest.approx(float(spin_energies(h).min()), abs=1e-9)

    def test_chi_count_matches_edge_formula(self):
        for seed in range(6):
            h = random_quadratic(10, 20, seed)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            d, rp, _ = _level_one(h, p.community_of)
            expected = 0
            for i in range(p.n_communities):
                for j in range(i + 1, p.n_communities):
                    n_edges = sum(
                        1 for s in d.straddling_terms if d.footprint(s) == (i, j)
                    )
                    expected += (
                        rp.encodings[i].d_tilde * rp.encodings[j].d_tilde * n_edges
                    )
            assert rp.n_chi == expected

    def test_padded_penalty_never_argmin(self):
        for seed in range(5):
            h = random_quadratic(9, 14, seed)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            _, rp, _ = _level_one(h, p.community_of, padding="penalty")
            best_joint = min(
                range(1 << rp.total_qubits),
                key=lambda j: rp.energy_of_indices(rp.indices_from_bits(j)),
            )
            idx = rp.indices_from_bits(best_joint)
            for c, enc in enumerate(rp.encodings):
                assert not enc.is_padded[idx[c]]


class TestContractedGraph:
    def test_exact_norm_weight(self):
        h = PolyHamiltonian(2, {(0, 1): 0.8})
        _, rp, _ = _level_one(h, [0, 1])
        g = rp.contracted_graph()
        assert g.edges == pytest.approx({(0, 1): 0.8})
        assert g.vertex_sizes == rp.m_tildes

    def test_bound_weight_without_chi(self):
        h = PolyHamiltonian(4, {(0, 2): 0.5, (1, 3): -0.25, (0, 1): 0.9, (2, 3): 0.9})
        _, rp, _ = _level_one(h, [0, 0, 1, 1], compute_chi=False)
        g = rp.contracted_graph()
        assert g.edges == pytest.approx({(0, 1): 0.75})

    def test_exact_never_exceeds_bound(self):
        for seed in range(8):
            h = random_quadratic(10, 18, seed)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            _, rp_exact, _ = _level_one(h, p.community_of, compute_chi=True)
            _, rp_bound, _ = _level_one(h, p.community_of, compute_chi=False)
            for footprint in rp_exact.couplings:
                assert rp_exact.j_tilde(footprint) <= rp_bound.j_tilde(footprint) + 1e-12

    def test_hyper_footprint_clique_expansion(self):
        h = PolyHamiltonian(3, {(0, 1, 2): 0.6})
        _, rp, _ = _level_one(h, [0, 1, 2])
        g = rp.contracted_graph()
        assert g.edges == pytest.approx({(0, 1): 0.2, (0, 2): 0.2, (1, 2): 0.2})


class TestReducedAsPoly:
    def test_single_qubit_table(self):
        from dcreduce.cutoff import Window
        from dcreduce.optimizer import enumerate_window_exhaustive
        from dcreduce.reduction import ReducedProblem

        h = PolyHamiltonian(1, {(): 0.3, (0,): 0.7})
        spec = enumerate_window_exhaustive(h, Window(-1.0, 1.5, 1e-9))
        assert spec.d == 2
        enc = encode_community(spec)
        rp = ReducedProblem((enc,), {}, True, 0)
        poly = reduced_as_poly(rp)
        e0, e1 = enc.energies
        assert poly.terms == pytest.approx({(): (e0 + e1) / 2, (0,): (e0 - e1) / 2})

    def test_matches_table_lookup(self):
        for seed in range(5):
            h = random_quadratic(9, 15, seed)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            _, rp, _ = _level_one(h, p.community_of)
            poly = reduced_as_poly(rp)
            assert poly.n_vars == rp.total_qubits
            for joint in range(1 << rp.total_qubits):
                idx = rp.indices_from_bits(joint)
                expected = rp.energy_of_indices(idx)
                got = poly.energies(np.array([joint]))[0]
                assert got == pytest.approx(expected, abs=1e-9)

    def test_footprint_over_cap_rejected(self):
        from dcreduce.errors import ResourceError

        h = PolyHamiltonian(2, {(0, 1): 0.8})
        _, rp, _ = _level_one(h, [0, 1])
        with pytest.raises(ResourceError):
            reduced_as_poly(rp, max_qubits=1)

    def test_all_zero_tuple_identity(self):
        h = random_quadratic(8, 12, 9)
        p = louvain(hypergraph_to_graph(h), seed=9)
        _, rp, _ = _level_one(h, p.community_of)
        poly = reduced_as_poly(rp)
        expected = sum(enc.energies[0] for enc in rp.encodings)
        for footprint, coupling in rp.couplings.items():
            expected += float(coupling.table()[(0,) * len(footprint)])
        assert poly.evaluate((0,) * rp.total_qubits) == pytest.approx(expected, abs=1e-9)


def _two_level(h, seed=0, eta=1.0):
    p1 = louvain(hypergraph_to_graph(h), seed=seed)
    if p1.n_communities < 2:
        return None
    d, rp, chain = _level_one(h, p1.community_of, eta=eta)
    # force a second level by pairing communities
    labels = [i // 2 for i in range(rp.n_communities)]
    p2 = Partition.from_labels(labels)
    if p2.n_communities == rp.n_communities:
        return None
    rd = decompose_reduced(rp, p2)
    quadratic = h.is_pure_quadratic()
    spectra, deltas = [], []
    for l in range(p2.n_communities):
        objective = rd.rp.local_objective(rd.members[l])
        delta = iteration_delta(rd, l, quadratic)
        deltas.append(delta)
        spectra.append(enumerate_low_exhaustive(objective, delta, eta))
    encodings = [
        encode_community(s, delta=deltas[l]) for l, s in enumerate(spectra)
    ]
    rp2 = build_reduced_iter(rd, encodings)
    chain.levels.append(ChainLevel(tuple(rd.members), tuple(encodings)))
    return rp2, chain


def _iterate_once(h, rp, chain, labels, eta=1.0, padding="repeat", compute_chi=True):
    """One manual iteration level under an explicit community grouping."""
    p = Partition.from_labels(labels)
    if p.n_communities == rp.n_communities:
        return None
    rd = decompose_reduced(rp, p)
    quadratic = h.is_pure_quadratic()
    spectra, deltas = [], []
    for l in range(p.n_communities):
        objective = rd.rp.local_objective(rd.members[l])
        delta = iteration_delta(rd, l, quadratic)
        deltas.append(delta)
        spectra.append(enumerate_low_exhaustive(objective, delta, eta))
    encodings = [
        encode_community(s, padding, delta=deltas[l]) for l, s in enumerate(spectra)
    ]
    new_rp = build_reduced_iter(rd, encodings, compute_chi)
    chain.levels.append(ChainLevel(tuple(rd.members), tuple(encodings)))
    return new_rp


class TestIteration:
    def test_three_level_master_identity(self):
        # force three levels by pairing communities twice; the identity must
        # survive arbitrary depth
        checked = 0
        for seed in range(12):
            h = random_quadratic(13, 24, seed + 200)
            p1 = louvain(hypergraph_to_graph(h), seed=seed)
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
                rp3.energy_of_indices(rp3.indices_from_bits(j))
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
                rp2.energy_of_indices(rp2.indices_from_bits(j))
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
        best = min(joints, key=lambda j: rp2.energy_of_indices(rp2.indices_from_bits(j)))
        decoded = chain.decode_full(best)
        assert h.evaluate(decoded) == pytest.approx(float(spin_energies(h).min()), abs=1e-9)

    def test_monotone_window_population(self):
        # d_i(eta) is non-decreasing in eta for a fixed partition
        for seed in range(10):
            h = random_quadratic(10, 16, seed)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            d = decompose(h, p)
            quadratic = h.is_pure_quadratic()
            for i in range(p.n_communities):
                delta = delta_two_body(d, i) if quadratic else delta_pubo(d, i)
                local = d.local_poly(i)
                previous = 0
                for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
                    count = enumerate_low_exhaustive(local, delta, eta).d
                    assert count >= previous
                    previous = count

    @given(
        seed=st.integers(0, 10**6),
        pubo=st.booleans(),
        padding=st.sampled_from(["repeat", "penalty"]),
        compute_chi=st.booleans(),
        eta=st.sampled_from([0.4, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_master_identity_property(self, seed, pubo, padding, compute_chi, eta, data):
        # level 1 and one iteration level under drawn partitions
        n = 8
        h = random_pubo(n, 12, seed, max_arity=3) if pubo else random_quadratic(n, 12, seed)
        labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        _, rp, chain = _level_one(h, labels, eta, padding, compute_chi)
        check = _check_master_identity if padding == "repeat" else _check_penalty_identity
        check(h, rp, chain, h.constant)
        k = rp.n_communities
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
        rp2 = _iterate_once(h, rp, chain, labels, eta, padding, compute_chi)
        if rp2 is not None:
            check(h, rp2, chain, h.constant)

    @given(st.integers(0, 10**6), st.integers(0, 2**12 - 1))
    @settings(max_examples=40, deadline=None)
    def test_decode_identity_property(self, seed, joint_bits):
        h = random_quadratic(9, 14, seed % 50)
        p = louvain(hypergraph_to_graph(h), seed=seed % 7)
        _, rp, chain = _level_one(h, p.community_of)
        joint = joint_bits & ((1 << rp.total_qubits) - 1)
        decoded = chain.decode_full(joint)
        assert len(decoded) == h.n_vars
        reduced = rp.energy_of_indices(rp.indices_from_bits(joint)) + h.constant
        assert reduced == pytest.approx(h.evaluate(decoded), abs=1e-9)

    def test_entry_backed_couplings_match_materialized(self, monkeypatch):
        # force every coupling onto the on-demand evaluation path and check
        # the identity still holds (this is the large-table fallback)
        import dcreduce.reduction as reduction_module

        for seed in range(4):
            h = random_quadratic(10, 16, seed + 70)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            if p.n_communities < 2:
                continue
            monkeypatch.setattr(reduction_module, "MAX_TABLE_ENTRIES", 1)
            monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
            _, rp, chain = _level_one(h, p.community_of, compute_chi=True)
            assert all(not c.can_materialize for c in rp.couplings.values())
            # j_tilde degrades to the bound when nothing materializes
            for footprint in rp.couplings:
                assert rp.j_tilde(footprint) == rp.couplings[footprint].bound
            _check_master_identity(h, rp, chain, h.constant)
            monkeypatch.undo()
            _, rp_mat, _ = _level_one(h, p.community_of, compute_chi=True)
            rng = np.random.default_rng(seed)
            for footprint, coupling in rp.couplings.items():
                probes = [rng.integers(0, s, size=32) for s in coupling.shape]
                np.testing.assert_allclose(
                    coupling.values(probes),
                    rp_mat.coupling_table(footprint)[tuple(probes)],
                )

    def test_reduced_minimum_monotone_in_eta_for_fixed_partition(self):
        # with the partition held fixed, smaller eta keeps a subset of the
        # states, so the reduced-space minimum cannot improve
        for seed in range(6):
            h = random_quadratic(10, 16, seed + 60)
            p = louvain(hypergraph_to_graph(h), seed=seed)
            if p.n_communities < 2:
                continue
            previous = None
            for eta in (1.0, 0.75, 0.5, 0.25, 0.0):
                _, rp, _ = _level_one(h, p.community_of, eta=eta)
                best = min(
                    rp.energy_of_indices(rp.indices_from_bits(j))
                    for j in range(1 << rp.total_qubits)
                )
                if previous is not None:
                    assert best >= previous - 1e-12
                previous = best


def _meshgrid_range(rp, footprints, touched):
    # only unpadded indices: the range must not depend on the padding
    valid = [np.flatnonzero(~np.array(rp.encodings[c].is_padded)) for c in touched]
    grids = np.meshgrid(*valid, indexing="ij")
    position = {c: i for i, c in enumerate(touched)}
    total = np.zeros(grids[0].shape)
    for footprint in footprints:
        total = total + rp.couplings[footprint].values([grids[position[c]] for c in footprint])
    return float(total.max() - total.min())


class TestCouplingRange:
    @pytest.mark.parametrize("compute_chi", [True, False])
    def test_matches_meshgrid_reference(self, compute_chi):
        hyper = padded = 0
        for seed in range(8):
            h = random_pubo(10, 22, seed + 400, max_arity=3)
            labels = [0, 0, 0, 1, 1, 1, 2, 2, 3, 3]
            _, rp, _ = _level_one(h, labels, eta=0.6, padding="penalty", compute_chi=compute_chi)
            hyper += any(len(fp) == 3 for fp in rp.couplings)
            padded += any(any(enc.is_padded) for enc in rp.encodings)
            footprints = sorted(rp.couplings)
            subsets = [footprints] + [[fp for fp in footprints if c in fp] for c in range(4)]
            for subset in subsets:
                if not subset:
                    continue
                touched = sorted({c for fp in subset for c in fp})
                assert _coupling_range(rp, subset, touched) == _meshgrid_range(rp, subset, touched)
        assert hyper and padded


# -- grid kernels: slab scans and blocked coupling composition ------------------


def _bits(values):
    """Raw IEEE-754 bits: equal bits mean bit-identical, signed zeros included."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_scan_matches(objective):
    starts, slabs = zip(*objective.scan_chunks())
    assert list(starts) == np.cumsum([0] + [len(s) for s in slabs[:-1]]).tolist()
    states = np.arange(1 << objective.n_vars, dtype=np.int64)
    np.testing.assert_array_equal(_bits(np.concatenate(slabs)), _bits(objective.energies_of(states)))


def _assert_tables_match(rp):
    """Every coupling's table equals ``values`` on the full open grid of a
    fresh coupling with the same parts, bit for bit."""
    for coupling in rp.couplings.values():
        fresh = Coupling(coupling.shape, parts=coupling.parts)
        expected = fresh.values(np.ix_(*map(np.arange, coupling.shape)))
        np.testing.assert_array_equal(_bits(coupling.table()), _bits(expected))


# Table entries: signed zeros, and values whose sums round, so that adding
# in another order changes bits.
_GRID_VALUES = np.array([-1.5, -0.3, -0.0, 0.0, 0.1, 0.7, 2.0 / 3.0])


def _random_encoding(rng, width):
    """Encoding of a random register whose decode entries have ``width`` bits."""
    m = int(rng.integers(1, 4))
    decode = [bits_to_int(rng.integers(0, 2, width).tolist()) for _ in range(1 << m)]
    energies = rng.choice(_GRID_VALUES, 1 << m)
    return EncodedCommunity(m, decode, energies, "repeat", 1 << m, width)


def _random_reduced(rng, k):
    encodings = [_random_encoding(rng, 1) for _ in range(k)]
    couplings = {}
    for _ in range(int(rng.integers(1, 2 * k + 1))):
        size = int(rng.integers(2, min(k, 3) + 1))
        footprint = tuple(sorted(rng.choice(k, size, replace=False).tolist()))
        shape = tuple(encodings[c].d_tilde for c in footprint)
        couplings[footprint] = Coupling(shape, table=rng.choice(_GRID_VALUES, shape))
    return ReducedProblem(encodings, couplings, False, 0)


def _random_next(rng, rp):
    """The next level under a random coarser grouping, with random decode
    tables; couplings stay unmaterialized."""
    labels = rng.integers(0, max(1, rp.n_communities - 1), rp.n_communities).tolist()
    rd = decompose_reduced(rp, Partition.from_labels(labels))
    encodings = [
        _random_encoding(rng, sum(rp.encodings[c].m_tilde for c in members))
        for members in rd.members
    ]
    return build_reduced_iter(rd, encodings, compute_chi=False)


class TestGridKernels:
    """``TableObjective.scan_chunks`` equals ``energies_of`` and
    ``Coupling.table`` equals ``values`` on the open grid, bit for bit."""

    @pytest.mark.parametrize("slab", [2, 16, 1 << 16])
    @pytest.mark.parametrize("padding", ["repeat", "penalty"])
    def test_scan_matches_energies_of(self, monkeypatch, slab, padding):
        # slab 2 cuts inside every register wider than one qubit
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
        padded = 0
        for seed in range(3):
            h = random_pubo(10, 22, seed + 600, max_arity=3)
            _, rp, chain = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3], eta=0.7, padding=padding)
            _assert_scan_matches(rp.full_objective())
            rp2 = _iterate_once(h, rp, chain, [0, 0, 1, 1], eta=0.7, padding=padding)
            _assert_scan_matches(rp2.full_objective())
            padded += any(any(enc.is_padded) for enc in rp.encodings + rp2.encodings)
        assert padded

    @pytest.mark.parametrize("slab", [4, 1 << 16])
    def test_scan_with_lazy_couplings(self, monkeypatch, slab):
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
        for seed in range(3):
            h = random_quadratic(10, 18, seed + 620)
            _, rp, _ = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 2, 2], compute_chi=False)
            objective = rp.full_objective()
            assert all(c._table is None for _, c in objective.couplings)
            _assert_scan_matches(objective)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_single_register(self, monkeypatch, m):
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", 4)
        rng = np.random.default_rng(m)
        _assert_scan_matches(TableObjective([m], [rng.choice(_GRID_VALUES, 1 << m)], []))
        # two registers, the low one wider than the slab, and a coupling
        table = rng.choice(_GRID_VALUES, (1 << m, 4))
        _assert_scan_matches(
            TableObjective([m, 2], [rng.choice(_GRID_VALUES, 1 << m), np.zeros(4)], [((0, 1), table)])
        )

    @pytest.mark.parametrize("slab", [4, 1 << 16])
    def test_table_merges_old_axes_of_one_community(self, monkeypatch, slab):
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
        merged = 0
        for seed in range(4):
            h = random_pubo(10, 24, seed + 640, max_arity=3)
            _, rp, chain = _level_one(h, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3], eta=0.8, compute_chi=False)
            for coupling in rp.couplings.values():
                for _, gathers in coupling.parts:
                    axes = [axis for axis, _ in gathers]
                    merged += len(set(axes)) < len(axes)
            _assert_tables_match(rp)
            rp2 = _iterate_once(h, rp, chain, [0, 0, 1, 1], eta=0.8)
            _assert_tables_match(rp2)
        assert merged

    def test_table_from_unmaterialized_old_parts(self, monkeypatch):
        lazy_parts = 0
        for seed in range(4):
            h = random_quadratic(12, 22, seed + 660)
            with monkeypatch.context() as patch:
                patch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
                _, rp, chain = _level_one(
                    h, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3], compute_chi=False
                )
                rp2 = _iterate_once(h, rp, chain, [0, 0, 1, 1], compute_chi=False)
            for coupling in rp2.couplings.values():
                lazy_parts += sum(old._table is None for old, _ in coupling.parts)
            _assert_tables_match(rp2)
        assert lazy_parts

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 5),
        slab=st.sampled_from([1, 2, 8, 64, 1 << 16]),
        materialize=st.sampled_from([0, 8, 1 << 22]),
    )
    def test_random_reduced_problems(self, seed, k, slab, materialize):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction_module, "SLAB_ENTRIES", slab)
            patch.setattr(reduction_module, "MATERIALIZE_ENTRIES", materialize)
            rp = _random_reduced(rng, k)
            rp2 = _random_next(rng, rp)
            # materialize about half of the middle level, so the top level
            # composes from both kinds of old part
            for coupling in rp2.couplings.values():
                if rng.random() < 0.5:
                    coupling.table()
            rp3 = _random_next(rng, rp2)
            for level in (rp2, rp3):
                _assert_tables_match(level)
            for level in (rp, rp2, rp3):
                _assert_scan_matches(level.full_objective())
