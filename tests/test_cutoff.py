"""Decomposition and certified-window tests.

Every level decomposes the reduced problem of the level below; the first
level decomposes level 0, the input as the trivial encoding of itself, so
the tests below decompose level 0 under explicit partitions. The
certification suites check the load-bearing guarantee: the global ground
state's restriction to any community always lands inside that community's
window, for both the two-body and the general cut-off.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from dcreduce.clustering import Partition
from dcreduce.errors import DimensionError, DomainError
from dcreduce.hamiltonian import PolyHamiltonian
from dcreduce.optimizer import enumerate_low_exhaustive, window
import dcreduce.reduction as reduction_module
from dcreduce.reduction import (
    EXACT_RANGE_VARS,
    ReducedProblem,
    TableObjective,
    build_reduced,
    community_objective,
    decompose,
    delta_pubo,
    delta_two_body,
    encode_community,
)
from helpers import (
    brute_argmin, energy_of_indices, level1_partition, naive_evaluate, random_pubo, random_quadratic,
    spin_energies,
)


def _level0(h, labels):
    """The input's level-0 problem decomposed under a partition of its variables."""
    return decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels(labels))


def _two_levels(h, labels1, labels2):
    """Level 1 (level 0 decomposed under labels1) and level 2 (its reduced
    problem, windows at eta = 1, decomposed under labels2)."""
    rd1 = _level0(h, labels1)
    encodings = []
    for l, members in enumerate(rd1.members):
        encodings.append(encode_community(enumerate_low_exhaustive(h.split([members])[0], delta_pubo(rd1, l), 1.0)))
    return rd1, decompose(build_reduced(rd1, encodings), Partition.from_labels(labels2))


def _scanned_objective(rp, members):
    """The community objective built by scanning every coupling for the
    footprints inside ``members``."""
    pos = {c: k for k, c in enumerate(members)}
    inside = [
        (tuple(pos[c] for c in fp), coupling)
        for fp, coupling in sorted(rp.couplings.items()) if all(c in pos for c in fp)
    ]
    return TableObjective([rp.encodings[c].m_tilde for c in members],
                          [rp.encodings[c].energies for c in members], inside)


def _delta_pubo_at(rd, l, threshold):
    """``delta_pubo`` with ``EXACT_RANGE_VARS`` set to ``threshold``; 0
    forces the bound."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction_module, "EXACT_RANGE_VARS", threshold)
        return delta_pubo(rd, l)


def _sign(subset, x):
    sign = 1
    for j in subset:
        if x[j]:
            sign = -sign
    return sign


class TestDecompose:
    def test_single_community(self):
        h = PolyHamiltonian(3, {(): 1.0, (0, 1): 0.5, (1, 2): -0.25})
        rd = _level0(h, [0, 0, 0])
        assert h.split([rd.members[0]])[0].terms == {(0, 1): 0.5, (1, 2): -0.25}
        assert rd.straddling_footprints == ()
        # the constant stays out of every level
        assert energy_of_indices(rd.rp, (0, 0, 0)) == h.evaluate((0, 0, 0)) - 1.0

    def test_path_graph_bridge(self):
        h = PolyHamiltonian(3, {(0, 1): 1.0, (1, 2): 1.0})
        rd = _level0(h, [0, 0, 1])
        assert h.split([rd.members[0]])[0].terms == {(0, 1): 1.0}
        assert h.split([rd.members[1]])[0].terms == {}
        assert rd.straddle_by_super[0] == ((1, 2),)
        assert rd.straddle_by_super[1] == ((1, 2),)

    def test_hyperedge_touches_three_communities(self):
        h = PolyHamiltonian(3, {(0, 1, 2): 0.7})
        rd = _level0(h, [0, 1, 2])
        for i in range(3):
            assert rd.straddle_by_super[i] == ((0, 1, 2),)
        assert rd.straddling_footprints == ((0, 1, 2),)

    @pytest.mark.parametrize("pubo", [False, True])
    def test_index_holds_every_footprint_once_in_order(self, pubo):
        for seed in range(6):
            h = random_pubo(10, 18, seed, max_arity=3) if pubo else random_quadratic(10, 18, seed)
            for rd in _two_levels(h, [v % 3 for v in range(10)], [0, 0, 1]):
                assert list(rd.straddling_footprints) == sorted(rd.straddling_footprints)
                assert sum(map(len, rd.inside_by_super)) + len(rd.straddling_footprints) == len(rd.rp.couplings)
                for fp in rd.rp.couplings:
                    homes = [l for l, inside in enumerate(rd.inside_by_super) if fp in inside]
                    assert len(homes) == (fp not in rd.straddling_footprints)
                    assert all(c in rd.members[l] for l in homes for c in fp)
                for inside in rd.inside_by_super:
                    assert list(inside) == sorted(inside)

    @pytest.mark.parametrize("pubo", [False, True])
    def test_community_objective_equals_a_full_coupling_scan(self, pubo):
        # at level 1 (variables) and level 2 (registers), bit for bit over every state
        for seed in range(6):
            h = random_pubo(10, 18, seed, max_arity=3) if pubo else random_quadratic(10, 18, seed)
            for rd in _two_levels(h, [v % 3 for v in range(10)], [0, 0, 1]):
                for l, members in enumerate(rd.members):
                    got = community_objective(rd, l)
                    want = _scanned_objective(rd.rp, members)
                    assert got.n_vars == want.n_vars
                    states = np.arange(1 << got.n_vars)
                    assert got.energies(states).tobytes() == want.energies(states).tobytes()

    def test_partition_mismatch(self):
        h = PolyHamiltonian(3, {(0, 1): 1.0})
        with pytest.raises(DimensionError):
            _level0(h, [0, 0])

    def test_term_accounting(self):
        for seed in range(10):
            h = random_pubo(10, 16, seed)
            p = level1_partition(h, seed)
            rd = _level0(h, p.community_of)
            n_constant = 1 if () in h.terms else 0
            counted = sum(len(h.split([m])[0].terms) for m in rd.members)
            assert counted + len(rd.straddling_footprints) + n_constant == len(h.terms)

    def test_energy_conservation(self):
        for seed in range(10):
            h = random_pubo(9, 14, seed)
            rng = np.random.default_rng(seed)
            rd = _level0(h, rng.integers(0, 3, size=9).tolist())
            x = tuple(int(b) for b in rng.integers(0, 2, size=9))
            total = h.constant
            for members in rd.members:
                total += h.split([members])[0].evaluate(tuple(x[v] for v in members))
            for subset in rd.straddling_footprints:
                total += h.terms[subset] * _sign(subset, x)
            assert total == pytest.approx(h.evaluate(x), abs=1e-9)

    def test_restrict_reindexing(self):
        h = PolyHamiltonian(4, {(1, 3): 0.5, (0, 2): -1.0})
        rd = _level0(h, [0, 1, 0, 1])
        assert h.split([rd.members[0]])[0].terms == {(0, 1): -1.0}
        assert h.split([rd.members[1]])[0].terms == {(0, 1): 0.5}


class TestDeltaTwoBody:
    def test_sum_of_absolutes(self):
        h = PolyHamiltonian(4, {(0, 2): 0.5, (0, 3): -0.25, (1, 2): 0.25})
        rd = _level0(h, [0, 0, 1, 1])
        assert delta_two_body(rd, 0) == pytest.approx(1.0, abs=1e-12)

    def test_no_interactions(self):
        h = PolyHamiltonian(4, {(0, 1): 1.0, (2, 3): 1.0})
        rd = _level0(h, [0, 0, 1, 1])
        assert delta_two_body(rd, 0) == 0.0

    def test_single_edge(self):
        h = PolyHamiltonian(2, {(0, 1): -2.0})
        rd = _level0(h, [0, 1])
        assert delta_two_body(rd, 0) == pytest.approx(2.0)

    def test_rejects_non_quadratic(self):
        h = PolyHamiltonian(3, {(0,): 1.0, (0, 1, 2): 1.0})
        rd = _level0(h, [0, 0, 1])
        with pytest.raises(DomainError):
            delta_two_body(rd, 0)

    def test_rejects_non_quadratic_at_iteration_level(self):
        # the flag travels with the reduced problem to every later level
        h = PolyHamiltonian(4, {(0, 1): 0.5, (1, 2): -1.0, (1, 2, 3): 0.25, (0, 3): 0.75})
        rd = _level0(h, [0, 0, 1, 1])
        encodings = [
            encode_community(enumerate_low_exhaustive(h.split([m])[0], delta_pubo(rd, i), 1.0))
            for i, m in enumerate(rd.members)
        ]
        rp = build_reduced(rd, encodings)
        assert not rp.quadratic and rp.couplings
        with pytest.raises(DomainError):
            delta_two_body(decompose(rp, Partition.from_labels([0, 1])), 0)

    def test_quadratic_flag_reaches_the_next_level(self):
        h = random_quadratic(6, 9, 4)
        rd = _level0(h, [0, 0, 0, 1, 1, 1])
        encodings = [
            encode_community(enumerate_low_exhaustive(h.split([m])[0], delta_two_body(rd, i), 1.0))
            for i, m in enumerate(rd.members)
        ]
        rp = build_reduced(rd, encodings)
        assert rd.rp.quadratic and rp.quadratic
        rd2 = decompose(rp, Partition.from_labels([0, 1]))
        assert delta_two_body(rd2, 0) == pytest.approx(rp.couplings[(0, 1)].norm)


def _straddling_range(h, labels, community):
    """Oracle: max - min of the terms straddling ``community``, over all
    assignments of the variables they touch, read off ``h`` and the labels."""
    terms = {
        s: c for s, c in h.terms.items()
        if community in {labels[v] for v in s} and len({labels[v] for v in s}) > 1
    }
    touched = sorted({v for s in terms for v in s})
    part = PolyHamiltonian(h.n_vars, terms)
    energies = []
    for values in itertools.product((0, 1), repeat=len(touched)):
        bits = [0] * h.n_vars
        for v, b in zip(touched, values):
            bits[v] = b
        energies.append(naive_evaluate(part, bits))
    return max(energies) - min(energies), len(touched), sum(abs(c) for c in terms.values())


# A = {0, 1}, B = {2}, C = {3}: the straddling products of A multiply to the
# identity, so they cannot all be -1 at once; the range is 4, the bound 6.
_DEPENDENT = {(0, 2): 1.0, (1, 3): 1.0, (0, 1, 2, 3): 1.0}


class TestDeltaPubo:
    def test_bound_is_twice_two_body(self):
        for seed in range(8):
            h = random_quadratic(8, 12, seed)
            rd = _level0(h, [0, 0, 0, 0, 1, 1, 1, 1])
            for i in range(2):
                assert _delta_pubo_at(rd, i, 0) == pytest.approx(
                    2.0 * delta_two_body(rd, i), abs=1e-12
                )

    def test_single_hyperedge_exact_range(self):
        h = PolyHamiltonian(4, {(0, 1, 2): 0.5, (0, 1): 0.1})
        rd = _level0(h, [0, 0, 1, 1])
        # only (0,1,2) straddles; its exact range is 1.0
        assert delta_pubo(rd, 0) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_hyperedges_exact_range(self):
        h = PolyHamiltonian(6, {(0, 3, 4): 0.3, (1, 5): -0.4, (0, 1): 0.2})
        rd = _level0(h, [0, 0, 0, 1, 1, 1])
        assert delta_pubo(rd, 0) == pytest.approx(1.4, abs=1e-12)

    def test_exact_never_exceeds_bound(self):
        for seed in range(12):
            h = random_pubo(10, 15, seed)
            rng = np.random.default_rng(seed)
            rd = _level0(h, rng.integers(0, 3, size=10).tolist())
            for i in range(rd.partition.n_communities):
                exact = delta_pubo(rd, i)
                bound = _delta_pubo_at(rd, i, 0)
                assert exact <= bound + 1e-12

    def test_no_interactions(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        rd = _level0(h, [0, 0])
        assert delta_pubo(rd, 0) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_range_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed + 900)
        n = int(rng.integers(6, 12))
        h = random_pubo(n, 2 * n, seed + 900)
        labels = Partition.from_labels(rng.integers(0, 3, size=n).tolist()).community_of
        rd = _level0(h, labels)
        for i in range(rd.partition.n_communities):
            expected, k, _ = _straddling_range(h, labels, i)
            assert k <= EXACT_RANGE_VARS
            assert delta_pubo(rd, i) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_threshold_edge(self):
        h = PolyHamiltonian(4, _DEPENDENT)
        labels = [0, 0, 1, 2]
        expected, k, total = _straddling_range(h, labels, 0)
        assert (expected, k, total) == (4.0, 4, 3.0)
        rd = _level0(h, labels)
        assert _delta_pubo_at(rd, 0, k) == expected
        assert _delta_pubo_at(rd, 0, k - 1) == 2.0 * total

    @pytest.mark.parametrize("extra", [EXACT_RANGE_VARS - 4, EXACT_RANGE_VARS - 3])
    def test_threshold_edge_at_default(self, extra):
        # the dependent triple plus free pairs (0, v): k = 4 + extra touched
        # variables, exact range 4 + 2 * extra, bound 6 + 2 * extra
        n = 4 + extra
        h = PolyHamiltonian(n, {**_DEPENDENT, **{(0, v): 1.0 for v in range(4, n)}})
        rd = _level0(h, [0, 0] + list(range(1, n - 1)))
        exact = n <= EXACT_RANGE_VARS
        assert delta_pubo(rd, 0) == (4.0 if exact else 6.0) + 2.0 * extra

    def test_exact_range_at_default_eliminates_outside(self):
        # the 20-variable edge case: with community 0 inside, every free
        # variable is its own outside component, so no joint grid is built
        # (the 2^20-point grid of its 20 variables peaks near 16 MB)
        n = EXACT_RANGE_VARS
        h = PolyHamiltonian(n, {**_DEPENDENT, **{(0, v): 1.0 for v in range(4, n)}})
        rd = _level0(h, [0, 0] + list(range(1, n - 1)))
        tracemalloc.start()
        try:
            assert delta_pubo(rd, 0) == 4.0 + 2.0 * (n - 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestWindow:
    def test_full_window(self):
        w = window(-3.0, 2.0, 1.0)
        assert (w.lo, w.hi) == (-3.0, -1.0)

    def test_degenerate_window(self):
        w = window(-3.0, 2.0, 0.0)
        assert w.lo == w.hi == -3.0
        assert w.contains(-3.0)
        assert not w.contains(-2.99)

    def test_half_window(self):
        w = window(-3.0, 2.0, 0.5)
        assert (w.lo, w.hi) == (-3.0, -2.0)

    def test_eta_out_of_range(self):
        with pytest.raises(DomainError):
            window(0.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            window(0.0, 1.0, -0.1)

    def test_negative_delta(self):
        with pytest.raises(DomainError):
            window(0.0, -1.0, 0.5)

    def test_tolerance_scales(self):
        w = window(-100.0, 50.0, 1.0)
        assert w.contains(-50.0 + 1e-8)  # tol = 1e-9 * 150

    def test_array_window_is_every_chains_scalar_window(self):
        # the sampled harvest tests a (steps, chains) block against one window
        # per chain floor; each column must be that chain's scalar window,
        # bit for bit, also exactly on a tolerance edge and one ulp past it
        floors = np.array([-3.0, -1e6, 0.0, 12.5, -0.1, 7e-300])
        delta, eta = 2.5, 0.75
        rng = np.random.default_rng(3)
        columns = []
        for floor in floors.tolist():
            w = window(floor, delta, eta)
            top, bottom = w.hi + w.tol, w.lo - w.tol
            edges = [top, np.nextafter(top, np.inf), bottom, np.nextafter(bottom, -np.inf), w.lo, w.hi]
            columns.append(edges + (floor + rng.uniform(-1.0, 3.0, size=6)).tolist())
        energies = np.array(columns).T
        got = window(floors, delta, eta).contains(energies)
        expected = [
            [window(floor, delta, eta).contains(e) for floor, e in zip(floors.tolist(), row)]
            for row in energies.tolist()
        ]
        assert got.dtype == bool and got.shape == energies.shape
        assert got.tolist() == expected
        assert got[[0, 2, 4, 5]].all() and not got[[1, 3]].any()


class TestCertification:
    """Global ground state's local energies always fall inside the windows."""

    @pytest.mark.parametrize("seed", range(12))
    def test_two_body_windows_contain_ground_state(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 17))
        h = random_quadratic(n, 2 * n, seed)
        ground, _ = brute_argmin(h)
        rd = _level0(h, rng.integers(0, max(2, n // 4), size=n).tolist())
        for i, members in enumerate(rd.members):
            delta = delta_two_body(rd, i)
            local = h.split([members])[0]
            spectrum_min = float(spin_energies(local).min())
            restricted = tuple(ground[v] for v in members)
            local_energy = local.evaluate(restricted)
            w = window(spectrum_min, delta, 1.0)
            assert w.contains(local_energy)

    @pytest.mark.parametrize("seed", range(10))
    def test_pubo_windows_contain_ground_state(self, seed):
        rng = np.random.default_rng(seed + 500)
        n = int(rng.integers(8, 15))
        h = random_pubo(n, 2 * n, seed)
        ground, _ = brute_argmin(h)
        rd = _level0(h, rng.integers(0, max(2, n // 4), size=n).tolist())
        for i, members in enumerate(rd.members):
            for threshold in (0, 20):
                delta = _delta_pubo_at(rd, i, threshold)
                local = h.split([members])[0]
                spectrum_min = float(spin_energies(local).min())
                restricted = tuple(ground[v] for v in members)
                w = window(spectrum_min, delta, 1.0)
                assert w.contains(local.evaluate(restricted))
