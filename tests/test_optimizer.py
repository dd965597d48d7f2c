"""Exhaustive and sampled enumerator tests."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import dcreduce.optimizer as optimizer_module
import dcreduce.reduction as reduction_module
from dcreduce.clustering import Partition
from dcreduce.driver import RunConfig, _solve_objective, brute_force_reference, run
from dcreduce.errors import DomainError, InternalError, ResourceError
from dcreduce.hamiltonian import SLAB_ENTRIES, PolyHamiltonian, int_to_bits
from dcreduce.optimizer import (
    SCAN_CEILING,
    OptimizerBudget,
    PolyObjective,
    Window,
    _dense_table,
    _freeze,
    _penalty_of,
    as_objective,
    enumerate_low_exhaustive,
    enumerate_low_sampled,
    solve_ground_objective,
    window,
)
from dcreduce.reduction import (
    ReducedProblem, TableObjective, build_reduced, decompose, delta_two_body, encode_community,
)
from helpers import random_coupling, random_pubo, random_quadratic, spin_energies


def bits_of(spectrum):
    """Every field of a spectrum, its energies as raw bits."""
    return (
        spectrum.packed.tolist(), spectrum.energies.view(np.int64).tolist(),
        spectrum.window, spectrum.complete, spectrum.n_vars,
    )


class TestExhaustive:
    def test_degenerate_pair(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        spectrum = enumerate_low_exhaustive(h, 0.0, 1.0)
        assert spectrum.window == Window(-1.0, -1.0, 1e-9)
        # bits (0, 1) pack to 2 and sort before (1, 0), packed 1
        assert spectrum.packed.tolist() == [2, 1]
        assert spectrum.energies.tolist() == [-1.0, -1.0]
        assert spectrum.states == (((0, 1), -1.0), ((1, 0), -1.0))
        assert spectrum.complete

    def test_full_window(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        spectrum = enumerate_low_exhaustive(h, 2.0, 1.0)
        assert (spectrum.window.lo, spectrum.window.hi) == (-1.0, 1.0)
        assert spectrum.d == 4

    def test_matches_full_spectrum_filter(self):
        for seed in range(10):
            h = random_quadratic(10 + (seed % 5), 18, seed)
            energies = spin_energies(h)
            e0 = float(energies.min())
            delta = 0.4 * float(energies.max() - e0)
            spectrum = enumerate_low_exhaustive(h, delta, 1.0)
            w = spectrum.window
            expected = {
                int(s) for s in np.nonzero(
                    (energies >= w.lo - w.tol) & (energies <= w.hi + w.tol)
                )[0]
            }
            assert set(spectrum.packed.tolist()) == expected
            assert spectrum.complete

    def test_sorted_by_energy_then_bits(self):
        h = random_quadratic(8, 12, 3)
        spectrum = enumerate_low_exhaustive(h, 3.0, 1.0)
        assert spectrum.packed.dtype == np.int64 and spectrum.energies.dtype == np.float64
        keys = [
            (energy, int_to_bits(state, spectrum.n_vars))
            for state, energy in zip(spectrum.packed.tolist(), spectrum.energies.tolist())
        ]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", [1, 7, 8, 31, 32, 33, 62])
    def test_tie_break_key_is_the_bit_matrix_key(self, n):
        rng = np.random.default_rng(n)
        states = rng.integers(0, 1 << n, size=500, dtype=np.int64)
        # the key as a (d, n) bit matrix, bit 0 its most significant digit
        bits = (states[:, None] >> np.arange(n)) & 1
        expected = bits @ (1 << np.arange(n - 1, -1, -1))
        key = optimizer_module._bit_reversal(states, n)
        assert key.tolist() == expected.tolist()
        tied = rng.integers(0, 3, size=states.size).astype(float)
        np.testing.assert_array_equal(np.lexsort((key, tied)), np.lexsort((expected, tied)))

    def test_ceiling(self):
        with pytest.raises(ResourceError, match="31 variables"):
            enumerate_low_exhaustive(_FixedScan(SCAN_CEILING + 1), 1.0, 1.0)

    @pytest.mark.parametrize("slab", [4, 1 << 16])
    def test_one_pass_matches_scan_then_window(self, monkeypatch, slab):
        # small chunks: the running minimum falls from chunk to chunk, so
        # early chunks keep states that the final window drops
        monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
        monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", slab)
        reduced = first_level(random_quadratic(10, 18, 41), [0] * 5 + [1] * 5)
        objectives = [random_quadratic(10, 18, 40), reduced.full_objective()]
        for objective in objectives:
            for delta, eta in ((0.0, 1.0), (1.3, 0.5), (2.5, 1.0)):
                expected = scan_then_window(as_objective(objective), delta, eta)
                assert bits_of(enumerate_low_exhaustive(objective, delta, eta)) == bits_of(expected)


def scan_then_window(objective, delta, eta):
    """Reference window: a scan for E0, then a second scan that keeps every
    state inside ``window(E0, delta, eta)``."""
    _, e0 = optimizer_module.scan_minimum(objective)
    win = window(e0, delta, eta)
    kept_states, kept_energies = [], []
    for start, energies in objective.scan_chunks():
        inside = np.flatnonzero([win.contains(e) for e in energies.tolist()])
        kept_states.append(start + inside)
        kept_energies.append(energies[inside])
    return _freeze(objective, np.concatenate(kept_states), np.concatenate(kept_energies), win, True)


class _FixedScan:
    """Objective of a given size with fixed chunks, or none that may be read."""

    def __init__(self, n_vars, chunks=None):
        self.n_vars = n_vars
        self.chunks = chunks

    def scan_chunks(self):
        if self.chunks is None:
            raise AssertionError("the scan started")
        return iter(self.chunks)


class TestScanCeiling:
    def test_at_the_ceiling_the_scan_runs(self):
        objective = _FixedScan(SCAN_CEILING, [(0, np.array([3.0, 1.0])), (2, np.array([1.0, -2.0]))])
        assert optimizer_module.scan_minimum(objective) == (3, -2.0)

    def test_above_the_ceiling_no_scan_starts(self):
        with pytest.raises(ResourceError, match="31 variables"):
            optimizer_module.scan_minimum(_FixedScan(SCAN_CEILING + 1))

    def test_brute_force_reference_refuses(self):
        h = PolyHamiltonian(SCAN_CEILING + 1, {(0, 1): 1.0})
        with pytest.raises(ResourceError):
            brute_force_reference(h)

    def test_recombined_solve_adds_context(self):
        def solve(objective):
            cfg = RunConfig(brute_force_ceiling=40)
            return _solve_objective(objective, cfg, "auto", 0)

        assert solve(_FixedScan(SCAN_CEILING, [(0, np.array([0.5, -0.5]))])) == (1, -0.5)
        with pytest.raises(ResourceError, match="^recombined solve: exhaustive scan over 31"):
            solve(_FixedScan(SCAN_CEILING + 1))


def freeze(h, found, win):
    states = np.array(list(found), dtype=np.int64)
    return _freeze(as_objective(h), states, np.array(list(found.values()), dtype=float), win, True)


class TestSpectrumValidation:
    def test_tampered_energy_rejected(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        with pytest.raises(InternalError):
            freeze(h, {1: -0.5}, Window(-1.0, 1.0, 1e-9))

    def test_out_of_window_rejected(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        with pytest.raises(InternalError):
            freeze(h, {0: 1.0}, Window(-1.0, -1.0, 1e-9))

    def test_empty_rejected(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        with pytest.raises(InternalError):
            freeze(h, {}, Window(-1.0, 1.0, 1e-9))


class TestSampled:
    def test_agrees_with_exhaustive(self):
        hits = 0
        for seed in range(20):
            h = random_quadratic(10, 20, seed)
            exhaustive = enumerate_low_exhaustive(h, 2.0, 1.0)
            sampled = enumerate_low_sampled(h, 2.0, 1.0, OptimizerBudget(seed=seed))
            assert not sampled.complete
            hits += set(sampled.packed.tolist()) == set(exhaustive.packed.tolist())
        assert hits >= 18

    def test_degenerate_window_single_ground_state(self):
        h = PolyHamiltonian(3, {(0, 1): 1.0, (1, 2): 1.0, (0,): -0.6})
        energies = spin_energies(h)
        unique_min = np.sum(np.isclose(energies, energies.min())) == 1
        assert unique_min
        spectrum = enumerate_low_sampled(h, 1.0, 0.0, OptimizerBudget(seed=4))
        assert spectrum.d == 1
        assert spectrum.e0 == pytest.approx(float(energies.min()), abs=1e-12)

    def test_no_duplicates_and_in_window(self):
        for seed in range(10):
            h = random_quadratic(11, 20, seed + 50)
            spectrum = enumerate_low_sampled(h, 1.5, 1.0, OptimizerBudget(seed=seed))
            states = spectrum.packed.tolist()
            assert len(set(states)) == len(states)
            for energy in spectrum.energies.tolist():
                assert spectrum.window.contains(energy)

    def test_penalized_energy_clears_window(self):
        # p = width + c1 |E| + c2 implies E + p > E0 + width for every found state
        budget = OptimizerBudget(seed=9)
        h = random_quadratic(10, 18, 77)
        spectrum = enumerate_low_sampled(h, 2.0, 1.0, budget)
        width = spectrum.window.width
        for energy in spectrum.energies.tolist():
            penalty = width + budget.c1 * abs(energy) + budget.c2
            assert energy + penalty > spectrum.e0 + width

    def test_recovers_states_vetoed_in_round_one(self):
        h = random_quadratic(10, 18, 21)
        exhaustive = enumerate_low_exhaustive(h, 2.0, 1.0)
        ground_bits = int(exhaustive.packed[0])

        def veto(round_index, bits):
            return round_index == 0 and bits == ground_bits

        sampled = enumerate_low_sampled(h, 2.0, 1.0, OptimizerBudget(seed=5), veto=veto)
        assert ground_bits in sampled.packed.tolist()

    def test_explicit_window_signature(self, monkeypatch):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        spectrum = enumerate_low_sampled(h, 2.0, 1.0, OptimizerBudget(seed=0))
        assert spectrum.window == window(-1.0, 2.0, 1.0)
        assert set(spectrum.packed.tolist()) == {0, 1, 2, 3}

        def fail(*args, **kwargs):
            raise AssertionError("a chain ran")

        # a bad delta or eta gets one message from both enumerators, before any chain
        monkeypatch.setattr(optimizer_module, "_draw_chains", fail)
        for delta, eta in ((-1.0, 1.0), (1.0, 1.5)):
            with pytest.raises(DomainError) as exhaustive:
                enumerate_low_exhaustive(h, delta, eta)
            with pytest.raises(DomainError) as sampled:
                enumerate_low_sampled(h, delta, eta, OptimizerBudget())
            assert str(sampled.value) == str(exhaustive.value)

    def test_determinism(self):
        h = random_quadratic(10, 18, 8)
        a = enumerate_low_sampled(h, 1.0, 1.0, OptimizerBudget(seed=3))
        b = enumerate_low_sampled(h, 1.0, 1.0, OptimizerBudget(seed=3))
        assert bits_of(a) == bits_of(b)


class TestSolveGround:
    def test_chain_of_two_couplings(self):
        h = PolyHamiltonian(3, {(0, 1): 1.0, (1, 2): 1.0})
        bits, energy = solve_ground_objective(as_objective(h), OptimizerBudget())
        assert energy == pytest.approx(-2.0)
        assert h.evaluate(int_to_bits(bits, 3)) == pytest.approx(-2.0)
        assert brute_force_reference(h) == pytest.approx(-2.0)

    def test_constant_only(self):
        h = PolyHamiltonian(2, {(): 3.5})
        _, energy = solve_ground_objective(as_objective(h), OptimizerBudget())
        assert energy == pytest.approx(3.5)
        assert brute_force_reference(h) == pytest.approx(3.5)

    def test_frustrated_triangle(self):
        h = PolyHamiltonian(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        bits, energy = solve_ground_objective(as_objective(h), OptimizerBudget())
        assert energy == pytest.approx(-1.0)
        assert h.evaluate(int_to_bits(bits, 3)) == pytest.approx(-1.0)
        assert brute_force_reference(h) == pytest.approx(-1.0)
        degenerate = np.isclose(spin_energies(h), -1.0).sum()
        assert degenerate == 6

    def test_annealing_path_matches_scan(self):
        h = random_quadratic(12, 24, 13)
        exact = brute_force_reference(h)
        _, sampled = solve_ground_objective(as_objective(h), OptimizerBudget(seed=2))
        assert sampled == pytest.approx(exact, abs=1e-9)

    def test_budget_validation(self):
        with pytest.raises(Exception):
            OptimizerBudget(max_sweeps=0)
        with pytest.raises(Exception):
            OptimizerBudget(c1=1.5)


# -- replica-batched annealing kernel ------------------------------------------


def reference_ground(objective, budget):
    """Scalar annealer with the kernel's draw order: per chain its start,
    its flips, its accept draws; energies evaluated state by state."""
    rng = np.random.default_rng(budget.seed)
    n = objective.n_vars
    steps = 50 * n

    def energy_of(state):
        return float(objective.energies_of(np.array([state], dtype=np.int64))[0])

    cool = (0.01 / 2.0) ** (1.0 / (steps - 1))
    best_bits, best_e = 0, math.inf
    rounds = stall = 0
    while rounds < budget.max_sweeps and stall < budget.stall_rounds:
        improved = False
        for _ in range(budget.samples_per_round):
            bits = int(rng.integers(0, 1 << n))
            flips = rng.integers(0, n, size=steps)
            draws = rng.random(size=steps)
            energy = energy_of(bits)
            visited = [(bits, energy)]
            temperature = 2.0
            for step in range(steps):
                neighbor = bits ^ (1 << int(flips[step]))
                neighbor_e = energy_of(neighbor)
                delta = neighbor_e - energy
                if delta <= 0.0 or draws[step] < math.exp(-delta / temperature):
                    bits, energy = neighbor, neighbor_e
                    visited.append((bits, energy))
                temperature *= cool
            for state, e in visited:
                if e < best_e - 1e-15:
                    best_bits, best_e = state, e
                    improved = True
        rounds += 1
        stall = 0 if improved else stall + 1
    return best_bits, best_e


def random_table_objective(seed):
    rng = np.random.default_rng(seed)
    m_list = [int(m) for m in rng.integers(1, 4, size=4)]
    tables = [rng.uniform(-1.0, 1.0, size=1 << m) for m in m_list]
    couplings = []
    for pos in ((0, 1), (1, 2), (0, 2, 3)):
        shape = tuple(1 << m_list[p] for p in pos)
        couplings.append((pos, random_coupling(rng, shape)))
    return TableObjective(m_list, tables, couplings)


def singleton_reduced_problem(n, seed):
    """Ring of n variables, one community per variable: n one-qubit registers."""
    rng = np.random.default_rng(seed)
    h = PolyHamiltonian(n, {(i, (i + 1) % n) if i + 1 < n else (0, n - 1): float(rng.uniform(-1, 1))
                            for i in range(n)})
    return first_level(h, range(n))


def first_level(h, labels):
    """First-level reduced problem of a quadratic h under a partition, at eta 1."""
    d = decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels(labels))
    encodings = [
        encode_community(enumerate_low_exhaustive(h.restrict(m), delta_two_body(d, i), 1.0))
        for i, m in enumerate(d.members)
    ]
    return build_reduced(d, encodings)


# Slab sizes that put an objective of up to 16 variables on the dense-table
# path and on the replica path.
PATHS = {"table": SLAB_ENTRIES, "replica": 1}


def replay(starts, flips, accepted):
    """The states of a round's chains, rebuilt from their starts by flipping
    variable ``flips[s]`` wherever step s was accepted; one list per step."""
    rows = [list(starts)]
    for flip, accept in zip(flips.tolist(), accepted.tolist()):
        rows.append([k ^ (1 << j) if a else k for k, j, a in zip(rows[-1], flip, accept)])
    return rows


def assert_trajectory(objective, starts, flips, energies, accepted, keys):
    """The recorded keys are the replayed states, and the recorded energies
    are ``replica_energies`` of those keys, bit for bit."""
    assert accepted.any() and not accepted.all()
    assert keys.tolist() == replay(starts, flips, accepted)
    expected = objective.replica_energies(keys.ravel()).reshape(keys.shape)
    assert energies.view(np.int64).tolist() == expected.view(np.int64).tolist()


def array_objective(energies):
    """An objective whose energies are the given array over packed states."""
    return SimpleNamespace(
        n_vars=energies.size.bit_length() - 1, replica_terms=1,
        energies_of=lambda states: energies[states], replica_energies=lambda states: energies[states],
    )


def on_both_paths(monkeypatch, call):
    """``call()`` on each path, with (steps run, steps scheduled) for each
    annealing round it ran."""
    results, rounds, ran = {}, {}, []
    anneal = optimizer_module._anneal

    def recording(*args):
        out = anneal(*args)
        ran.append((out[2].shape[0] - 1, args[3].shape[0]))
        return out

    monkeypatch.setattr(optimizer_module, "_anneal", recording)
    for path, slab in PATHS.items():
        monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
        ran.clear()
        results[path] = call()
        rounds[path] = list(ran)
    return results, rounds


class TestAnnealKernel:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_reference_on_poly(self, seed, monkeypatch):
        objective = PolyObjective(random_quadratic(9, 16, seed + 200))
        budget = OptimizerBudget(seed=seed, max_sweeps=3)
        ref_bits, ref_energy = reference_ground(objective, budget)
        for path, slab in PATHS.items():
            monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
            assert (_dense_table(objective) is None) == (path == "replica")
            bits, energy = solve_ground_objective(objective, budget)
            assert bits == ref_bits
            assert energy == pytest.approx(ref_energy, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_reference_on_table(self, seed, monkeypatch):
        objective = random_table_objective(seed)
        budget = OptimizerBudget(seed=seed, max_sweeps=3)
        ref_bits, ref_energy = reference_ground(objective, budget)
        for path, slab in PATHS.items():
            monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
            assert (_dense_table(objective) is None) == (path == "replica")
            bits, energy = solve_ground_objective(objective, budget)
            assert bits == ref_bits
            assert energy == pytest.approx(ref_energy, abs=1e-12)

    @pytest.mark.parametrize("kind", ["poly", "pubo", "table"])
    @pytest.mark.parametrize("terms", [None, SLAB_ENTRIES])
    def test_dense_table_is_replica_energies_bit_for_bit(self, kind, terms):
        # terms = SLAB_ENTRIES forces blocks of one row, so the table is
        # built in many blocks; the replica path evaluates a default round's
        # 16 replicas per call
        objective = {
            "poly": lambda: PolyObjective(random_quadratic(12, 40, 3)),
            "pubo": lambda: PolyObjective(random_pubo(10, 60, 4)),
            "table": lambda: random_table_objective(5),
        }[kind]()
        if terms is not None:
            objective.replica_terms = terms
        table = _dense_table(objective)
        assert table.shape == (1 << objective.n_vars,)
        rng = np.random.default_rng(7)
        for _ in range(64):
            starts = rng.integers(0, 1 << objective.n_vars, size=16)
            energies = objective.replica_energies(starts)
            assert table[starts].view(np.int64).tolist() == energies.view(np.int64).tolist()

    @pytest.mark.parametrize("terms", [40, 200, 1000])
    def test_replica_energy_does_not_depend_on_the_batch(self, terms):
        # a state's energy must not depend on the row it sits in, or on how
        # many rows its batch has
        objective = PolyObjective(random_pubo(12, terms, terms))
        states = np.arange(1 << 12, dtype=np.int64)
        by_rows = {}
        for rows in (1, 2, 3, 16):
            batches = [states[i:i + rows] for i in range(0, states.size, rows)]
            energies = np.concatenate([objective.replica_energies(b) for b in batches])
            by_rows[rows] = energies.view(np.int64).tolist()
        assert by_rows[1] == by_rows[2] == by_rows[3] == by_rows[16]

    @pytest.mark.parametrize("kind", ["poly", "table"])
    def test_round_identical_on_both_paths(self, kind):
        objective = {
            "poly": lambda: PolyObjective(random_pubo(10, 40, 8)),
            "table": lambda: random_table_objective(6),
        }[kind]()
        n = objective.n_vars
        rng = np.random.default_rng(3)
        keys = np.sort(rng.choice(1 << n, size=(1 << n) // 2, replace=False)).astype(np.int64)
        values = rng.uniform(0.0, 2.0, size=keys.size)
        dense = np.zeros(1 << n)
        dense[keys] = values
        table = _dense_table(objective)
        starts, flips, draws = optimizer_module._draw_chains(rng, n, 16)
        accepts = {}
        for name, dense_penalties, sparse_penalties in (
            ("penalized", dense, (keys, values)), ("bare", None, None)
        ):
            on_table = optimizer_module._anneal(objective, table, starts, flips, draws, dense_penalties)
            on_replicas = optimizer_module._anneal(objective, None, starts, flips, draws, sparse_penalties)
            assert on_table[0].view(np.int64).tolist() == on_replicas[0].view(np.int64).tolist()
            np.testing.assert_array_equal(on_table[1], on_replicas[1])
            np.testing.assert_array_equal(on_table[2], on_replicas[2])
            accepts[name] = on_table[1]
        # the penalties changed some decisions
        assert (accepts["penalized"] != accepts["bare"]).any()

    @pytest.mark.parametrize("penalized", [False, True])
    @pytest.mark.parametrize("path", ["table", "replica"])
    @pytest.mark.parametrize("kind", ["poly", "table"])
    def test_recorded_keys_are_the_trajectory(self, kind, path, penalized):
        objective = {
            "poly": lambda: PolyObjective(random_pubo(10, 40, 8)),
            "table": lambda: random_table_objective(6),
        }[kind]()
        n = objective.n_vars
        rng = np.random.default_rng(5)
        table = _dense_table(objective) if path == "table" else None
        penalties = None
        if penalized:
            pooled = np.sort(rng.choice(1 << n, size=(1 << n) // 2, replace=False)).astype(np.int64)
            values = rng.uniform(0.0, 2.0, size=pooled.size)
            penalties = (pooled, values)
            if table is not None:
                penalties = np.zeros(1 << n)
                penalties[pooled] = values
        starts, flips, draws = optimizer_module._draw_chains(rng, n, 16)
        energies, accepted, keys = optimizer_module._anneal(objective, table, starts, flips, draws, penalties)
        assert keys.dtype == np.int64
        assert_trajectory(objective, starts, flips, energies, accepted, keys)

    def test_recorded_keys_are_the_trajectory_above_62_qubits(self):
        objective = singleton_reduced_problem(70, 3).full_objective()
        starts, flips, draws = optimizer_module._draw_chains(np.random.default_rng(5), 70, 4)
        energies, accepted, keys = optimizer_module._anneal(objective, None, starts, flips, draws)
        # Python-int keys, some of them past bit 62
        assert keys.dtype == object and max(keys.ravel()) >> 62
        assert_trajectory(objective, starts, flips, energies, accepted, keys)

    @pytest.mark.parametrize("kind", ["poly", "wide"])
    def test_ground_bits_are_the_replayed_best_state(self, kind, monkeypatch):
        objective = {
            "poly": lambda: PolyObjective(random_quadratic(11, 20, 4)),
            "wide": lambda: singleton_reduced_problem(70, 3).full_objective(),
        }[kind]()
        budget = OptimizerBudget(seed=3, max_sweeps=2 if kind == "wide" else 64)
        rounds = []
        anneal = optimizer_module._anneal

        def recording(objective, table, starts, flips, draws, penalties=None):
            out = anneal(objective, table, starts, flips, draws, penalties)
            rounds.append((starts, flips, out[0], out[1]))
            return out

        monkeypatch.setattr(optimizer_module, "_anneal", recording)
        for slab in PATHS.values() if kind == "poly" else [SLAB_ENTRIES]:
            monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
            rounds.clear()
            found = solve_ground_objective(objective, budget)
            # chains in order, steps in order: the last state that undercut
            # the best so far by more than 1e-15
            best = (0, math.inf)
            for starts, flips, energies, accepted in rounds:
                states = replay(starts, flips, accepted)
                for c in range(len(starts)):
                    for step, energy in enumerate(energies[:, c].tolist()):
                        if energy < best[1] - 1e-15:
                            best = (states[step][c], energy)
            assert found == best

    def test_sampling_and_annealing_read_four_members(self, monkeypatch):
        # an objective with only the members sampling and annealing read
        poly = PolyObjective(random_pubo(10, 30, 9))
        bare = SimpleNamespace(
            n_vars=poly.n_vars, replica_terms=poly.replica_terms,
            energies_of=poly.energies_of, replica_energies=poly.replica_energies,
        )
        budget = OptimizerBudget(seed=2)
        for slab in PATHS.values():
            monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
            expected = enumerate_low_sampled(poly, 2.0, 1.0, budget)
            assert expected.d > 1
            assert bits_of(enumerate_low_sampled(bare, 2.0, 1.0, budget)) == bits_of(expected)
            assert solve_ground_objective(bare, budget) == solve_ground_objective(poly, budget)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_spectra_identical_on_both_paths(self, seed, monkeypatch):
        objectives = [
            random_quadratic(11, 20, seed + 60),
            random_pubo(9, 30, seed + 70),
            random_table_objective(seed + 10),
        ]
        # default rounds; three short rounds over a wide window, whose
        # later rounds find states only under the earlier rounds' penalties;
        # and rounds of six replicas, a batch size the replica energies must
        # not depend on
        budgets = [
            (2.0, OptimizerBudget(seed=seed)),
            (6.0, OptimizerBudget(seed=seed, max_sweeps=3, samples_per_round=8)),
            (2.0, OptimizerBudget(seed=seed, samples_per_round=6)),
        ]
        for objective in objectives:
            for delta, budget in budgets:
                spectra = {}
                for path, slab in PATHS.items():
                    monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
                    spectra[path] = enumerate_low_sampled(objective, delta, 1.0, budget)
                assert spectra["table"].d > 1
                assert bits_of(spectra["table"]) == bits_of(spectra["replica"])

    def test_sampling_stops_once_the_table_proves_the_window_complete(self, monkeypatch):
        # round one finds the whole window, so no stall round runs on the table
        h = random_quadratic(10, 18, 0)
        exhaustive = enumerate_low_exhaustive(h, 2.0, 1.0)
        budget = OptimizerBudget(seed=0)
        spectra, rounds = on_both_paths(monkeypatch, lambda: enumerate_low_sampled(h, 2.0, 1.0, budget))
        assert len(rounds["table"]) < 1 + budget.stall_rounds == len(rounds["replica"])
        assert bits_of(spectra["table"]) == bits_of(spectra["replica"])
        assert set(spectra["table"].packed.tolist()) == set(exhaustive.packed.tolist())

    def test_cut_round_is_a_prefix_of_the_full_round(self):
        objective = PolyObjective(random_pubo(10, 40, 8))
        n = objective.n_vars
        table = _dense_table(objective)
        rng = np.random.default_rng(5)
        penalties = np.zeros(table.size)
        penalties[rng.choice(table.size, size=200, replace=False)] = rng.uniform(0.0, 2.0, size=200)
        starts, flips, draws = optimizer_module._draw_chains(rng, n, 16)
        full = optimizer_module._anneal(objective, table, starts, flips, draws, penalties)
        # a state the round never visits keeps the full schedule
        unvisited = np.setdiff1d(np.arange(table.size), full[2])
        assert unvisited.size
        kept = optimizer_module._anneal(objective, table, starts, flips, draws, penalties, unvisited[:1])
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(kept, full))
        # the starts count as visited: the first check, at step n, ends the round
        cut = optimizer_module._anneal(objective, table, starts, flips, draws, penalties, np.unique(full[2][0]))
        assert cut[2].shape[0] == n + 1
        # the states of step 3n + 2 are all visited by the check at step 4n
        pending = np.unique(full[2][3 * n + 2])
        energies, accepted, keys = optimizer_module._anneal(
            objective, table, starts, flips, draws, penalties, pending
        )
        steps = keys.shape[0] - 1
        assert steps % n == 0 and steps <= 4 * n
        assert np.isin(pending, keys).all()
        # the round ends at the first check that finds them all
        assert not np.isin(pending, keys[:steps - n + 1]).all()
        assert keys.tolist() == full[2][:steps + 1].tolist()
        assert energies.view(np.int64).tolist() == full[0][:steps + 1].view(np.int64).tolist()
        assert accepted.tolist() == full[1][:steps].tolist()
        assert_trajectory(objective, starts, flips[:steps], energies, accepted, keys)

    @pytest.mark.parametrize("seed", range(4))
    def test_run_identical_with_rounds_cut_on_the_table(self, seed, monkeypatch):
        # every window of a small cubic problem is sampled; on the table its
        # last rounds end early, on the replica path they run in full
        h = random_pubo(14, 30, seed, max_arity=3)
        config = RunConfig(eta=0.5, seed=seed, optimizer_o1="annealing")
        results, rounds = on_both_paths(monkeypatch, lambda: run(h, config).to_json_dict())
        assert results["table"] == results["replica"]
        for path, lengths in rounds.items():
            assert any(ran < scheduled for ran, scheduled in lengths) == (path == "table")

    @pytest.mark.parametrize("case", ["veto", "gap", "control"])
    def test_whole_rounds_where_the_tail_decides(self, case, monkeypatch):
        rng = np.random.default_rng(1)
        energies = -1000.0 + rng.uniform(0.0, 2.0, size=1 << 6)
        delta = 0.5
        edge = energies.min() + delta
        # The harvest's tolerance is 1e-9 * max(1, width), the final
        # filter's 1e-9 * max(1, |E0| + width), about 1e-6 here. A state in
        # between is kept only if a chain harvested it while its floor was
        # above the minimum; on this instance and seed, cut rounds would
        # keep it where the full schedule does not.
        energies[np.argmax(energies > edge + 1e-3)] = edge + (5e-7 if case == "gap" else 1e-3)
        objective = array_objective(energies)
        veto = (lambda round_index, bits: False) if case == "veto" else None
        budget = OptimizerBudget(seed=0)
        spectra, rounds = on_both_paths(
            monkeypatch, lambda: enumerate_low_sampled(objective, delta, 1.0, budget, veto=veto)
        )
        assert bits_of(spectra["table"]) == bits_of(spectra["replica"])
        for path, lengths in rounds.items():
            whole = all(ran == scheduled == 50 * 6 for ran, scheduled in lengths)
            assert whole == (path == "replica" or case != "control")

    def test_ground_search_stops_at_the_table_minimum(self, monkeypatch):
        objective = PolyObjective(random_quadratic(10, 18, 0))
        lowest = _dense_table(objective).min()
        budget = OptimizerBudget(seed=0)
        found, rounds = on_both_paths(monkeypatch, lambda: solve_ground_objective(objective, budget))
        assert len(rounds["table"]) < 1 + budget.stall_rounds == len(rounds["replica"])
        assert found["table"] == found["replica"]
        assert found["table"][1] == lowest

    def test_dense_limit_is_sixteen_variables(self, monkeypatch):
        # the path a round ran is the table it was given
        on_table = []
        anneal = optimizer_module._anneal
        monkeypatch.setattr(
            optimizer_module, "_anneal", lambda *args: on_table.append(args[1] is not None) or anneal(*args)
        )
        budget = OptimizerBudget(seed=1, max_sweeps=1)
        for n in (16, 17):
            objective = PolyObjective(random_quadratic(n, 2 * n, n))
            on_table.clear()
            found = solve_ground_objective(objective, budget)
            assert (_dense_table(objective) is not None) == (n == 16)
            assert on_table == [n == 16]
            with monkeypatch.context() as patch:
                patch.setattr(optimizer_module, "SLAB_ENTRIES", 1)
                assert solve_ground_objective(objective, budget) == found

    def test_sampled_window_on_reduced_objective_matches_exhaustive(self, monkeypatch):
        h = random_quadratic(12, 20, 5)
        rp = first_level(h, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
        sizes = sorted(math.prod(c.shape) for c in rp.couplings.values())
        assert sizes[0] < sizes[-1]
        # the largest coupling stays lazy and is evaluated through values()
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", sizes[-1] - 1)
        objective = rp.full_objective()
        lazy = objective._gather_plan()[3]
        assert 1 <= len(lazy) < len(rp.couplings)
        for delta in (0.5, 1.5, 3.0):
            exhaustive = enumerate_low_exhaustive(objective, delta, 1.0)
            sampled = enumerate_low_sampled(objective, delta, 1.0, OptimizerBudget(seed=1))
            assert set(sampled.packed.tolist()) == set(exhaustive.packed.tolist())
            assert sampled.e0 == pytest.approx(exhaustive.e0, abs=1e-12)

    def test_recombined_anneal_above_62_qubits(self):
        rp = singleton_reduced_problem(70, 3)
        objective = rp.full_objective()
        assert objective.n_vars == 70
        bits, energy = solve_ground_objective(objective, OptimizerBudget(seed=0, max_sweeps=2))
        assert 0 <= bits < 1 << 70
        assert rp.energy_of_indices(rp.indices_from_bits(bits)) == pytest.approx(energy, abs=1e-9)

    def test_sampled_window_above_62_variables_refused_before_chains(self, monkeypatch):
        objective = singleton_reduced_problem(64, 4).full_objective()

        def fail(*args, **kwargs):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(optimizer_module, "_anneal", fail)
        monkeypatch.setattr(optimizer_module, "_draw_chains", fail)
        with pytest.raises(ResourceError):
            enumerate_low_sampled(objective, 1.0, 1.0, OptimizerBudget())

    def test_penalty_probe(self):
        states = np.array([3, 10, 7, 40, 99], dtype=np.int64)
        empty = _penalty_of(np.empty(0, dtype=np.int64), np.empty(0), states)
        assert empty.tolist() == [0.0] * 5
        keys = np.array([3, 7, 40], dtype=np.int64)
        values = np.array([1.5, 2.5, 3.5])
        # first key, missing between keys, middle key, last key, missing past the end
        assert _penalty_of(keys, values, states).tolist() == [1.5, 0.0, 2.5, 3.5, 0.0]
        assert _penalty_of(keys, values, np.array([0, 2], dtype=np.int64)).tolist() == [0.0, 0.0]
