"""Exhaustive and sampled enumerator tests."""

import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcreduce.hamiltonian as hamiltonian_module
import dcreduce.optimizer as optimizer_module
import dcreduce.reduction as reduction_module
from dcreduce.clustering import Partition
from dcreduce.driver import RunConfig, _solve_objective, brute_force_reference, run
from dcreduce.errors import DomainError, InternalError, ResourceError
from dcreduce.hamiltonian import MAX_PACKED_VARS, SLAB_ENTRIES, PolyHamiltonian, int_to_bits
from dcreduce.optimizer import (
    SCAN_CEILING,
    Window,
    _dense_table,
    _freeze,
    _penalty_of,
    enumerate_low_exhaustive,
    enumerate_low_sampled,
    scan_minimum,
    solve_ground_objective,
    window,
)
from dcreduce.reduction import (
    ReducedProblem, TableObjective, build_reduced, decompose, delta_two_body, encode_community,
)
from helpers import (
    energy_of_indices, harvest_loop, indices_from_bits, random_coupling, random_pubo, random_quadratic, sampled_rounds,
    spin_energies,
)


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

    @pytest.mark.parametrize("slab", [4, "e0-in-last-chunk", "e0-before-last-chunk", 1 << 16])
    def test_one_pass_matches_scan_then_window(self, monkeypatch, slab):
        # chunks of 4: the running minimum falls from chunk to chunk, so
        # early chunks keep states that the final window drops; the most
        # chunks whose last one holds E0; the fewest whose last one misses
        # it; and one chunk
        reduced = first_level(random_quadratic(10, 18, 41), [0] * 5 + [1] * 5)
        checked = 0
        for objective in (random_quadratic(10, 18, 40), reduced.full_objective()):
            size = slab
            if isinstance(slab, str):
                [(_, table)] = objective.scan_chunks()
                ground = table == table.min()
                # the last chunk of a slab of s states is the top s states
                fits = [s for s in (1 << k for k in range(2, objective.n_vars))
                        if ground[-s:].any() == (slab == "e0-in-last-chunk")]
                if not fits:
                    continue
                size = fits[0] if slab == "e0-in-last-chunk" else fits[-1]
            with monkeypatch.context() as patch:
                patch.setattr(hamiltonian_module, "SLAB_ENTRIES", size)
                patch.setattr(reduction_module, "SLAB_ENTRIES", size)
                for delta, eta in ((0.0, 1.0), (1.3, 0.5), (2.5, 1.0)):
                    got = enumerate_low_exhaustive(objective, delta, eta)
                    expected = scan_then_window(objective, delta, eta)
                    assert bits_of(got) == bits_of(expected)
                    assert window_bits(got) == window_bits(expected)
            checked += 1
        assert checked


def window_bits(spectrum):
    """A spectrum's E0 and window bounds as raw bits."""
    w = spectrum.window
    return np.array([spectrum.e0, w.lo, w.hi, w.tol]).view(np.int64).tolist()


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
        # the exhaustive backend scans whatever it is given, up to the ceiling
        def solve(objective):
            return _solve_objective(objective, RunConfig(), "exhaustive", 0)

        assert solve(_FixedScan(SCAN_CEILING, [(0, np.array([0.5, -0.5]))])) == (1, -0.5)
        with pytest.raises(ResourceError, match="^recombined solve: exhaustive scan over 31"):
            solve(_FixedScan(SCAN_CEILING + 1))


def freeze(h, found, win):
    states = np.array(list(found), dtype=np.int64)
    return _freeze(h, states, np.array(list(found.values()), dtype=float), win, True)


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

    def test_energy_off_by_the_relative_tolerance(self):
        # state 1 has energy 0.0, where the tolerance is 1e-9 itself: an
        # energy off by exactly that is kept, one ulp more is rejected
        h = PolyHamiltonian(2, {(0,): 1.0, (1,): 1.0})
        win = Window(-2.0, 2.0, 1e-9)
        assert freeze(h, {1: 1e-9}, win).energies.tolist() == [1e-9]
        above = float(np.nextafter(1e-9, 1.0))
        with pytest.raises(InternalError, match=re.escape(f"stored energy {above!r} disagrees with evaluation 0.0")):
            freeze(h, {1: above}, win)
        # at energy 1000 the tolerance is 1e-6
        h = PolyHamiltonian(2, {(0, 1): 1000.0})
        win = Window(-1000.0, 2000.0, 1e-9)
        assert freeze(h, {0: 1000.0000005}, win).energies.tolist() == [1000.0000005]
        with pytest.raises(InternalError, match=re.escape(
            "stored energy 1000.000002 disagrees with evaluation 1000.0"
        )):
            freeze(h, {0: 1000.000002}, win)

    def test_nan_energy_rejected(self):
        # a NaN meets no tolerance test and lies in no window
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        with pytest.raises(InternalError, match=re.escape(
            "state energy nan lies outside the window Window(lo=-1.0, hi=1.0, tol=1e-09)"
        )):
            freeze(h, {0: 1.0, 1: math.nan}, Window(-1.0, 1.0, 1e-9))

    def test_energy_one_ulp_outside_the_widened_window(self):
        # the window widened by tol is [-0.75, 0.75] on both windows; state 0
        # sits on its edge or one ulp past it
        for edge in (0.75, -0.75):
            h = PolyHamiltonian(1, {(0,): edge})
            win = Window(-0.5, 0.5, 0.25)
            assert freeze(h, {0: edge, 1: -edge}, win).d == 2
            past = float(np.nextafter(edge, 2.0 * edge))
            h = PolyHamiltonian(1, {(0,): past})
            with pytest.raises(InternalError, match=re.escape(
                f"state energy {past!r} lies outside the window {win}"
            )):
                freeze(h, {0: past, 1: -past}, win)


class TestSampled:
    def test_agrees_with_exhaustive(self):
        hits = 0
        for seed in range(20):
            h = random_quadratic(10, 20, seed)
            exhaustive = enumerate_low_exhaustive(h, 2.0, 1.0)
            sampled = enumerate_low_sampled(h, 2.0, 1.0, seed)
            assert not sampled.complete
            hits += set(sampled.packed.tolist()) == set(exhaustive.packed.tolist())
        assert hits >= 18

    def test_degenerate_window_single_ground_state(self):
        h = PolyHamiltonian(3, {(0, 1): 1.0, (1, 2): 1.0, (0,): -0.6})
        energies = spin_energies(h)
        unique_min = np.sum(np.isclose(energies, energies.min())) == 1
        assert unique_min
        spectrum = enumerate_low_sampled(h, 1.0, 0.0, 4)
        assert spectrum.d == 1
        assert spectrum.e0 == pytest.approx(float(energies.min()), abs=1e-12)

    def test_no_duplicates_and_in_window(self):
        for seed in range(10):
            h = random_quadratic(11, 20, seed + 50)
            spectrum = enumerate_low_sampled(h, 1.5, 1.0, seed)
            states = spectrum.packed.tolist()
            assert len(set(states)) == len(states)
            for energy in spectrum.energies.tolist():
                assert spectrum.window.contains(energy)

    def test_penalized_energy_clears_window(self):
        # p = width + c1 |E| + c2 implies E + p > E0 + width for every found state
        h = random_quadratic(10, 18, 77)
        spectrum = enumerate_low_sampled(h, 2.0, 1.0, 9)
        width = spectrum.window.hi - spectrum.window.lo
        for energy in spectrum.energies.tolist():
            penalty = width + optimizer_module._C1 * abs(energy) + optimizer_module._C2
            assert energy + penalty > spectrum.e0 + width

    def test_explicit_window_signature(self, monkeypatch):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        spectrum = enumerate_low_sampled(h, 2.0, 1.0, 0)
        assert spectrum.window == window(-1.0, 2.0, 1.0)
        assert set(spectrum.packed.tolist()) == {0, 1, 2, 3}

        def fail(*args, **kwargs):
            raise AssertionError("a chain ran")

        # a bad delta or eta gets one message from window() and both
        # enumerators, before any chain; a NaN or infinite delta is bad too
        monkeypatch.setattr(optimizer_module, "_draw_chains", fail)
        for delta, eta in ((-1.0, 1.0), (1.0, 1.5), (math.nan, 1.0), (math.inf, 1.0)):
            with pytest.raises(DomainError) as bare:
                window(0.0, delta, eta)
            with pytest.raises(DomainError) as exhaustive:
                enumerate_low_exhaustive(h, delta, eta)
            with pytest.raises(DomainError) as sampled:
                enumerate_low_sampled(h, delta, eta, 0)
            assert str(sampled.value) == str(exhaustive.value) == str(bare.value)

    def test_determinism(self):
        h = random_quadratic(10, 18, 8)
        a = enumerate_low_sampled(h, 1.0, 1.0, 3)
        b = enumerate_low_sampled(h, 1.0, 1.0, 3)
        assert bits_of(a) == bits_of(b)

    @pytest.mark.parametrize("kind", ["pubo", "table"])
    def test_dense_table_windows_do_not_depend_on_the_seed(self, kind):
        # on a dense table sampling stops once every window state is pooled,
        # so the spectrum is the exhaustive one whatever the seeded stream
        objective = {"pubo": lambda: random_pubo(10, 40, 8), "table": lambda: random_table_objective(6)}[kind]()
        for delta, eta in ((2.0, 1.0), (12.0, 0.5)):
            exhaustive = enumerate_low_exhaustive(objective, delta, eta)
            assert exhaustive.d > 1
            for seed in range(10):
                sampled = enumerate_low_sampled(objective, delta, eta, seed)
                assert sampled.packed.tolist() == exhaustive.packed.tolist()
                assert sampled.energies.view(np.int64).tolist() == exhaustive.energies.view(np.int64).tolist()


def synthetic_round(seed, n, chains, steps, width, pooled_share, dense):
    """A round as ``_anneal`` returns it, over 2^n states, and the
    penalties of the states pooled in earlier rounds.

    The states' energies are three candidate floors, energies within 1.5e-9
    of each floor's window edge (1e-9 is the tolerance of a window whose
    |floor| + delta is below 1), and four uniform in [-0.4, 0.4]. A chain's
    state changes only at its accepted steps, though an accepted step may
    land on the state it left.
    """
    rng = np.random.default_rng(seed)
    floors = rng.choice([-0.3, -0.2, -0.1, 0.05], size=3, replace=False)
    edges = [f + width + t * 1e-9 for f in floors for t in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)]
    levels = np.concatenate((floors, edges, rng.uniform(-0.4, 0.4, size=4)))
    table = rng.choice(levels, size=1 << n)
    accepted = rng.random((steps, chains)) < 0.5
    keys = np.empty((steps + 1, chains), dtype=np.int64)
    keys[0] = rng.integers(0, 1 << n, size=chains)
    for step in range(steps):
        keys[step + 1] = np.where(accepted[step], rng.integers(0, 1 << n, size=chains), keys[step])
    pooled = np.flatnonzero(rng.random(1 << n) < pooled_share)
    values = rng.uniform(0.01, 1.0, size=pooled.size)
    if dense:
        penalties = np.zeros(1 << n)
        penalties[pooled] = values
    else:
        penalties = (pooled.astype(np.int64), values)
    return table[keys], accepted, keys, penalties


def harvest_features(energies, accepted, keys, floor, delta, eta, penalties):
    """Which of the cases the harvest tests must cover a round shows."""
    visited = np.ones(keys.shape, dtype=bool)
    visited[1:] = accepted
    per_chain = [keys[visited[:, c], c].tolist() for c in range(keys.shape[1])]
    chain_min = [energies[visited[:, c], c].min() for c in range(keys.shape[1])]
    floors = np.minimum.accumulate(np.minimum(chain_min, floor))
    pooled = set(penalties[0].tolist()) if isinstance(penalties, tuple) else set(np.flatnonzero(penalties).tolist())
    near_edge = any(
        abs(e - (floors[c] + eta * delta)) <= 1e-9
        for c in range(keys.shape[1]) for e in energies[visited[:, c], c].tolist()
    )
    return {
        "repeat within a chain": any(len(set(states)) < len(states) for states in per_chain),
        "repeat across chains": len(set().union(*map(set, per_chain))) < sum(len(set(s)) for s in per_chain),
        "floor falls between chains": bool((np.diff(floors) < 0).any()),
        "earlier state visited": any(k in pooled for states in per_chain for k in states),
        "energy within a tolerance of the edge": near_edge,
    }


class TestHarvest:
    @given(
        seed=st.integers(0, 10**6), n=st.integers(2, 5), chains=st.integers(1, 6), steps=st.integers(0, 24),
        delta=st.sampled_from([0.0, 0.05, 0.2, 0.5]), eta=st.sampled_from([0.0, 0.5, 1.0]),
        floor=st.sampled_from([math.inf, 0.4, -0.05, -0.5]), pooled_share=st.sampled_from([0.0, 0.3]),
        dense=st.booleans(), c2=st.sampled_from([0.01, -0.05, -0.3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop(self, seed, n, chains, steps, delta, eta, floor, pooled_share, dense, c2):
        # a negative _C2 makes some penalties miss the window edge, which
        # both must report
        energies, accepted, keys, penalties = synthetic_round(seed, n, chains, steps, eta * delta, pooled_share, dense)
        args = (energies, accepted, keys, floor, delta, eta, penalties)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer_module, "_C2", c2)
            try:
                expected = harvest_loop(*args)
            except InternalError:
                with pytest.raises(InternalError, match="penalty does not clear"):
                    optimizer_module._harvest(*args)
                return
            got_floor, got_keys, got_energies, got_values = optimizer_module._harvest(*args)
        assert got_keys.dtype == np.int64
        assert (got_floor, got_keys.tolist(), got_energies.tolist(), got_values.tolist()) == expected

    def test_penalty_clears_its_own_chains_edge(self, monkeypatch):
        # chain 0 pools state 1 at floor 0.0; chain 1 visits state 2, pooled
        # earlier, at -0.3. With _C2 = -0.005 state 1's penalty misses
        # chain 0's edge, though it clears the edge of the floor after the round.
        energies = np.array([[0.0, -0.3]])
        keys = np.array([[1, 2]], dtype=np.int64)
        penalties = (np.array([2], dtype=np.int64), np.array([0.5]))
        args = (energies, np.zeros((0, 2), dtype=bool), keys, math.inf, 0.2, 0.5, penalties)
        assert optimizer_module._harvest(*args)[1].tolist() == [1]
        monkeypatch.setattr(optimizer_module, "_C2", -0.005)
        for harvest in (harvest_loop, optimizer_module._harvest):
            with pytest.raises(InternalError, match="penalty does not clear"):
                harvest(*args)

    def test_rounds_cover_every_case(self):
        # the cases the property test must meet, each in many of its rounds
        counts = Counter()
        for seed in range(60):
            counts.update(case for case, shown in harvest_features(*self.round(seed)).items() if shown)
        assert len(counts) == 5 and min(counts.values()) >= 10, counts

    @staticmethod
    def round(seed):
        dense = seed % 2 == 0
        energies, accepted, keys, penalties = synthetic_round(seed, 3, 4, 12, 0.1, 0.3, dense)
        return energies, accepted, keys, 0.4, 0.2, 0.5, penalties


class TestSolveGround:
    def test_chain_of_two_couplings(self):
        h = PolyHamiltonian(3, {(0, 1): 1.0, (1, 2): 1.0})
        bits, energy = solve_ground_objective(h, 0)
        assert energy == pytest.approx(-2.0)
        assert h.evaluate(int_to_bits(bits, 3)) == pytest.approx(-2.0)
        assert brute_force_reference(h) == pytest.approx(-2.0)

    def test_constant_only(self):
        h = PolyHamiltonian(2, {(): 3.5})
        _, energy = solve_ground_objective(h, 0)
        assert energy == pytest.approx(3.5)
        assert brute_force_reference(h) == pytest.approx(3.5)

    def test_frustrated_triangle(self):
        h = PolyHamiltonian(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        bits, energy = solve_ground_objective(h, 0)
        assert energy == pytest.approx(-1.0)
        assert h.evaluate(int_to_bits(bits, 3)) == pytest.approx(-1.0)
        assert brute_force_reference(h) == pytest.approx(-1.0)
        degenerate = np.isclose(spin_energies(h), -1.0).sum()
        assert degenerate == 6

    def test_annealing_path_matches_scan(self):
        h = random_quadratic(12, 24, 13)
        exact = brute_force_reference(h)
        _, sampled = solve_ground_objective(h, 2)
        assert sampled == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("exponent", [-600, 0, 600])
    def test_undercut_margin_scales_with_the_energies(self, exponent):
        # an absolute margin of 1e-15 dwarfs energies near 2^-600, so no
        # state would undercut the first one visited
        h = random_quadratic(6, 12, 1)
        scaled = PolyHamiltonian(h.n_vars, {s: math.ldexp(c, exponent) for s, c in h.terms.items()})
        _, energy = solve_ground_objective(scaled, 0)
        assert energy == scan_minimum(scaled)[1] == math.ldexp(scan_minimum(h)[1], exponent)


# -- replica-batched annealing kernel ------------------------------------------


def reference_ground(objective, seed):
    """Scalar annealer with the kernel's draw order: every chain's start,
    then the (steps, chains) flips, then the (steps, chains) accept draws,
    chain c reading column c; energies evaluated state by state. It reads
    the round constants as the optimizer module holds them."""
    rng = np.random.default_rng(seed)
    n = objective.n_vars
    steps = 50 * n

    def energy_of(state):
        return float(objective.energies(np.array([state], dtype=np.int64))[0])

    cool = (0.01 / 2.0) ** (1.0 / (steps - 1))
    best_bits, best_e = 0, math.inf
    rounds = stall = 0
    while rounds < optimizer_module._MAX_ROUNDS and stall < optimizer_module._STALL_ROUNDS:
        improved = False
        chains = optimizer_module._CHAINS
        starts = rng.integers(0, 1 << n, size=chains)
        all_flips = rng.integers(0, n, size=(steps, chains))
        all_draws = rng.random((steps, chains))
        for c in range(chains):
            bits = int(starts[c])
            flips, draws = all_flips[:, c], all_draws[:, c]
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
                if best_e == math.inf or e < best_e - 1e-15 * abs(best_e):
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
        encode_community(enumerate_low_exhaustive(h.split([m])[0], delta_two_body(d, i), 1.0))
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
    are ``energies`` of those keys, bit for bit."""
    assert accepted.any() and not accepted.all()
    assert keys.tolist() == replay(starts, flips, accepted)
    expected = objective.energies(keys.ravel()).reshape(keys.shape)
    assert energies.view(np.int64).tolist() == expected.view(np.int64).tolist()


def array_objective(energies):
    """An objective whose energies are the given array over packed states."""
    return SimpleNamespace(
        n_vars=energies.size.bit_length() - 1,
        scan_chunks=lambda: iter([(0, energies)]), energies=lambda states: energies[states],
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
    @pytest.mark.parametrize("n", [1, 9, MAX_PACKED_VARS])
    @pytest.mark.parametrize("seed", range(2))
    def test_draw_chains_is_three_step_major_calls(self, n, seed):
        starts, flips, draws = optimizer_module._draw_chains(np.random.default_rng(seed), n, 16)
        rng = np.random.default_rng(seed)
        steps = optimizer_module._STEPS_PER_VAR * n
        assert starts == rng.integers(0, 1 << n, size=16).tolist()
        assert all(type(start) is int for start in starts)
        assert flips.shape == draws.shape == (steps, 16)
        assert flips.dtype == np.int64 and draws.dtype == np.float64
        assert flips.flags.c_contiguous and draws.flags.c_contiguous
        assert flips.tolist() == rng.integers(0, n, size=(steps, 16)).tolist()
        assert draws.tobytes() == rng.random((steps, 16)).tobytes()

    def test_draw_chains_above_62_variables(self):
        n = 70
        starts, flips, draws = optimizer_module._draw_chains(np.random.default_rng(3), n, 16)
        rng = np.random.default_rng(3)
        steps = optimizer_module._STEPS_PER_VAR * n
        # one (chains, n) bit draw, chain c's start on row c
        rows = rng.integers(0, 2, size=(16, n)).tolist()
        assert starts == [sum(bit << j for j, bit in enumerate(row)) for row in rows]
        assert all(0 <= start < 1 << n for start in starts) and max(starts) >> MAX_PACKED_VARS
        assert flips.tolist() == rng.integers(0, n, size=(steps, 16)).tolist()
        assert draws.tobytes() == rng.random((steps, 16)).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_reference_on_poly(self, seed, monkeypatch):
        objective = random_quadratic(9, 16, seed + 200)
        monkeypatch.setattr(optimizer_module, "_MAX_ROUNDS", 3)
        ref_bits, ref_energy = reference_ground(objective, seed)
        for path, slab in PATHS.items():
            monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
            assert (_dense_table(objective) is None) == (path == "replica")
            bits, energy = solve_ground_objective(objective, seed)
            assert bits == ref_bits
            assert energy == pytest.approx(ref_energy, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_reference_on_table(self, seed, monkeypatch):
        objective = random_table_objective(seed)
        monkeypatch.setattr(optimizer_module, "_MAX_ROUNDS", 3)
        ref_bits, ref_energy = reference_ground(objective, seed)
        for path, slab in PATHS.items():
            monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
            assert (_dense_table(objective) is None) == (path == "replica")
            bits, energy = solve_ground_objective(objective, seed)
            assert bits == ref_bits
            assert energy == pytest.approx(ref_energy, abs=1e-12)

    @pytest.mark.parametrize("kind", ["poly", "pubo", "table"])
    @pytest.mark.parametrize("terms", [None, SLAB_ENTRIES])
    def test_dense_table_is_replica_energies_bit_for_bit(self, kind, terms, monkeypatch):
        # the replica path evaluates a default round's 16 replicas per
        # `energies` call; a block holds about SLAB_ENTRIES / terms states,
        # so terms = SLAB_ENTRIES makes every state a block of its own
        objective = {
            "poly": lambda: random_quadratic(12, 40, 3),
            "pubo": lambda: random_pubo(10, 60, 4),
            "table": lambda: random_table_objective(5),
        }[kind]()
        table = _dense_table(objective)
        assert table.shape == (1 << objective.n_vars,)
        if terms is not None:
            monkeypatch.setattr(hamiltonian_module, "SLAB_ENTRIES", SLAB_ENTRIES // terms)
            monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", SLAB_ENTRIES // terms)
        rng = np.random.default_rng(7)
        for _ in range(64):
            starts = rng.integers(0, 1 << objective.n_vars, size=16)
            energies = objective.energies(starts)
            assert table[starts].view(np.int64).tolist() == energies.view(np.int64).tolist()

    @pytest.mark.parametrize("terms", [40, 200, 1000])
    def test_replica_energy_does_not_depend_on_the_batch(self, terms):
        # a state's energy must not depend on the row it sits in, or on how
        # many rows its batch has
        objective = random_pubo(12, terms, terms)
        states = np.arange(1 << 12, dtype=np.int64)
        by_rows = {}
        for rows in (1, 2, 3, 16):
            batches = [states[i:i + rows] for i in range(0, states.size, rows)]
            energies = np.concatenate([objective.energies(b) for b in batches])
            by_rows[rows] = energies.view(np.int64).tolist()
        assert by_rows[1] == by_rows[2] == by_rows[3] == by_rows[16]

    @pytest.mark.parametrize("kind", ["poly", "pubo", "table"])
    def test_dense_table_is_the_scan_and_energies_bit_for_bit(self, kind, monkeypatch):
        # a state's energy does not depend on the path that reads it, on
        # the batch it sits in, or on the block of its evaluation
        objective = {
            "poly": lambda: random_quadratic(12, 40, 3),
            "pubo": lambda: random_pubo(10, 60, 4),
            # 24 tables, more than numpy sums in order before going pairwise
            "table": lambda: singleton_reduced_problem(12, 5).full_objective(),
        }[kind]()
        states = np.arange(1 << objective.n_vars, dtype=np.int64)
        table = _dense_table(objective)
        expected = table.view(np.int64).tolist()
        scan = np.concatenate([energies for _, energies in objective.scan_chunks()])
        assert scan.view(np.int64).tolist() == expected
        if kind != "table":
            # the reference loop adds the same terms in the same order
            loop = np.array([objective.evaluate(int_to_bits(s, objective.n_vars)) for s in states.tolist()])
            assert loop.view(np.int64).tolist() == expected
        for rows in (1, 2, 3, 16):
            batches = [objective.energies(states[i:i + rows]) for i in range(0, states.size, rows)]
            assert np.concatenate(batches).view(np.int64).tolist() == expected
        # blocks of 2^n - 1 states leave the last state a block of its own
        if kind == "table":
            terms = len(objective.energy_tables) + len(objective.couplings)
            monkeypatch.setattr(reduction_module, "SLAB_ENTRIES", terms * (states.size - 1))
        else:
            monkeypatch.setattr(hamiltonian_module, "SLAB_ENTRIES", len(objective.terms) * (states.size - 1))
        assert objective.energies(states).view(np.int64).tolist() == expected

    @pytest.mark.parametrize("kind", ["poly", "table"])
    def test_round_identical_on_both_paths(self, kind):
        objective = {
            "poly": lambda: random_pubo(10, 40, 8),
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

    @pytest.mark.parametrize("kind", ["poly", "table"])
    def test_no_penalties_are_zero_penalties(self, kind):
        # a round without penalties is the round under an all-zero dense
        # table, or an empty (keys, values) pair, bit for bit
        objective = {
            "poly": lambda: random_pubo(10, 40, 8),
            "table": lambda: random_table_objective(6),
        }[kind]()
        n = objective.n_vars
        table = _dense_table(objective)
        starts, flips, draws = optimizer_module._draw_chains(np.random.default_rng(4), n, 16)
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        rounds = [
            optimizer_module._anneal(objective, table, starts, flips, draws, penalties)
            for penalties in (None, np.zeros(table.size))
        ] + [
            optimizer_module._anneal(objective, None, starts, flips, draws, penalties)
            for penalties in (None, empty)
        ]
        for energies, accepted, keys in rounds[1:]:
            assert energies.view(np.int64).tolist() == rounds[0][0].view(np.int64).tolist()
            assert accepted.tolist() == rounds[0][1].tolist()
            assert keys.tolist() == rounds[0][2].tolist()

    @pytest.mark.parametrize("path", PATHS)
    def test_rounds_run_without_penalties_while_nothing_is_pooled(self, path, monkeypatch):
        # a wide window over several rounds, whose first round pools states
        objective = random_pubo(9, 30, 71)
        monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", PATHS[path])
        events = []
        anneal, harvest = optimizer_module._anneal, optimizer_module._harvest

        def recording_anneal(*args):
            events.append(("anneal", args[5] is None))
            return anneal(*args)

        def recording_harvest(*args):
            out = harvest(*args)
            events.append(("harvest", out[1].size > 0))
            return out

        monkeypatch.setattr(optimizer_module, "_anneal", recording_anneal)
        monkeypatch.setattr(optimizer_module, "_harvest", recording_harvest)
        enumerate_low_sampled(objective, 6.0, 1.0, 0)
        bare = [flag for kind, flag in events if kind == "anneal"]
        pooled = [flag for kind, flag in events if kind == "harvest"]
        # on the table the last round visits every target and is not harvested
        assert len(bare) - (path == "table") == len(pooled) > 1
        # a round runs without penalties exactly when no earlier round pooled a state
        assert bare == [not any(pooled[:r]) for r in range(len(bare))]
        assert bare[0] and not all(bare)

    @pytest.mark.parametrize("penalized", [False, True])
    @pytest.mark.parametrize("path", ["table", "replica"])
    @pytest.mark.parametrize("kind", ["poly", "table"])
    def test_recorded_keys_are_the_trajectory(self, kind, path, penalized):
        objective = {
            "poly": lambda: random_pubo(10, 40, 8),
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
            "poly": lambda: random_quadratic(11, 20, 4),
            "wide": lambda: singleton_reduced_problem(70, 3).full_objective(),
        }[kind]()
        if kind == "wide":
            monkeypatch.setattr(optimizer_module, "_MAX_ROUNDS", 2)
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
            found = solve_ground_objective(objective, 3)
            # chains in order, steps in order: the last state that undercut
            # the best so far by more than 1e-15 times its magnitude
            best = (0, math.inf)
            for starts, flips, energies, accepted in rounds:
                states = replay(starts, flips, accepted)
                for c in range(len(starts)):
                    for step, energy in enumerate(energies[:, c].tolist()):
                        if best[1] == math.inf or energy < best[1] - 1e-15 * abs(best[1]):
                            best = (states[step][c], energy)
            assert found == best

    def test_sampling_and_annealing_read_three_members(self, monkeypatch):
        # an objective with only the members sampling and annealing read
        poly = random_pubo(10, 30, 9)
        bare = SimpleNamespace(n_vars=poly.n_vars, scan_chunks=poly.scan_chunks, energies=poly.energies)
        for slab in PATHS.values():
            monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
            expected = enumerate_low_sampled(poly, 2.0, 1.0, 2)
            assert expected.d > 1
            assert bits_of(enumerate_low_sampled(bare, 2.0, 1.0, 2)) == bits_of(expected)
            assert solve_ground_objective(bare, 2) == solve_ground_objective(poly, 2)

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
        settings = [
            (2.0, {}),
            (6.0, {"_MAX_ROUNDS": 3, "_CHAINS": 8}),
            (2.0, {"_CHAINS": 6}),
        ]
        for objective in objectives:
            for delta, constants in settings:
                spectra = {}
                with monkeypatch.context() as patch:
                    for name, value in constants.items():
                        patch.setattr(optimizer_module, name, value)
                    for path, slab in PATHS.items():
                        patch.setattr(optimizer_module, "SLAB_ENTRIES", slab)
                        spectra[path] = enumerate_low_sampled(objective, delta, 1.0, seed)
                assert spectra["table"].d > 1
                assert bits_of(spectra["table"]) == bits_of(spectra["replica"])

    def test_sampling_stops_once_the_table_proves_the_window_complete(self, monkeypatch):
        # round one finds the whole window, so no stall round runs on the table
        h = random_quadratic(10, 18, 0)
        exhaustive = enumerate_low_exhaustive(h, 2.0, 1.0)
        spectra, rounds = on_both_paths(monkeypatch, lambda: enumerate_low_sampled(h, 2.0, 1.0, 0))
        assert len(rounds["table"]) < 1 + optimizer_module._STALL_ROUNDS == len(rounds["replica"])
        assert bits_of(spectra["table"]) == bits_of(spectra["replica"])
        assert set(spectra["table"].packed.tolist()) == set(exhaustive.packed.tolist())

    @given(
        n=st.integers(2, 14),
        seed=st.integers(0, 2**16),
        eta=st.sampled_from([0.25, 0.5, 1.0]),
        delta=st.sampled_from([0.5, 2.0, 8.0, 32.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sampled_spectra_equal_the_always_harvest_loop(self, n, seed, eta, delta):
        # the widest windows of 11 to 14 variables stall before every
        # target is visited and end on the harvest, the others on the
        # round that visits their targets
        objective = random_pubo(n, 2 * n, seed, max_arity=min(n, 3))
        assert bits_of(enumerate_low_sampled(objective, delta, eta, seed)) == bits_of(
            sampled_rounds(objective, delta, eta, seed)
        )

    def test_stalled_window_ends_on_the_harvest(self, monkeypatch):
        # a window of 14 variables too wide for the rounds to visit all of it
        objective = random_pubo(14, 28, 0, max_arity=3)
        events = []
        anneal, harvest = optimizer_module._anneal, optimizer_module._harvest
        monkeypatch.setattr(
            optimizer_module, "_anneal", lambda *args: events.append("anneal") or anneal(*args)
        )
        monkeypatch.setattr(
            optimizer_module, "_harvest", lambda *args: events.append("harvest") or harvest(*args)
        )
        spectrum = enumerate_low_sampled(objective, 32.0, 1.0, 0)
        assert events[-2:] == ["anneal", "harvest"]
        assert spectrum.d < enumerate_low_exhaustive(objective, 32.0, 1.0).d
        assert bits_of(spectrum) == bits_of(sampled_rounds(objective, 32.0, 1.0, 0))

    def test_replica_path_equals_the_always_harvest_loop(self, monkeypatch):
        # no replica round is cut, so each is harvested as before
        objective = random_pubo(9, 18, 3, max_arity=3)
        monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", PATHS["replica"])
        spectrum = enumerate_low_sampled(objective, 2.0, 1.0, 3)
        assert spectrum.d > 1
        assert bits_of(spectrum) == bits_of(sampled_rounds(objective, 2.0, 1.0, 3))

    def test_window_that_ends_on_its_targets_is_not_harvested(self, monkeypatch):
        objective = random_pubo(11, 22, 0, max_arity=3)
        events = []
        anneal, harvest = optimizer_module._anneal, optimizer_module._harvest

        def recording_anneal(*args):
            out = anneal(*args)
            events.append(("anneal", out[2].shape[0] - 1 < args[3].shape[0]))
            return out

        monkeypatch.setattr(optimizer_module, "_anneal", recording_anneal)
        monkeypatch.setattr(
            optimizer_module, "_harvest", lambda *args: events.append(("harvest", None)) or harvest(*args)
        )
        spectrum = enumerate_low_sampled(objective, 4.0, 1.0, 0)
        # the last round is cut at the check that finds every target and
        # no harvest follows it; the earlier rounds are each harvested
        assert [kind for kind, _ in events] == ["anneal", "harvest"] * 2 + ["anneal"]
        assert [cut for kind, cut in events if kind == "anneal"] == [False, False, True]
        table = _dense_table(objective)
        targets = np.flatnonzero(window(table.min(), 4.0, 1.0).contains(table))
        assert sorted(spectrum.packed.tolist()) == targets.tolist()
        assert spectrum.window == window(table.min(), 4.0, 1.0)
        assert bits_of(spectrum) == bits_of(sampled_rounds(objective, 4.0, 1.0, 0))

    def test_cut_round_is_a_prefix_of_the_full_round(self):
        objective = random_pubo(10, 40, 8)
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

    @pytest.mark.parametrize("case", ["inside", "outside", "control"])
    def test_window_edge_is_one_rule_on_both_paths(self, case, monkeypatch):
        rng = np.random.default_rng(1)
        energies = -1000.0 + rng.uniform(0.0, 2.0, size=1 << 6)
        delta = 0.5
        win = window(energies.min(), delta, 1.0)
        # The harvest, the table's targets and the final filter all read
        # window(), whose tolerance 1e-9 * max(1, |E0| + delta) is about
        # 1e-6 here, about a thousand times 1e-9 * max(1, width). A state
        # half a tolerance past the upper edge is a target, pooled whenever
        # a chain visits it and kept; one two tolerances past it is kept on
        # neither path.
        offset = {"inside": 0.5 * win.tol, "outside": 2.0 * win.tol, "control": 1e-3}[case]
        moved = int(np.argmax(energies > win.hi + 1e-3))
        energies[moved] = win.hi + offset
        objective = array_objective(energies)
        spectra, rounds = on_both_paths(monkeypatch, lambda: enumerate_low_sampled(objective, delta, 1.0, 0))
        assert bits_of(spectra["table"]) == bits_of(spectra["replica"])
        assert spectra["table"].window == win
        assert (moved in spectra["table"].packed.tolist()) == (case == "inside")
        for path, lengths in rounds.items():
            whole = all(ran == scheduled == 50 * 6 for ran, scheduled in lengths)
            assert whole == (path == "replica")

    def test_ground_search_stops_at_the_table_minimum(self, monkeypatch):
        objective = random_quadratic(10, 18, 0)
        lowest = _dense_table(objective).min()
        found, rounds = on_both_paths(monkeypatch, lambda: solve_ground_objective(objective, 0))
        assert len(rounds["table"]) < 1 + optimizer_module._STALL_ROUNDS == len(rounds["replica"])
        assert found["table"] == found["replica"]
        assert found["table"][1] == lowest

    def test_dense_limit_is_sixteen_variables(self, monkeypatch):
        # the path a round ran is the table it was given
        on_table = []
        anneal = optimizer_module._anneal
        monkeypatch.setattr(
            optimizer_module, "_anneal", lambda *args: on_table.append(args[1] is not None) or anneal(*args)
        )
        monkeypatch.setattr(optimizer_module, "_MAX_ROUNDS", 1)
        for n in (16, 17):
            objective = random_quadratic(n, 2 * n, n)
            on_table.clear()
            found = solve_ground_objective(objective, 1)
            assert (_dense_table(objective) is not None) == (n == 16)
            assert on_table == [n == 16]
            with monkeypatch.context() as patch:
                patch.setattr(optimizer_module, "SLAB_ENTRIES", 1)
                assert solve_ground_objective(objective, 1) == found

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
            sampled = enumerate_low_sampled(objective, delta, 1.0, 1)
            assert set(sampled.packed.tolist()) == set(exhaustive.packed.tolist())
            assert sampled.e0 == pytest.approx(exhaustive.e0, abs=1e-12)

    def test_recombined_anneal_above_62_qubits(self, monkeypatch):
        rp = singleton_reduced_problem(70, 3)
        objective = rp.full_objective()
        assert objective.n_vars == 70
        monkeypatch.setattr(optimizer_module, "_MAX_ROUNDS", 2)
        bits, energy = solve_ground_objective(objective, 0)
        assert 0 <= bits < 1 << 70
        assert energy_of_indices(rp, indices_from_bits(rp, bits)) == pytest.approx(energy, abs=1e-9)

    def test_sampled_window_above_62_variables_refused_before_chains(self, monkeypatch):
        objective = singleton_reduced_problem(64, 4).full_objective()

        def fail(*args, **kwargs):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(optimizer_module, "_anneal", fail)
        monkeypatch.setattr(optimizer_module, "_draw_chains", fail)
        with pytest.raises(ResourceError):
            enumerate_low_sampled(objective, 1.0, 1.0, 0)

    def test_polynomial_above_62_variables_refused_before_a_step(self, monkeypatch):
        h = PolyHamiltonian(MAX_PACKED_VARS + 1, {(0, 1): 1.0, (1, MAX_PACKED_VARS): -0.5})
        evaluated = []
        energies = PolyHamiltonian.energies

        def starts_only(self, states):
            # the first call reads a round's starts, every later one a step
            if evaluated:
                raise AssertionError("an annealing step ran")
            evaluated.append(states.size)
            return energies(self, states)

        monkeypatch.setattr(PolyHamiltonian, "energies", starts_only)
        with pytest.raises(ResourceError, match="63 variables exceed the 62-variable limit"):
            solve_ground_objective(h, 0)
        with pytest.raises(ResourceError, match="63 variables exceed the 62-variable limit"):
            enumerate_low_sampled(h, 1.0, 1.0, 0)
        assert evaluated == [optimizer_module._CHAINS]

    def test_penalty_probe(self):
        states = np.array([3, 10, 7, 40, 99], dtype=np.int64)
        empty = _penalty_of(np.empty(0, dtype=np.int64), np.empty(0), states)
        assert empty.tolist() == [0.0] * 5
        keys = np.array([3, 7, 40], dtype=np.int64)
        values = np.array([1.5, 2.5, 3.5])
        # first key, missing between keys, middle key, last key, missing past the end
        assert _penalty_of(keys, values, states).tolist() == [1.5, 0.0, 2.5, 3.5, 0.0]
        assert _penalty_of(keys, values, np.array([0, 2], dtype=np.int64)).tolist() == [0.0, 0.0]


# Recorded from the seeded streams of ``enumerate_low_sampled`` and
# ``solve_ground_objective`` at seed 7. "default": a window's delta and the
# window states the default rounds miss (a spectrum is sorted, so these pin
# its packed states). "short": a window's delta and its packed states after
# one round of two chains, which misses some window states. "ground": the
# ground search's (bits, energy). The quadratic objective's ground state ties
# with its complement, 1651, so the draws also pick the ground bits.
PINNED_STREAMS = {
    "poly": {
        "default": (5.0, []),
        "short": (2.0, [2444, 1651, 396, 2436, 1659, 2508, 2468, 1627, 388, 2484, 1611]),
        "ground": (2444, "-0x1.14a4d82d701f4p+3"),
    },
    "table": {
        "default": (1.0, []),
        "short": (1.0, [462, 461, 501, 458, 846, 845, 498, 510, 502, 506, 509, 457, 466, 205, 505, 497, 842,
                        469, 459, 507, 245, 882, 465, 242, 250, 460, 253]),
        "ground": (462, "-0x1.a15fa396f2e40p+1"),
    },
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", PINNED_STREAMS)
def test_seeded_streams_are_pinned(kind, path, monkeypatch):
    objective = {
        "poly": lambda: random_quadratic(12, 20, 3),
        "table": lambda: random_table_objective(5),
    }[kind]()
    pinned = PINNED_STREAMS[kind]
    monkeypatch.setattr(optimizer_module, "SLAB_ENTRIES", PATHS[path])
    assert (_dense_table(objective) is None) == (path == "replica")
    delta, missed = pinned["default"]
    exhaustive = enumerate_low_exhaustive(objective, delta, 1.0).packed.tolist()
    expected = [state for state in exhaustive if state not in missed]
    assert enumerate_low_sampled(objective, delta, 1.0, 7).packed.tolist() == expected
    bits, energy = pinned["ground"]
    assert solve_ground_objective(objective, 7) == (bits, float.fromhex(energy))
    delta, states = pinned["short"]
    monkeypatch.setattr(optimizer_module, "_MAX_ROUNDS", 1)
    monkeypatch.setattr(optimizer_module, "_CHAINS", 2)
    spectrum = enumerate_low_sampled(objective, delta, 1.0, 7)
    assert spectrum.packed.tolist() == states
    assert spectrum.d < enumerate_low_exhaustive(objective, delta, 1.0).d
