"""Hamiltonian representation, evaluation, and conversion tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcreduce.hamiltonian as hamiltonian_module
from dcreduce.driver import RunConfig, run
from dcreduce.errors import DimensionError, FormatError, ResourceError
from dcreduce.hamiltonian import (
    MAX_PACKED_VARS,
    PolyHamiltonian,
    format_edge_list,
    load_problem,
    parse_edge_list,
)
from helpers import flip_all, naive_evaluate, random_pubo, random_quadratic, spin_energies


class TestEvaluate:
    def test_aligned_pair(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        assert h.evaluate((0, 0)) == 1.0

    def test_antialigned_pair(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        assert h.evaluate((0, 1)) == -1.0

    def test_mixed_degrees(self):
        # 2.5 - (-1) + 0.5 * (-1)(+1)(-1) = 4.0, checked by hand and oracle
        h = PolyHamiltonian(3, {(): 2.5, (0,): -1.0, (0, 1, 2): 0.5})
        assert h.evaluate((1, 0, 1)) == pytest.approx(4.0, abs=1e-12)
        assert naive_evaluate(h, (1, 0, 1)) == pytest.approx(4.0, abs=1e-12)

    def test_length_mismatch(self):
        h = PolyHamiltonian(2, {(0, 1): 1.0})
        with pytest.raises(DimensionError):
            h.evaluate((0, 0, 0))

    def test_matches_naive_oracle(self):
        for seed in range(20):
            h = random_pubo(8, 12, seed)
            rng = np.random.default_rng(seed)
            x = tuple(int(b) for b in rng.integers(0, 2, size=8))
            assert h.evaluate(x) == pytest.approx(naive_evaluate(h, x), abs=1e-12)

    def test_energies_matches_spin_matrix(self):
        for seed in range(10):
            h = random_pubo(9, 14, seed)
            states = np.arange(1 << 9)
            np.testing.assert_allclose(h.energies(states), spin_energies(h), atol=1e-12)

    @pytest.mark.parametrize("slab", [1, 7, 1 << 16])
    def test_energies_bit_identical_to_term_loop(self, monkeypatch, slab):
        # blocked parity matrices add the terms in the order of the per-term loop
        monkeypatch.setattr(hamiltonian_module, "SLAB_ENTRIES", slab)
        for seed in range(4):
            h = PolyHamiltonian.from_terms(10, [*random_pubo(10, 30, seed + 90).terms.items(), ((), 0.3)])
            states = np.arange(1 << 10, dtype=np.int64).reshape(32, 32)
            expected = np.zeros(states.shape)
            for subset in sorted(h.terms):
                parity = np.bitwise_count(states & sum(1 << j for j in subset)) & 1
                expected += h.terms[subset] * (1.0 - 2.0 * parity)
            got = h.energies(states)
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_energies_refuse_states_past_the_packing_limit(self):
        h = PolyHamiltonian(MAX_PACKED_VARS + 1, {(0, MAX_PACKED_VARS): 1.0})
        with pytest.raises(ResourceError, match="63 variables exceed the 62-variable limit"):
            h.energies(np.zeros(1, dtype=np.int64))

    @given(st.integers(0, 2**6 - 1), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_property(self, state, seed):
        h = random_pubo(6, 9, seed)
        x = tuple((state >> j) & 1 for j in range(6))
        assert h.evaluate(x) == pytest.approx(naive_evaluate(h, x), abs=1e-12)


class TestValidation:
    def test_unsorted_subset(self):
        with pytest.raises(FormatError):
            PolyHamiltonian(3, {(2, 0): 1.0})

    def test_out_of_range(self):
        with pytest.raises(FormatError):
            PolyHamiltonian(2, {(0, 5): 1.0})

    def test_zero_coefficient(self):
        with pytest.raises(FormatError):
            PolyHamiltonian(2, {(0,): 0.0})

    def test_non_finite(self):
        with pytest.raises(FormatError):
            PolyHamiltonian(2, {(0,): float("inf")})

    def test_summed_magnitude_past_the_float_range(self):
        # each coefficient is finite, but energies would overflow
        with pytest.raises(FormatError):
            PolyHamiltonian(3, {(0, 1): 1e308, (0, 2): 1e308, (1, 2): 1e308})
        # a quarter of the largest float still leaves the headroom
        PolyHamiltonian(3, {(0, 1): 1e307, (0, 2): 1e307, (1, 2): 1e307})

    def test_from_terms_merges_duplicates(self):
        h = PolyHamiltonian.from_terms(3, [((0, 1), 1.0), ((0, 1), 0.5), ((2,), -1.0)])
        assert h.terms == {(0, 1): 1.5, (2,): -1.0}

    def test_from_terms_drops_cancelled(self):
        h = PolyHamiltonian.from_terms(2, [((0,), 1.0), ((0,), -1.0)])
        assert h.terms == {}


class TestBooleanTable:
    def test_constant_function(self):
        h = PolyHamiltonian.from_boolean_table([1.0, 1.0])
        assert h.terms == {(): 1.0}

    def test_xor(self):
        h = PolyHamiltonian.from_boolean_table([0.0, 1.0, 1.0, 0.0])
        assert h.terms == pytest.approx({(): 0.5, (0, 1): -0.5})

    def test_and(self):
        h = PolyHamiltonian.from_boolean_table([0.0, 0.0, 0.0, 1.0])
        assert h.terms == pytest.approx(
            {(): 0.25, (0,): -0.25, (1,): -0.25, (0, 1): 0.25}
        )

    def test_bad_size(self):
        with pytest.raises(FormatError):
            PolyHamiltonian.from_boolean_table([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        table = rng.uniform(-3.0, 3.0, size=1 << n)
        h = PolyHamiltonian.from_boolean_table(table)
        np.testing.assert_allclose(h.energies(np.arange(1 << n)), table, atol=1e-9)


class TestQuadratize:
    @pytest.mark.parametrize("seed", range(6))
    def test_restricted_spectrum_equality(self, seed):
        # Each field h_i Z_i becomes the coupling h_i Z_i Z_a to one appended
        # ancilla a, coupled to every other variable: the ancilla-0 sector is
        # the original spectrum, the other sector its global-flip image, and
        # run() finds the original's ground energy on it.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        terms = {(i,): float(rng.uniform(-1, 1)) or 0.5 for i in range(n)}
        for i in range(n - 1):
            terms[(i, i + 1)] = float(rng.uniform(-1, 1)) or 0.4
        h = PolyHamiltonian(n, terms)
        out = PolyHamiltonian(n + 1, {(s[0], n) if len(s) == 1 else s: c for s, c in terms.items()})
        original = spin_energies(h)
        extended = out.energies(np.arange(1 << (n + 1)))
        np.testing.assert_allclose(extended[: 1 << n], original, atol=1e-12)
        flipped = original[(~np.arange(1 << n)) & ((1 << n) - 1)]
        np.testing.assert_allclose(extended[1 << n :], flipped, atol=1e-12)
        result = run(out, RunConfig(eta=1.0, seed=seed))
        body = result.best_config[:n]
        config = flip_all(body) if result.best_config[n] else body
        assert h.evaluate(config) == pytest.approx(original.min(), abs=1e-12)


class TestRestrict:
    def test_reindexes_by_position(self):
        h = PolyHamiltonian(6, {
            (): 0.3, (1,): 0.5, (4,): -0.25, (2,): 0.75,
            (1, 4): -1.0, (1, 2): 0.125, (1, 4, 5): 0.625, (0, 3): 2.0,
        })
        local = h.split([(1, 4, 5)])[0]
        # fields kept, constant and the crossing terms (2,), (1, 2), (0, 3) dropped
        assert local.n_vars == 3
        assert local.terms == {(0,): 0.5, (1,): -0.25, (0, 1): -1.0, (0, 1, 2): 0.625}

    @pytest.mark.parametrize("seed", range(4))
    def test_local_energy_matches_restricted_terms(self, seed):
        rng = np.random.default_rng(seed)
        h = random_pubo(9, 18, seed)
        members = tuple(sorted(rng.choice(9, size=4, replace=False).tolist()))
        local = h.split([members])[0]
        inside = {s: c for s, c in h.terms.items() if s and set(s) <= set(members)}
        for _ in range(8):
            x = tuple(int(b) for b in rng.integers(0, 2, size=9))
            expected = naive_evaluate(PolyHamiltonian(9, inside), x)
            got = local.evaluate(tuple(x[v] for v in members))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_split_restricts_every_community(self):
        h = PolyHamiltonian(6, {
            (): 0.3, (1,): 0.5, (4,): -0.25, (2,): 0.75,
            (1, 4): -1.0, (1, 2): 0.125, (1, 4, 5): 0.625, (0, 3): 2.0,
        })
        parts = h.split([(0, 3), (1, 4, 5), (2,)])
        assert [p.n_vars for p in parts] == [2, 3, 1]
        assert [p.terms for p in parts] == [
            {(0, 1): 2.0},
            {(0,): 0.5, (1,): -0.25, (0, 1): -1.0, (0, 1, 2): 0.625},
            {(0,): 0.75},
        ]


class TestSymmetry:
    def test_flip_all(self):
        assert flip_all((0, 1, 1)) == (1, 0, 0)

    def test_pure_quadratic_flip_invariance(self):
        for seed in range(25):
            h = random_quadratic(8, 12, seed)
            rng = np.random.default_rng(seed + 100)
            x = tuple(int(b) for b in rng.integers(0, 2, size=8))
            assert h.evaluate(x) == pytest.approx(h.evaluate(flip_all(x)), abs=1e-12)

    def test_odd_terms_change_sign(self):
        h = PolyHamiltonian(3, {(0, 1, 2): 0.7})
        assert h.evaluate((0, 0, 0)) == pytest.approx(-h.evaluate((1, 1, 1)), abs=1e-12)

    @given(st.integers(0, 10**6), st.integers(0, 2**10 - 1))
    @settings(max_examples=80, deadline=None)
    def test_flip_property(self, seed, state):
        h = random_quadratic(10, 16, seed)
        x = tuple((state >> j) & 1 for j in range(10))
        assert abs(h.evaluate(x) - h.evaluate(flip_all(x))) <= 1e-12


class TestSerialization:
    def test_json_round_trip(self):
        h = random_pubo(6, 9, 3)
        again = PolyHamiltonian.from_json_dict(h.to_json_dict())
        assert again == h

    def test_json_duplicate_subsets_rejected(self):
        data = {"n": 2, "terms": [{"vars": [0, 1], "coeff": 1.0}, {"vars": [0, 1], "coeff": 2.0}]}
        with pytest.raises(FormatError):
            PolyHamiltonian.from_json_dict(data)

    @pytest.mark.parametrize("data", [
        {"n": 3.7, "terms": [{"vars": [0, 1], "coeff": 1.0}]},
        {"n": 3, "terms": [{"vars": [0, 1.5], "coeff": 1.0}]},
        {"n": True, "terms": []},
        {"n": 3, "terms": [{"vars": [False, 1], "coeff": 1.0}]},
        {"n": "3", "terms": []},
    ])
    def test_json_non_integer_index_rejected(self, data):
        # a fraction would be truncated and a boolean read as 0 or 1
        with pytest.raises(FormatError):
            PolyHamiltonian.from_json_dict(data)

    @pytest.mark.parametrize("terms", [5, None])
    def test_json_terms_not_a_list_rejected(self, terms):
        with pytest.raises(FormatError, match="'terms' must be a list"):
            PolyHamiltonian.from_json_dict({"n": 3, "terms": terms})

    def test_json_integral_float_index_accepted(self):
        h = PolyHamiltonian.from_json_dict({"n": 3.0, "terms": [{"vars": [0.0, 2], "coeff": 1.0}]})
        assert h == PolyHamiltonian(3, {(0, 2): 1.0})

    def test_json_unsorted_vars_rejected(self):
        with pytest.raises(FormatError):
            PolyHamiltonian.from_json_dict({"n": 2, "terms": [{"vars": [1, 0], "coeff": 1.0}]})

    def test_edge_list_round_trip(self):
        h = random_quadratic(7, 10, 5)
        again = parse_edge_list(format_edge_list(h))
        assert again.n_vars == h.n_vars
        assert again.terms == pytest.approx(h.terms)
        # the header keeps vertices without edges above the largest index
        isolated = PolyHamiltonian(5, {(0, 1): 1.0})
        again = parse_edge_list(format_edge_list(isolated))
        assert (again.n_vars, again.terms) == (5, isolated.terms)

    def test_edge_list_vertex_past_the_header_rejected(self):
        with pytest.raises(FormatError, match="line 2: vertex 5"):
            parse_edge_list("# n=3\n0 5 1.0\n")
        # without a header the count is the largest index plus one
        assert parse_edge_list("0 5 1.0\n").n_vars == 6

    def test_edge_list_duplicates_rejected(self):
        # a zero weight is not stored, but its pair still counts as seen
        for text in ("0 1 0.5\n1 0 0.25\n", "0 1 0.0\n0 1 0.5\n", "0 1 0.5\n1 0 0.0\n"):
            with pytest.raises(FormatError, match="duplicate edge"):
                parse_edge_list(text)

    def test_edge_list_self_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("1 1 0.5\n")

    def test_edge_list_malformed_line(self):
        with pytest.raises(FormatError):
            parse_edge_list("0 1\n")

    def test_load_problem_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            load_problem(str(path))

    def test_load_problem_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(FormatError, match="utf16.txt: not UTF-8"):
            load_problem(str(path))
