"""Random-graph family generator tests."""

import numpy as np
import pytest

from dcreduce.benchgen import (
    GraphSpec,
    family_by_label,
    family_matrix,
    generate,
    parse_spec_string,
)
from dcreduce.errors import ParameterError


def _degrees(h):
    deg = [0] * h.n_vars
    for (u, v) in h.terms:
        deg[u] += 1
        deg[v] += 1
    return deg


def _edge_count(h):
    return len(h.terms)


def _is_acyclic(h):
    parent = list(range(h.n_vars))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in h.terms:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _is_connected(h):
    seen = {0}
    frontier = [0]
    adj = {v: [] for v in range(h.n_vars)}
    for (u, v) in h.terms:
        adj[u].append(v)
        adj[v].append(u)
    while frontier:
        node = frontier.pop()
        for other in adj[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == h.n_vars


class TestFamilies:
    def test_ring_k2_is_cycle(self):
        h = generate(GraphSpec("ring_lattice", 10, 0, k=2))
        assert _edge_count(h) == 10
        assert all(d == 2 for d in _degrees(h))
        assert _is_connected(h)

    def test_ring_k4(self):
        h = generate(GraphSpec("ring_lattice", 12, 0, k=4))
        assert _edge_count(h) == 24
        assert all(d == 4 for d in _degrees(h))

    def test_three_regular(self):
        h = generate(GraphSpec("k_regular", 10, 1, k=3))
        assert _edge_count(h) == 15
        assert all(d == 3 for d in _degrees(h))

    def test_ba_m1_is_tree(self):
        h = generate(GraphSpec("barabasi_albert", 10, 2, m=1))
        assert _edge_count(h) == 9
        assert _is_acyclic(h)

    def test_ba_m2_edge_and_degree_sum(self):
        n, m = 12, 2
        h = generate(GraphSpec("barabasi_albert", n, 3, m=m))
        assert _edge_count(h) == m * (n - m)
        assert sum(_degrees(h)) == 2 * m * (n - m)

    def test_erdos_renyi_edge_count(self):
        h = generate(GraphSpec("erdos_renyi", 12, 4, m=20))
        assert _edge_count(h) == 20

    def test_watts_strogatz_conserves_edges(self):
        for seed in range(5):
            h = generate(GraphSpec("watts_strogatz", 14, seed, k=4, p=0.3))
            assert _edge_count(h) == 28
            assert sum(_degrees(h)) == 56

    def test_watts_strogatz_p_zero_is_ring(self):
        a = generate(GraphSpec("watts_strogatz", 10, 0, k=2, p=0.0))
        b = generate(GraphSpec("ring_lattice", 10, 0, k=2))
        assert set(a.terms) == set(b.terms)


class TestValidation:
    def test_odd_regular_product(self):
        with pytest.raises(ParameterError):
            generate(GraphSpec("k_regular", 9, 0, k=3))

    def test_ring_odd_k(self):
        with pytest.raises(ParameterError):
            generate(GraphSpec("ring_lattice", 10, 0, k=3))

    def test_er_too_many_edges(self):
        with pytest.raises(ParameterError):
            generate(GraphSpec("erdos_renyi", 5, 0, m=11))

    def test_missing_parameter(self):
        with pytest.raises(ParameterError):
            generate(GraphSpec("erdos_renyi", 5, 0))

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            GraphSpec("smallworld", 5, 0)

    def test_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be non-negative"):
            GraphSpec("k_regular", 8, -1, k=3)

    @pytest.mark.parametrize("family, unread", [
        ("erdos_renyi", "k"), ("barabasi_albert", "k"),
        ("k_regular", "m"), ("ring_lattice", "m"), ("watts_strogatz", "m"),
        ("k_regular", "p"), ("erdos_renyi", "p"), ("barabasi_albert", "p"), ("ring_lattice", "p"),
    ])
    def test_parameter_the_family_does_not_read(self, family, unread):
        # generating would ignore it, and print another graph than the one asked for
        read = {
            "erdos_renyi": {"m": 8}, "barabasi_albert": {"m": 2}, "k_regular": {"k": 3},
            "ring_lattice": {"k": 2}, "watts_strogatz": {"k": 2, "p": 0.3},
        }[family]
        with pytest.raises(ParameterError, match=f"does not read parameter '{unread}'"):
            GraphSpec(family, 10, 0, **read, **{unread: 0.5 if unread == "p" else 3})


class TestWeights:
    def test_seeded_determinism(self):
        a = generate(GraphSpec("k_regular", 16, 9, k=3))
        b = generate(GraphSpec("k_regular", 16, 9, k=3))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(GraphSpec("k_regular", 16, 9, k=3))
        b = generate(GraphSpec("k_regular", 16, 10, k=3))
        assert a != b

    def test_weight_distribution(self):
        weights = []
        seed = 0
        while len(weights) < 100_000:
            h = generate(GraphSpec("erdos_renyi", 24, seed, m=48))
            weights.extend(h.terms.values())
            seed += 1
        weights = np.array(weights[:100_000])
        assert abs(weights.mean()) <= 0.01
        assert weights.min() >= -1.0
        assert weights.max() <= 1.0


class TestFamilyMatrix:
    def test_contains_three_regular(self):
        labels = [f.label for f in family_matrix()]
        assert "3reg" in labels

    def test_ws_uses_p_point_three(self):
        for entry in family_matrix():
            if entry.family == "watts_strogatz":
                assert entry.p == 0.3

    def test_degree_classes(self):
        by_class = {}
        for entry in family_matrix():
            by_class.setdefault(entry.degree_class, []).append(entry.label)
        assert sorted(by_class) == [2, 3, 4]
        assert sorted(by_class[2]) == ["ba_m1", "er_n", "ring_k2", "ws_k2"]
        assert sorted(by_class[3]) == ["3reg", "er_3n2"]
        assert sorted(by_class[4]) == ["ba_m2", "er_2n", "ring_k4", "ws_k4"]

    def test_spec_for_scales_er_edges(self):
        entry = family_by_label("er_3n2")
        assert entry.spec_for(10, 0).m == 15
        assert entry.spec_for(11, 0).m == 16

    def test_all_entries_generate(self):
        for entry in family_matrix():
            h = generate(entry.spec_for(12, 1))
            assert h.n_vars == 12
            assert _edge_count(h) >= 6


class TestSpecStrings:
    def test_three_regular_spec(self):
        spec = parse_spec_string("3reg:n=40:seed=7")
        assert spec == GraphSpec("k_regular", 40, 7, k=3)

    def test_watts_strogatz_spec(self):
        spec = parse_spec_string("ws:k=4:p=0.3:n=24:seed=1")
        assert spec == GraphSpec("watts_strogatz", 24, 1, k=4, p=0.3)

    def test_er_spec(self):
        spec = parse_spec_string("er:n=20:m=40:seed=3")
        assert spec == GraphSpec("erdos_renyi", 20, 3, m=40)

    def test_bad_segment(self):
        with pytest.raises(ParameterError):
            parse_spec_string("3reg:n40")

    def test_unknown_token(self):
        with pytest.raises(ParameterError):
            parse_spec_string("mesh:n=10")

    def test_missing_n(self):
        with pytest.raises(ParameterError):
            parse_spec_string("3reg:seed=1")

    def test_unknown_key_is_named(self):
        # ignoring a misspelt key would generate the default seed 0
        with pytest.raises(ParameterError, match="'sede'"):
            parse_spec_string("3reg:n=40:sede=7")

    @pytest.mark.parametrize("text, key", [
        ("3reg:n=40.9", "n"), ("3reg:n=40:seed=1.5", "seed"), ("kreg:k=2.5:n=10", "k"), ("er:n=10:m=8.7", "m"),
    ])
    def test_fractional_integer_field_is_named(self, text, key):
        # truncating would generate another instance than the one asked for
        with pytest.raises(ParameterError, match=f"'{key}' takes an integer"):
            parse_spec_string(text)

    def test_3reg_degree_is_three(self):
        # 3reg:k=4 would print a 4-regular graph
        assert parse_spec_string("3reg:n=8:k=3") == GraphSpec("k_regular", 8, 0, k=3)
        with pytest.raises(ParameterError, match="3reg has k=3, got k=4"):
            parse_spec_string("3reg:n=8:seed=1:k=4")
        assert parse_spec_string("kreg:n=8:k=4").k == 4

    def test_integral_floats_and_float_p_parse(self):
        assert parse_spec_string("3reg:n=4e1:seed=7.0") == GraphSpec("k_regular", 40, 7, k=3)
        assert parse_spec_string("ws:k=4:p=0.25:n=24").p == 0.25
