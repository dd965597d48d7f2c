"""Modularity and Louvain tests, checked against naive oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcreduce.benchgen import GraphSpec, generate
from dcreduce.clustering import (
    Partition,
    WeightedGraph,
    louvain,
    louvain_with_history,
    modularity,
)
from dcreduce.driver import RunConfig, run
from dcreduce.errors import DomainError, FormatError
from dcreduce.hamiltonian import PolyHamiltonian
from dcreduce.reduction import ReducedProblem
from helpers import all_partitions, naive_modularity, random_graph, reference_louvain


def _triangle_pair():
    edges = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0,
             (3, 4): 1.0, (4, 5): 1.0, (3, 5): 1.0}
    return WeightedGraph(6, edges)


class TestModularity:
    def test_two_disjoint_triangles(self):
        p = Partition.from_labels([0, 0, 0, 1, 1, 1])
        assert modularity(_triangle_pair(), p) == pytest.approx(0.5, abs=1e-12)

    def test_single_community_is_zero(self):
        g = random_graph(7, 12, 1)
        p = Partition.from_labels([0] * 7)
        assert modularity(g, p) == pytest.approx(0.0, abs=1e-12)

    def test_single_edge_singletons(self):
        g = WeightedGraph(2, {(0, 1): 1.0})
        p = Partition.from_labels([0, 1])
        assert modularity(g, p) == pytest.approx(-0.5, abs=1e-12)

    def test_negative_weight_rejected(self):
        g = WeightedGraph(2, {(0, 1): -1.0})
        with pytest.raises(DomainError):
            modularity(g, Partition.from_labels([0, 1]))

    def test_zero_weight_rejected(self):
        g = WeightedGraph(3, {})
        with pytest.raises(DomainError):
            modularity(g, Partition.from_labels([0, 1, 2]))

    def test_matches_naive_double_sum(self):
        for seed in range(15):
            g = random_graph(8, 14, seed)
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 3, size=8)
            p = Partition.from_labels(labels.tolist())
            assert modularity(g, p) == pytest.approx(
                naive_modularity(g, p.community_of), abs=1e-12
            )


class TestHypergraphExpansion:
    """The graph level 1 is clustered on: the level-0 contracted graph, in
    which a k-variable term adds |J| / C(k, 2) to each pair of its variables."""

    @staticmethod
    def _graph(h):
        return ReducedProblem.from_hamiltonian(h).contracted_graph()

    def test_pure_quadratic_identity(self):
        h = PolyHamiltonian(3, {(0, 1): -0.4, (1, 2): 0.9})
        g = self._graph(h)
        assert g.edges == {(0, 1): 0.4, (1, 2): 0.9}

    def test_three_subset_split(self):
        h = PolyHamiltonian(3, {(0, 1, 2): 0.6})
        g = self._graph(h)
        assert g.edges == pytest.approx({(0, 1): 0.2, (0, 2): 0.2, (1, 2): 0.2})

    def test_overlapping_subsets(self):
        h = PolyHamiltonian(4, {(0, 1): 1.0, (0, 1, 2): -0.3, (0, 1, 2, 3): 1.2})
        g = self._graph(h)
        assert g.edges == pytest.approx({
            (0, 1): 1.3, (0, 2): 0.3, (1, 2): 0.3, (0, 3): 0.2, (1, 3): 0.2, (2, 3): 0.2,
        })

    def test_low_degree_terms_skipped(self):
        h = PolyHamiltonian(3, {(): 2.0, (1,): -1.0, (0, 2): 0.5})
        g = self._graph(h)
        assert g.edges == {(0, 2): 0.5}


class TestPartition:
    def test_from_labels_normalizes(self):
        p = Partition.from_labels([7, 7, 2, 7, 2])
        assert p.community_of == (0, 0, 1, 0, 1)
        assert p.n_communities == 2
        assert p.communities == ((0, 1, 3), (2, 4))

    def test_non_contiguous_rejected(self):
        with pytest.raises(FormatError):
            Partition((0, 2), 3)


class TestLouvain:
    def test_two_cliques_match_exhaustive_optimum(self):
        edges = {}
        for a in range(4):
            for b in range(a + 1, 4):
                edges[(a, b)] = 1.0
                edges[(a + 4, b + 4)] = 1.0
        edges[(0, 4)] = 0.1
        g = WeightedGraph(8, edges)
        best_q, best_labels = -2.0, None
        for labels in all_partitions(8):
            q = naive_modularity(g, labels)
            if q > best_q:
                best_q, best_labels = q, labels
        assert Partition.from_labels(best_labels).communities == (
            (0, 1, 2, 3), (4, 5, 6, 7),
        )
        found = louvain(g, seed=3)
        assert found.communities == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert modularity(g, found) == pytest.approx(best_q, abs=1e-12)

    def test_zero_edges_gives_singletons(self):
        g = WeightedGraph(5, {})
        p = louvain(g, seed=0)
        assert p.n_communities == 5

    def test_ring_gives_contiguous_arcs(self):
        n = 12
        g = WeightedGraph(n, {(i, (i + 1) % n if i + 1 < n else 0): 1.0 for i in range(n - 1)} | {(0, n - 1): 1.0})
        p = louvain(g, seed=1)
        for community in p.communities:
            assert len(community) >= 2
            members = set(community)
            # contiguous arc: each member has a ring neighbor inside
            arc_hits = sum(
                ((v + 1) % n in members) or ((v - 1) % n in members) for v in community
            )
            assert arc_hits == len(community)
        q = modularity(g, p)
        assert q == pytest.approx(naive_modularity(g, p.community_of), abs=1e-12)

    def test_determinism(self):
        g = random_graph(20, 45, 7)
        assert louvain(g, seed=11) == louvain(g, seed=11)

    def test_seed_changes_visit_order(self):
        g = random_graph(20, 45, 7)
        partitions = {louvain(g, seed=s).community_of for s in range(8)}
        assert len(partitions) >= 1  # may coincide, but every one must be valid

    def test_negative_weight_rejected(self):
        g = WeightedGraph(2, {(0, 1): -0.5})
        with pytest.raises(DomainError):
            louvain(g)

    @pytest.mark.parametrize("exponent", [-600, 520])
    def test_any_weight_scale_gives_the_unscaled_result(self, exponent):
        # unscaled, the gain's 2 m^2 underflows to 0 at 2^-600 and overflows at 2^520
        g = random_graph(20, 45, 7)
        scaled = WeightedGraph(20, {e: math.ldexp(w, exponent) for e, w in g.edges.items()})
        assert louvain_with_history(scaled, seed=5) == louvain_with_history(g, seed=5)

    def test_run_at_a_huge_coefficient_scale_divides_as_unscaled(self):
        # every coefficient x 1e300 is valid input: 4 * sum |c| is still finite
        h = generate(GraphSpec("k_regular", 40, 3, k=3))
        huge = PolyHamiltonian(h.n_vars, {s: c * 1e300 for s, c in h.terms.items()})
        config = RunConfig(eta=1.0, seed=3)
        assert run(huge, config).n_q == run(h, config).n_q == 10

    def test_history_non_decreasing_and_beats_trivial_partitions(self):
        for seed in range(30):
            g = random_graph(10, 18, seed)
            p, history = louvain_with_history(g, seed=seed)
            assert sorted(p.community_of) == sorted(p.community_of)
            assert len(p.community_of) == 10
            for earlier, later in zip(history, history[1:]):
                assert later >= earlier - 1e-9
            q = modularity(g, p)
            assert q >= modularity(g, Partition.from_labels(range(10))) - 1e-12
            assert q >= modularity(g, Partition.from_labels([0] * 10)) - 1e-12
            assert q == pytest.approx(naive_modularity(g, p.community_of), abs=1e-12)

    @pytest.mark.parametrize("kind", ["float", "small_int", "disconnected"])
    def test_matches_the_reference_sweep(self, kind):
        # partition and history bit for bit against the dict-and-sorted sweep;
        # weights of 1 and 2 tie many gains, so the lowest id must win them
        rng = np.random.default_rng(["float", "small_int", "disconnected"].index(kind))
        for trial in range(60):
            n = int(rng.integers(2, 28))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            if kind == "disconnected":
                # a few isolated vertices, the rest in parts with no edge between them
                part = rng.integers(0, 3, n)
                part[rng.choice(n, size=min(n, 3), replace=False)] = -1
                pairs = [(u, v) for u, v in pairs if part[u] == part[v] >= 0]
            chosen = rng.random(len(pairs)) < rng.uniform(0.1, 0.6)
            if kind == "float":
                weights = rng.uniform(0.05, 1.0, len(pairs))
            else:
                weights = rng.integers(1, 3, len(pairs)).astype(float)
            g = WeightedGraph(n, {e: float(w) for e, w, keep in zip(pairs, weights, chosen) if keep})
            seed = int(rng.integers(0, 1 << 32))
            partition, history = louvain_with_history(g, seed)
            ref_partition, ref_history = reference_louvain(g, seed)
            assert partition == ref_partition
            assert [q.hex() for q in history] == [q.hex() for q in ref_history]

    @given(st.integers(0, 10**6), st.integers(4, 10), st.integers(3, 16))
    @settings(max_examples=40, deadline=None)
    def test_louvain_output_valid_property(self, seed, n, n_edges):
        g = random_graph(n, n_edges, seed)
        p, history = louvain_with_history(g, seed=seed)
        assert len(p.community_of) == n
        assert set(p.community_of) == set(range(p.n_communities))
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-9
