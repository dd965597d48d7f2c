"""Weighted graphs, modularity, and Louvain community detection.

Louvain here is the two-phase scheme: sweeps of single-node moves that
maximize the modularity gain, followed by contraction of communities into
vertices. Contraction doubles intra-community weight into Louvain's own
per-vertex loop weights, so the contracted graph keeps the same modularity
value; the input graph has no loops. Node visit order is reshuffled once
per sweep by a seeded PRNG. A visit reads its neighbours from per-vertex
adjacency lists, in adjacency order, and among equal best gains keeps the
lowest community id without sorting, which makes the output reproducible
per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, FormatError, InternalError

# Modularity resolution; the cycles stop once a cycle gains at most _CYCLE_TOL.
_RESOLUTION = 1.0
_CYCLE_TOL = 1e-9
# Moves below this gain are treated as floating-point churn.
_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph without self-loops.

    ``edges`` maps (u, v) with u < v to a finite weight.
    """

    n_vertices: int
    edges: dict[tuple[int, int], float]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise DomainError("graph needs at least one vertex")
        for (u, v), w in self.edges.items():
            if not (0 <= u < v < self.n_vertices):
                raise FormatError(f"edge ({u}, {v}) out of range or not ordered")
            if not math.isfinite(w):
                raise FormatError(f"edge ({u}, {v}) has non-finite weight")

    def degree_weights(self) -> np.ndarray:
        """k_i = sum of incident edge weights."""
        k = np.zeros(self.n_vertices)
        for (u, v), w in self.edges.items():
            k[u] += w
            k[v] += w
        return k

    def total_weight(self) -> float:
        """m = the sum of the edge weights."""
        return sum(self.edges.values())

    def adjacency(self, exponent: int) -> list[list[tuple[int, float]]]:
        """Per vertex, its (neighbour, weight) pairs in edge order, each
        weight scaled by ``2**exponent``."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_vertices)]
        for (u, v), w in self.edges.items():
            w = math.ldexp(w, exponent)
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of vertices by communities with contiguous ids."""

    community_of: tuple[int, ...]
    n_communities: int

    def __post_init__(self):
        if not self.community_of:
            raise DomainError("partition must cover at least one vertex")
        seen = set(self.community_of)
        if seen != set(range(self.n_communities)):
            raise FormatError("community ids must be contiguous 0..n_communities-1 and nonempty")

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Normalize arbitrary labels to first-appearance contiguous ids."""
        remap: dict[int, int] = {}
        out = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            out.append(remap[lab])
        return cls(tuple(out), len(remap))

    @cached_property
    def communities(self) -> tuple[tuple[int, ...], ...]:
        groups: list[list[int]] = [[] for _ in range(self.n_communities)]
        for vertex, comm in enumerate(self.community_of):
            groups[comm].append(vertex)
        return tuple(tuple(g) for g in groups)

    @property
    def n_vertices(self) -> int:
        return len(self.community_of)


def modularity(g: WeightedGraph, p: Partition) -> float:
    """Weighted modularity Q of a partition; the weights must be non-negative."""
    _require_nonnegative(g)
    if len(p.community_of) != g.n_vertices:
        raise DomainError("partition does not cover the graph's vertices")
    m = g.total_weight()
    if m <= 0.0:
        raise DomainError("modularity is undefined for graphs with zero total weight")
    k = g.degree_weights()
    sigma_in = np.zeros(p.n_communities)
    sigma_tot = np.zeros(p.n_communities)
    for (u, v), w in g.edges.items():
        if p.community_of[u] == p.community_of[v]:
            sigma_in[p.community_of[u]] += 2.0 * w
    for vertex, comm in enumerate(p.community_of):
        sigma_tot[comm] += k[vertex]
    two_m = 2.0 * m
    return float(np.sum(sigma_in / two_m) - np.sum((sigma_tot / two_m) ** 2))


def louvain(g: WeightedGraph, seed: int = 0) -> Partition:
    """Louvain community detection on non-negative weights; deterministic
    for a fixed (graph, seed)."""
    part, _ = louvain_with_history(g, seed)
    return part


def louvain_with_history(g: WeightedGraph, seed: int = 0) -> tuple[Partition, list[float]]:
    """Louvain returning the partition and the modularity after each cycle."""
    _require_nonnegative(g)
    m = g.total_weight()
    if m <= 0.0:
        return Partition.from_labels(range(g.n_vertices)), []

    # Gains and modularity are scale-free: scaling by the power of two that puts
    # m in [0.5, 1) rounds nothing and keeps the gain's 2 m^2 finite and nonzero.
    exponent = math.frexp(m)[1]
    m = math.ldexp(m, -exponent)
    rng = np.random.default_rng(seed)
    adj = g.adjacency(-exponent)
    loops = [0.0] * g.n_vertices
    members: list[list[int]] = [[v] for v in range(g.n_vertices)]

    history: list[float] = []
    prev_q: float | None = None
    while True:
        n = len(adj)
        k = [sum(w for _, w in links) + loop for links, loop in zip(adj, loops)]
        labels = list(range(n))
        tot = k[:]
        moved_any = _phase_one(adj, k, m, labels, tot, rng)
        q = _aggregate_modularity(adj, loops, k, labels, m)
        if prev_q is not None and q < prev_q - 1e-9:
            raise InternalError(f"modularity decreased across a cycle: {prev_q} -> {q}")
        history.append(q)
        if not moved_any or (prev_q is not None and q - prev_q <= _CYCLE_TOL):
            break
        prev_q = q
        adj, loops, members = _contract(adj, loops, members, labels)
        if len(adj) == 1:
            labels = [0]
            break

    final_labels = [0] * g.n_vertices
    for node, label in enumerate(labels):
        for original in members[node]:
            final_labels[original] = label
    return Partition.from_labels(final_labels), history


def _require_nonnegative(g: WeightedGraph) -> None:
    if any(w < 0.0 for w in g.edges.values()):
        raise DomainError("weights must be non-negative")


def _phase_one(adj, k, m, labels, tot, rng) -> bool:
    """Sequential single-node moves until no move improves modularity."""
    n = len(adj)
    two_m2 = 2.0 * m * m
    moved_any = False
    while True:
        moves = 0
        for v in rng.permutation(n).tolist():
            home = labels[v]
            links: dict[int, float] = {}
            for u, w in adj[v]:
                c = labels[u]
                links[c] = links.get(c, 0.0) + w
            k_home = links.pop(home, 0.0)
            kv = _RESOLUTION * k[v]
            tot_home = tot[home] - k[v]
            # -1 until a gain exceeds _MIN_GAIN: a gain equal to it moves nothing
            best_gain = _MIN_GAIN
            best_comm = -1
            for c, k_c in links.items():
                gain = (k_c - k_home) / m - kv * (tot[c] - tot_home) / two_m2
                if gain > best_gain or (gain == best_gain and c < best_comm):
                    best_gain = gain
                    best_comm = c
            if best_comm >= 0:
                labels[v] = best_comm
                tot[home] -= k[v]
                tot[best_comm] += k[v]
                moves += 1
        if moves == 0:
            return moved_any
        moved_any = True


def _aggregate_modularity(adj, loops, k, labels, m) -> float:
    """Modularity of ``labels``; a community adds its nodes' loops, then their inside links."""
    n = len(adj)
    sigma_in = [0.0] * n
    sigma_tot = [0.0] * n
    for v, lab in enumerate(labels):
        sigma_in[lab] += loops[v]
        sigma_tot[lab] += k[v]
    for v, lab in enumerate(labels):
        for u, w in adj[v]:
            if labels[u] == lab:
                sigma_in[lab] += w
    two_m = 2.0 * m
    q = 0.0
    for lab in dict.fromkeys(labels):
        q += sigma_in[lab] / two_m - _RESOLUTION * (sigma_tot[lab] / two_m) ** 2
    return q


def _contract(adj, loops, members, labels):
    """Contract communities to vertices; intra weight is doubled into loops."""
    ids = sorted(set(labels))
    remap = {lab: i for i, lab in enumerate(ids)}
    n_new = len(ids)
    new_adj: list[dict[int, float]] = [dict() for _ in range(n_new)]
    new_loops = [0.0] * n_new
    new_members: list[list[int]] = [[] for _ in range(n_new)]
    for v, lab in enumerate(labels):
        c = remap[lab]
        new_loops[c] += loops[v]
        new_members[c].extend(members[v])
    for v, lab in enumerate(labels):
        cv = remap[lab]
        for u, w in adj[v]:
            if u <= v:
                continue
            cu = remap[labels[u]]
            if cu == cv:
                new_loops[cv] += 2.0 * w
            else:
                new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
    for comm in new_members:
        comm.sort()
    return [list(links.items()) for links in new_adj], new_loops, new_members
