"""Independent reference energies for the benchmark, numpy only.

Nothing here imports ``dcreduce``. A problem is given as ``n`` and a map
from ascending variable-index tuples to coefficients; the empty tuple holds
the constant. The energy of a bit configuration is
``sum_S J(S) * prod_{j in S} (1 - 2 * b_j)``, the package's convention.

``ground_energy`` is exact min-sum variable elimination over the term
hypergraph with a greedy min-fill order; ``brute_force_energies`` scans all
2^n states and is the reference the tests hold it to.
"""

from __future__ import annotations

import numpy as np

# Largest factor scope the elimination builds (2^26 float64 = 512 MiB).
MAX_SCOPE = 26

# Largest problem brute_force_energies scans (2^24 float64 = 128 MiB).
MAX_BRUTE_FORCE_VARS = 24


def evaluate(terms: dict, bits) -> float:
    """Energy of one configuration, summed term by term."""
    total = 0.0
    for subset, coeff in terms.items():
        sign = 1
        for j in subset:
            if bits[j]:
                sign = -sign
        total += coeff * sign
    return total


def brute_force_energies(n: int, terms: dict) -> np.ndarray:
    """Energies of all 2^n states; state x sets variable j to bit j of x."""
    if n > MAX_BRUTE_FORCE_VARS:
        raise ValueError(f"brute force over {n} variables is too large")
    states = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(states.size)
    for subset, coeff in terms.items():
        sign = np.ones(states.size)
        for j in subset:
            sign *= 1.0 - 2.0 * ((states >> j) & 1)
        out += coeff * sign
    return out


def _term_factor(subset, coeff) -> np.ndarray:
    """Table of coeff * prod spins with one length-2 axis per variable."""
    table = np.array(float(coeff))
    for _ in subset:
        table = np.multiply.outer(table, np.array([1.0, -1.0]))
    return table


def _expand(scope, table, full_scope) -> np.ndarray:
    """View of a factor broadcastable over the sorted superset ``full_scope``."""
    members = set(scope)
    return table.reshape([2 if v in members else 1 for v in full_scope])


def _min_fill_order(n: int, scopes) -> list[int]:
    adj = [set() for _ in range(n)]
    for scope in scopes:
        for u in scope:
            adj[u].update(v for v in scope if v != u)
    remaining = set(range(n))
    order = []
    while remaining:
        best, best_key = -1, None
        for v in remaining:
            nbrs = list(adj[v])
            fill = 0
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    if b not in adj[a]:
                        fill += 1
            key = (fill, len(nbrs), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        nbrs = adj[best]
        for a in nbrs:
            adj[a].update(b for b in nbrs if b != a)
            adj[a].discard(best)
        remaining.discard(best)
        order.append(best)
    return order


def ground_energy(n: int, terms: dict) -> float:
    """Exact minimum energy by min-sum variable elimination."""
    constant = float(terms.get((), 0.0))
    factors = [(tuple(s), _term_factor(s, c)) for s, c in terms.items() if s]
    for v in _min_fill_order(n, [s for s, _ in factors]):
        bucket = [f for f in factors if v in f[0]]
        if not bucket:
            continue
        factors = [f for f in factors if v not in f[0]]
        scope = tuple(sorted({u for s, _ in bucket for u in s}))
        if len(scope) > MAX_SCOPE:
            raise MemoryError(f"elimination factor over {len(scope)} variables")
        combined = np.zeros([2] * len(scope))
        for s, table in bucket:
            combined = combined + _expand(s, table, scope)
        reduced = combined.min(axis=scope.index(v))
        rest = tuple(u for u in scope if u != v)
        if rest:
            factors.append((rest, reduced))
        else:
            constant += float(reduced)
    return constant
