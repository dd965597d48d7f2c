"""Random graph families with uniform [-1, 1] weights, seeded and reproducible.

Topology is drawn first, then every edge receives an i.i.d. uniform weight
in sorted-edge order, so a (family, parameters, seed) triple pins the
instance exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .hamiltonian import PolyHamiltonian

# Every family with the parameters it reads.
_FAMILY_PARAMS = {
    "k_regular": ("k",),
    "erdos_renyi": ("m",),
    "barabasi_albert": ("m",),
    "ring_lattice": ("k",),
    "watts_strogatz": ("k", "p"),
}
_FAMILIES = tuple(_FAMILY_PARAMS)

_REGULAR_ATTEMPTS = 2000


@dataclass(frozen=True)
class GraphSpec:
    family: str
    n: int
    seed: int
    k: int | None = None
    m: int | None = None
    p: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}; choose from {_FAMILIES}")
        if self.n < 2:
            raise ParameterError("need at least two vertices")
        if self.seed < 0:
            raise ParameterError(f"instance seed must be non-negative, got {self.seed}")
        for name in ("k", "m", "p"):
            if getattr(self, name) is not None and name not in _FAMILY_PARAMS[self.family]:
                raise ParameterError(f"family {self.family!r} does not read parameter {name!r}")


def generate(spec: GraphSpec) -> PolyHamiltonian:
    """Pure-quadratic Hamiltonian for a random instance of the family."""
    rng = np.random.default_rng(spec.seed)
    if spec.family == "k_regular":
        edges = _k_regular(spec.n, _require(spec.k, "k"), rng)
    elif spec.family == "erdos_renyi":
        edges = _erdos_renyi(spec.n, _require(spec.m, "m"), rng)
    elif spec.family == "barabasi_albert":
        edges = _barabasi_albert(spec.n, _require(spec.m, "m"), rng)
    elif spec.family == "ring_lattice":
        edges = _ring_lattice(spec.n, _require(spec.k, "k"))
    else:
        edges = _watts_strogatz(spec.n, _require(spec.k, "k"), _require(spec.p, "p"), rng)
    ordered = sorted(edges)
    weights = rng.uniform(-1.0, 1.0, size=len(ordered))
    terms = {edge: float(w) for edge, w in zip(ordered, weights) if w != 0.0}
    return PolyHamiltonian(spec.n, terms)


def _require(value, name):
    if value is None:
        raise ParameterError(f"family parameter {name!r} is required")
    return value


def _k_regular(n, k, rng):
    """Fixed-degree-sequence pairing with rejection of loops and multi-edges
    (the sampling is therefore not uniform over k-regular graphs)."""
    if k < 1 or k >= n:
        raise ParameterError(f"k-regular needs 1 <= k < n, got k={k}, n={n}")
    if (k * n) % 2:
        raise ParameterError(f"k * n must be even, got k={k}, n={n}")
    stubs = np.repeat(np.arange(n), k)
    for _ in range(_REGULAR_ATTEMPTS):
        perm = rng.permutation(stubs)
        edges = set()
        ok = True
        for i in range(0, perm.size, 2):
            u, v = int(perm[i]), int(perm[i + 1])
            if u == v:
                ok = False
                break
            edge = (min(u, v), max(u, v))
            if edge in edges:
                ok = False
                break
            edges.add(edge)
        if ok:
            return edges
    raise ParameterError(f"could not sample a simple {k}-regular graph on {n} vertices")


def _erdos_renyi(n, m, rng):
    """Uniform over simple graphs with exactly m edges."""
    all_pairs = n * (n - 1) // 2
    if not 0 <= m <= all_pairs:
        raise ParameterError(f"edge count {m} outside [0, {all_pairs}]")
    chosen = rng.choice(all_pairs, size=m, replace=False)
    edges = set()
    for code in chosen:
        u, v = _pair_from_code(int(code), n)
        edges.add((u, v))
    return edges


def _pair_from_code(code, n):
    # Row-major enumeration of pairs (u, v) with u < v.
    u = 0
    row = n - 1
    while code >= row:
        code -= row
        u += 1
        row -= 1
    return u, u + 1 + code


def _barabasi_albert(n, m, rng):
    """Preferential attachment from an edgeless nucleus of m vertices.

    Each arriving vertex attaches to m distinct existing vertices sampled
    proportionally to degree + 1 (the smoothing lets the nucleus seed).
    """
    if m < 1 or m >= n:
        raise ParameterError(f"Barabasi-Albert needs 1 <= m < n, got m={m}, n={n}")
    degree = np.zeros(n, dtype=np.int64)
    edges = set()
    for new in range(m, n):
        weights = degree[:new].astype(np.float64) + 1.0
        targets: list[int] = []
        for _ in range(m):
            probs = weights / weights.sum()
            t = int(rng.choice(new, p=probs))
            targets.append(t)
            weights[t] = 0.0
        for t in targets:
            edges.add((min(t, new), max(t, new)))
            degree[t] += 1
            degree[new] += 1
    return edges


def _ring_lattice(n, k):
    """Circle with each vertex tied to its k nearest neighbors (k even)."""
    if k < 2 or k % 2:
        raise ParameterError(f"ring lattice needs even k >= 2, got {k}")
    if k >= n:
        raise ParameterError(f"ring lattice needs k < n, got k={k}, n={n}")
    edges = set()
    for i in range(n):
        for r in range(1, k // 2 + 1):
            j = (i + r) % n
            edges.add((min(i, j), max(i, j)))
    return edges


def _watts_strogatz(n, k, p, rng):
    """Ring lattice with clockwise rewiring at probability p; self-loops and
    duplicate edges are avoided by redrawing."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"rewiring probability must lie in [0, 1], got {p}")
    edges = _ring_lattice(n, k)
    for r in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + r) % n
            edge = (min(i, j), max(i, j))
            if edge not in edges:
                continue
            if rng.random() >= p:
                continue
            candidates = [
                t for t in range(n)
                if t != i and (min(i, t), max(i, t)) not in edges
            ]
            if not candidates:
                continue
            t = int(candidates[rng.integers(0, len(candidates))])
            edges.remove(edge)
            edges.add((min(i, t), max(i, t)))
    return edges


@dataclass(frozen=True)
class FamilyConfig:
    """One experiment-legend entry: a family with its size-dependent parameters."""

    label: str
    degree_class: int
    family: str
    k: int | None = None
    p: float | None = None
    m_fixed: int | None = None
    m_factor: float | None = None

    def spec_for(self, n: int, seed: int) -> GraphSpec:
        m = self.m_fixed
        if self.m_factor is not None:
            m = math.floor(self.m_factor * n)
        return GraphSpec(self.family, n, seed, k=self.k, m=m, p=self.p)


def family_matrix() -> tuple[FamilyConfig, ...]:
    """The benchmark legend: all family/parameter pairs used by the sweeps,
    tagged by underlying average degree."""
    return (
        FamilyConfig("er_n", 2, "erdos_renyi", m_factor=1.0),
        FamilyConfig("er_3n2", 3, "erdos_renyi", m_factor=1.5),
        FamilyConfig("er_2n", 4, "erdos_renyi", m_factor=2.0),
        FamilyConfig("3reg", 3, "k_regular", k=3),
        FamilyConfig("ba_m1", 2, "barabasi_albert", m_fixed=1),
        FamilyConfig("ba_m2", 4, "barabasi_albert", m_fixed=2),
        FamilyConfig("ring_k2", 2, "ring_lattice", k=2),
        FamilyConfig("ring_k4", 4, "ring_lattice", k=4),
        FamilyConfig("ws_k2", 2, "watts_strogatz", k=2, p=0.3),
        FamilyConfig("ws_k4", 4, "watts_strogatz", k=4, p=0.3),
    )


def family_by_label(label: str) -> FamilyConfig:
    for entry in family_matrix():
        if entry.label == label:
            return entry
    raise ParameterError(
        f"unknown family label {label!r}; choose from "
        f"{[e.label for e in family_matrix()]}"
    )


_SPEC_ALIASES = {
    "er": "erdos_renyi",
    "kreg": "k_regular",
    "ba": "barabasi_albert",
    "ring": "ring_lattice",
    "ws": "watts_strogatz",
}

# Spec keys; every one but the rewiring probability p is an integer.
_SPEC_KEYS = ("n", "seed", "k", "m", "p")


def parse_spec_string(text: str) -> GraphSpec:
    """Parse CLI instance strings like ``3reg:n=40:seed=7`` or
    ``ws:k=4:p=0.3:n=24:seed=1``.

    Keys other than ``_SPEC_KEYS``, and a non-integral value of a key other
    than ``p``, raise ParameterError naming the key.
    """
    parts = text.split(":")
    head = parts[0].strip().lower()
    fields: dict[str, float] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ParameterError(f"spec segment {part!r} is not key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise ParameterError(f"unknown spec key {key!r}; choose from {_SPEC_KEYS}")
        try:
            number = float(value)
        except ValueError as exc:
            raise ParameterError(f"spec value {value!r} is not numeric") from exc
        if key != "p" and not number.is_integer():
            raise ParameterError(f"spec key {key!r} takes an integer, got {value.strip()!r}")
        fields[key] = number if key == "p" else int(number)
    if head == "3reg":
        family = "k_regular"
        if fields.setdefault("k", 3) != 3:
            raise ParameterError(f"3reg has k=3, got k={fields['k']}; use kreg for another degree")
    elif head in _SPEC_ALIASES:
        family = _SPEC_ALIASES[head]
    elif head in _FAMILIES:
        family = head
    else:
        raise ParameterError(f"unknown family token {head!r}")
    if "n" not in fields:
        raise ParameterError("spec string must set n")
    return GraphSpec(
        family, fields["n"], fields.get("seed", 0), k=fields.get("k"), m=fields.get("m"), p=fields.get("p")
    )
