"""Low-energy state re-encoding and the reduced optimization problem.

Each community's surviving states are written onto ceil(log2(d)) qubits in
energy order. The reduced problem is then a sum of per-community diagonal
energy tables and, for every set of communities jointly touched by
straddling terms, a diagonal coupling whose entries are the signed sums of
those terms evaluated on the decoded states. Small couplings materialize
into cached tables; large ones evaluate entry-wise straight from the term
structure, so only the entries a solver actually visits are ever computed.
A parity-basis polynomial conversion is available for consumers that need
operator form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce as functools_reduce
from itertools import combinations

import numpy as np

from .clustering import Partition, WeightedGraph
from .cutoff import EXACT_RANGE_VARS, CommunityDecomposition
from .errors import DimensionError, InternalError, ParameterError, ResourceError
from .hamiltonian import PolyHamiltonian, SpinConfig
from .optimizer import LocalSpectrum

# Refuse to materialize coupling tables beyond this entry count.
MAX_TABLE_ENTRIES = 1 << 26


@dataclass(frozen=True)
class EncodedCommunity:
    """Binary encoding of a community's retained states, energy-ordered.

    ``decode[mu]`` is the community bit string for reduced index ``mu``.
    Indices past the true dimension d are filled by repeating the lowest
    states (``mu mod d``) or, in penalty mode, flagged and priced at
    ``e0 + delta + p_pad`` in the energy table.
    """

    m_tilde: int
    decode: tuple[SpinConfig, ...]
    energies: tuple[float, ...]
    is_padded: tuple[bool, ...]
    padding_mode: str
    d: int
    n_local_vars: int

    @property
    def d_tilde(self) -> int:
        return 1 << self.m_tilde


def encode_community(
    spectrum: LocalSpectrum,
    padding_mode: str = "repeat",
    delta: float | None = None,
    p_pad: float | None = None,
) -> EncodedCommunity:
    """Encode a local spectrum on ceil(log2(d)) qubits (1 qubit when d = 1)."""
    if padding_mode not in ("repeat", "penalty"):
        raise ParameterError(f"unknown padding mode {padding_mode!r}")
    d = spectrum.d
    if d < 1:
        raise InternalError("cannot encode an empty spectrum")
    # ceil(log2(d)) in exact integer arithmetic; one qubit when d = 1
    m_tilde = max(1, (d - 1).bit_length())
    d_tilde = 1 << m_tilde
    width = delta if delta is not None else spectrum.window.width
    pad_energy = spectrum.e0 + width + (p_pad if p_pad is not None else width + 1.0)
    decode: list[SpinConfig] = []
    energies: list[float] = []
    padded: list[bool] = []
    for mu in range(d_tilde):
        config, energy = spectrum.states[mu % d]
        decode.append(config)
        if mu < d:
            energies.append(energy)
            padded.append(False)
        else:
            energies.append(energy if padding_mode == "repeat" else pad_energy)
            padded.append(True)
    return EncodedCommunity(
        m_tilde, tuple(decode), tuple(energies), tuple(padded),
        padding_mode, d, spectrum.n_vars,
    )


def term_sign_vector(subset, community_vars, decode) -> np.ndarray:
    """Per-index product of Z eigenvalues of a term restricted to one community.

    Entries are exactly +/-1: the term's sign contribution under each decoded
    state of the community.
    """
    position = {v: i for i, v in enumerate(community_vars)}
    cols = [position[v] for v in subset if v in position]
    arr = np.array(decode, dtype=np.int64)
    if not cols:
        return np.ones(arr.shape[0])
    spins = 1 - 2 * arr[:, cols]
    return np.prod(spins, axis=1).astype(np.float64)


class Coupling:
    """Diagonal inter-community coupling, evaluable entry-wise on demand.

    ``values`` gathers entries for aligned (broadcastable) index arrays
    without materializing anything; ``table`` materializes and caches the
    full tensor, which only the exhaustive paths and exact norms need.
    """

    def __init__(self, footprint, bound, shape):
        self.footprint = tuple(footprint)
        self.bound = float(bound)
        self.shape = tuple(shape)
        self._table: np.ndarray | None = None

    @property
    def can_materialize(self) -> bool:
        return math.prod(self.shape) <= MAX_TABLE_ENTRIES

    def values(self, idx_arrays) -> np.ndarray:
        if self._table is not None:
            return self._table[tuple(idx_arrays)]
        return self._values(idx_arrays)

    def table(self) -> np.ndarray:
        if self._table is None:
            _guard_table(self.shape)
            self._table = self._build_table()
        return self._table

    def _values(self, idx_arrays) -> np.ndarray:
        raise NotImplementedError

    def _build_table(self) -> np.ndarray:
        raise NotImplementedError


class TermCoupling(Coupling):
    """First-level coupling: signed sums of straddling terms.

    Per term and per footprint community, a +/-1 sign vector holds the
    term's Z product under every decoded state of that community.
    """

    def __init__(self, footprint, coeffs, sign_vectors):
        shape = tuple(vec.size for vec in sign_vectors[0])
        super().__init__(footprint, float(np.abs(np.asarray(coeffs)).sum()), shape)
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.sign_vectors = sign_vectors

    def _values(self, idx_arrays) -> np.ndarray:
        out = 0.0
        for coeff, vectors in zip(self.coeffs, self.sign_vectors):
            product = vectors[0][idx_arrays[0]]
            for axis in range(1, len(vectors)):
                product = product * vectors[axis][idx_arrays[axis]]
            out = out + coeff * product
        return out

    def _build_table(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for coeff, vectors in zip(self.coeffs, self.sign_vectors):
            out += coeff * functools_reduce(np.multiply.outer, vectors)
        return out


class ComposedCoupling(Coupling):
    """Iteration-level coupling: previous-level couplings composed through
    the new decode tables (one gather array per old footprint axis)."""

    def __init__(self, footprint, parts, shape):
        bound = sum(old.bound for old, _ in parts)
        super().__init__(footprint, bound, shape)
        self.parts = parts

    def _values(self, idx_arrays) -> np.ndarray:
        out = 0.0
        for old, gathers in self.parts:
            old_idx = [gather[idx_arrays[axis]] for axis, gather in gathers]
            out = out + old.values(old_idx)
        return out

    def _build_table(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rank = len(self.shape)
        for old, gathers in self.parts:
            old_idx = []
            for axis, gather in gathers:
                view = [1] * rank
                view[axis] = -1
                old_idx.append(gather.reshape(view))
            out = out + old.values(old_idx)
        return out


class _ArrayCoupling:
    """Materialized-table provider with the same lookup surface as Coupling."""

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray):
        self._table = table

    def values(self, idx_arrays) -> np.ndarray:
        return self._table[tuple(idx_arrays)]


# Tables at or below this entry count are materialized inside objectives
# for fast lookups; larger couplings stay entry-evaluated.
MATERIALIZE_ENTRIES = 1 << 22


class TableObjective:
    """Diagonal objective over the concatenated registers of some communities.

    Implements the optimizer's objective interface via table lookups; this
    is the default execution path for reduced problems. Couplings small
    enough to materialize are; the rest are evaluated entry-wise from their
    underlying structure. Annealing replicas are register-index arrays of
    shape (R, K), so the register may exceed 62 qubits.
    """

    def __init__(self, m_list, energy_tables, couplings):
        self.m_list = list(m_list)
        self.energy_tables = [np.asarray(t, dtype=np.float64) for t in energy_tables]
        self.couplings = []
        for pos, provider in couplings:
            if isinstance(provider, np.ndarray):
                provider = _ArrayCoupling(provider)
            elif isinstance(provider, Coupling) and math.prod(provider.shape) <= MATERIALIZE_ENTRIES:
                provider = _ArrayCoupling(provider.table())
            self.couplings.append((tuple(pos), provider))
        self.offsets = []
        off = 0
        for m in self.m_list:
            self.offsets.append(off)
            off += m
        self.n_vars = off
        self.qubit_register = np.repeat(np.arange(len(self.m_list)), self.m_list)
        self.qubit_weight = np.int64(1) << (
            np.arange(self.n_vars) - np.repeat(self.offsets, self.m_list)
        )
        self._gather = None

    def indices_of(self, states: np.ndarray) -> list[np.ndarray]:
        states = np.asarray(states, dtype=np.int64)
        return [
            ((states >> off) & ((1 << m) - 1))
            for off, m in zip(self.offsets, self.m_list)
        ]

    def energies_of(self, states: np.ndarray) -> np.ndarray:
        idx = self.indices_of(states)
        out = np.zeros(np.asarray(states).shape, dtype=np.float64)
        for k, table in enumerate(self.energy_tables):
            out += table[idx[k]]
        for pos, provider in self.couplings:
            out += provider.values([idx[p] for p in pos])
        return out

    def energy_of(self, bits_int: int) -> float:
        return float(self.energies_of(np.array([bits_int], dtype=np.int64))[0])

    def replicas(self, starts) -> np.ndarray:
        return np.array(
            [[(s >> off) & ((1 << m) - 1) for off, m in zip(self.offsets, self.m_list)]
             for s in starts],
            dtype=np.int64,
        )

    def flipped(self, idx: np.ndarray, q: np.ndarray) -> np.ndarray:
        out = idx.copy()
        out[np.arange(len(q)), self.qubit_register[q]] ^= self.qubit_weight[q]
        return out

    def replica_energies(self, idx: np.ndarray) -> np.ndarray:
        flat, strides, base, lazy = self._gather_plan()
        out = flat[idx @ strides + base].sum(axis=1)
        for pos, provider in lazy:
            out += provider.values([idx[:, p] for p in pos])
        return out

    def _gather_plan(self):
        """Every materialized table raveled into one flat array, with the
        per-register strides (K, T) and table offsets (T,) that turn an
        (R, K) index array into flat positions; plus the lazy couplings."""
        if self._gather is None:
            tables = [((k,), table) for k, table in enumerate(self.energy_tables)]
            lazy = []
            for pos, provider in self.couplings:
                if isinstance(provider, _ArrayCoupling):
                    tables.append((pos, np.ascontiguousarray(provider._table)))
                else:
                    lazy.append((pos, provider))
            strides = np.zeros((len(self.m_list), len(tables)), dtype=np.int64)
            base = np.zeros(len(tables), dtype=np.int64)
            offset = 0
            for t, (pos, table) in enumerate(tables):
                for p, stride in zip(pos, table.strides):
                    strides[p, t] = stride // table.itemsize
                base[t] = offset
                offset += table.size
            flat = np.concatenate([table.ravel() for _, table in tables])
            self._gather = (flat, strides, base, lazy)
        return self._gather


class ReducedProblem:
    """Per-community energy tables plus inter-community coupling tables."""

    def __init__(self, encodings, couplings, compute_chi: bool, n_chi: int):
        self.encodings: tuple[EncodedCommunity, ...] = tuple(encodings)
        self.couplings: dict[tuple[int, ...], Coupling] = dict(couplings)
        self.compute_chi = compute_chi
        self.n_chi = n_chi
        self.m_tildes = tuple(enc.m_tilde for enc in self.encodings)
        offsets = []
        off = 0
        for m in self.m_tildes:
            offsets.append(off)
            off += m
        self.offsets = tuple(offsets)
        self.total_qubits = off

    @property
    def n_communities(self) -> int:
        return len(self.encodings)

    def valid_indices(self, c: int) -> np.ndarray:
        enc = self.encodings[c]
        if enc.padding_mode == "penalty":
            return np.array(
                [i for i in range(enc.d_tilde) if not enc.is_padded[i]], dtype=np.intp
            )
        return np.arange(enc.d_tilde, dtype=np.intp)

    def coupling_table(self, footprint) -> np.ndarray:
        return self.couplings[tuple(footprint)].table()

    def j_tilde(self, footprint) -> float:
        """Edge weight for the contracted graph.

        With chi tables computed this is the exact diagonal operator norm
        (the largest |entry| over non-penalty indices); otherwise, or when
        the table is too large to materialize, the propagated sum-of-|J|
        bound.
        """
        coupling = self.couplings[tuple(footprint)]
        if not self.compute_chi or not coupling.can_materialize:
            return coupling.bound
        table = coupling.table()
        sub = table[np.ix_(*[self.valid_indices(c) for c in coupling.footprint])]
        return float(np.abs(sub).max())

    def energy_of_indices(self, idx) -> float:
        """Reduced energy of a joint index tuple (constant excluded)."""
        if len(idx) != self.n_communities:
            raise DimensionError("index tuple length must equal the community count")
        total = 0.0
        for c, enc in enumerate(self.encodings):
            total += enc.energies[idx[c]]
        for footprint, coupling in self.couplings.items():
            total += float(coupling.values(tuple(idx[c] for c in footprint)))
        return total

    def indices_from_bits(self, bits_int: int) -> tuple[int, ...]:
        return tuple(
            (bits_int >> off) & ((1 << m) - 1)
            for off, m in zip(self.offsets, self.m_tildes)
        )

    def local_objective(self, members) -> TableObjective:
        """Objective over the given communities: their energy tables plus
        every coupling whose footprint lies inside the member set."""
        members = tuple(sorted(members))
        member_pos = {c: k for k, c in enumerate(members)}
        tables = [self.encodings[c].energies for c in members]
        local = []
        for footprint, coupling in sorted(self.couplings.items()):
            if all(c in member_pos for c in footprint):
                local.append((tuple(member_pos[c] for c in footprint), coupling))
        return TableObjective([self.encodings[c].m_tilde for c in members], tables, local)

    def full_objective(self) -> TableObjective:
        return self.local_objective(range(self.n_communities))

    def contracted_graph(self) -> WeightedGraph:
        """One vertex per community; couplings contribute their j_tilde,
        clique-expanded with pair-count normalization for hyper-footprints.
        Vertex sizes carry the register widths for community-size caps."""
        edges: dict[tuple[int, int], float] = {}
        for footprint in sorted(self.couplings):
            weight = self.j_tilde(footprint)
            if weight == 0.0:
                continue
            if len(footprint) == 2:
                share, pairs = weight, [footprint]
            else:
                share = weight / math.comb(len(footprint), 2)
                pairs = combinations(footprint, 2)
            for u, v in pairs:
                edges[(u, v)] = edges.get((u, v), 0.0) + share
        return WeightedGraph(
            self.n_communities, edges, None, vertex_sizes=self.m_tildes
        )


def _guard_table(shape) -> None:
    entries = math.prod(shape)
    if entries > MAX_TABLE_ENTRIES:
        raise ResourceError(
            f"coupling table with {entries} entries exceeds the materialization cap; "
            "lower eta or cap the community size"
        )


def build_reduced(
    decomp: CommunityDecomposition, encodings, compute_chi: bool = True
) -> ReducedProblem:
    """Reduced problem of the first level, straight from straddling terms.

    Straddling terms with identical community footprints are merged by
    summing their signed contributions. With ``compute_chi`` the coupling
    tables that fit the materialization cap are built eagerly and the
    chi-entry count is recorded; otherwise only the sum-of-|J| bounds are
    produced up front and entries evaluate on demand.
    """
    encodings = tuple(encodings)
    if len(encodings) != decomp.n_communities:
        raise DimensionError("one encoding per community is required")
    groups: dict[tuple[int, ...], list] = {}
    for subset, coeff in decomp.straddling_terms.items():
        groups.setdefault(decomp.footprint(subset), []).append((subset, coeff))
    couplings = {}
    n_chi = 0
    for footprint in sorted(groups):
        terms = sorted(groups[footprint])
        sign_vectors = [
            [
                term_sign_vector(subset, decomp.community_vars[c], encodings[c].decode)
                for c in footprint
            ]
            for subset, _ in terms
        ]
        coupling = TermCoupling(footprint, [c for _, c in terms], sign_vectors)
        if compute_chi and coupling.can_materialize:
            n_chi += len(terms) * math.prod(coupling.shape)
            coupling.table()
        couplings[footprint] = coupling
    return ReducedProblem(encodings, couplings, compute_chi, n_chi)


# -- iteration levels ---------------------------------------------------------


@dataclass(frozen=True)
class ReducedDecomposition:
    """A reduced problem regrouped under a partition of its communities."""

    rp: ReducedProblem
    partition: Partition
    members: tuple[tuple[int, ...], ...]
    local_footprints: tuple[tuple[tuple[int, ...], ...], ...]
    straddling_footprints: tuple[tuple[int, ...], ...]
    straddle_by_super: tuple[tuple[tuple[int, ...], ...], ...]


def decompose_reduced(rp: ReducedProblem, p: Partition) -> ReducedDecomposition:
    if len(p.community_of) != rp.n_communities:
        raise DimensionError("partition must cover the reduced problem's communities")
    local: list[list] = [[] for _ in range(p.n_communities)]
    straddling: list = []
    straddle_by: list[list] = [[] for _ in range(p.n_communities)]
    for footprint in sorted(rp.couplings):
        supers = {p.community_of[c] for c in footprint}
        if len(supers) == 1:
            local[next(iter(supers))].append(footprint)
        else:
            straddling.append(footprint)
            for s in supers:
                straddle_by[s].append(footprint)
    return ReducedDecomposition(
        rp=rp,
        partition=p,
        members=tuple(tuple(c) for c in p.communities),
        local_footprints=tuple(tuple(f) for f in local),
        straddling_footprints=tuple(straddling),
        straddle_by_super=tuple(tuple(f) for f in straddle_by),
    )


def local_iteration_objective(rd: ReducedDecomposition, l: int) -> TableObjective:
    return rd.rp.local_objective(rd.members[l])


def iteration_delta(
    rd: ReducedDecomposition,
    l: int,
    quadratic: bool = True,
    exact_threshold: int = EXACT_RANGE_VARS,
) -> float:
    """Certified window width for a super-community at an iteration level.

    Quadratic parents carry their tighter cut-off through iterations: the
    sum of straddling coupling norms. Otherwise the exact eigenvalue range
    of the straddling couplings is enumerated when their joint register is
    small enough, falling back to twice the summed norms.
    """
    footprints = rd.straddle_by_super[l]
    if not footprints:
        return 0.0
    rp = rd.rp
    if quadratic:
        return float(sum(rp.j_tilde(fp) for fp in footprints))
    touched = sorted({c for fp in footprints for c in fp})
    if sum(rp.encodings[c].m_tilde for c in touched) <= exact_threshold:
        return _coupling_range(rp, footprints, touched)
    return 2.0 * float(sum(rp.j_tilde(fp) for fp in footprints))


def _coupling_range(rp: ReducedProblem, footprints, touched) -> float:
    """Range of the summed couplings over the valid joint states of the
    touched communities; each coupling is gathered on its own footprint
    through broadcast views and the partial sums broadcast together."""
    rank = len(touched)
    position = {c: i for i, c in enumerate(touched)}
    total = 0.0
    for footprint in footprints:
        idx = []
        for c in footprint:
            view = [1] * rank
            view[position[c]] = -1
            idx.append(rp.valid_indices(c).reshape(view))
        total = total + rp.couplings[tuple(footprint)].values(idx)
    return float(np.max(total) - np.min(total))


def build_reduced_iter(
    rd: ReducedDecomposition, encodings, compute_chi: bool = True
) -> ReducedProblem:
    """Next-level reduced problem: straddling couplings regrouped under the
    new communities and composed through the new decode tables."""
    encodings = tuple(encodings)
    if len(encodings) != rd.partition.n_communities:
        raise DimensionError("one encoding per super-community is required")
    rp = rd.rp
    groups: dict[tuple[int, ...], list] = {}
    for footprint in rd.straddling_footprints:
        new_fp = tuple(sorted({rd.partition.community_of[c] for c in footprint}))
        groups.setdefault(new_fp, []).append(footprint)
    couplings = {}
    n_chi = 0
    for new_fp in sorted(groups):
        old_fps = groups[new_fp]
        position = {l: i for i, l in enumerate(new_fp)}
        parts = []
        for footprint in old_fps:
            gathers = []
            for c in footprint:
                super_id = rd.partition.community_of[c]
                gathers.append(
                    (
                        position[super_id],
                        _member_index_array(
                            encodings[super_id], rd.members[super_id], rp, c
                        ),
                    )
                )
            parts.append((rp.couplings[footprint], gathers))
        shape = tuple(encodings[l].d_tilde for l in new_fp)
        coupling = ComposedCoupling(new_fp, parts, shape)
        if compute_chi and coupling.can_materialize:
            n_chi += len(old_fps) * math.prod(shape)
            coupling.table()
        couplings[new_fp] = coupling
    return ReducedProblem(encodings, couplings, compute_chi, n_chi)


def _member_index_array(enc: EncodedCommunity, member_ids, rp: ReducedProblem, target: int) -> np.ndarray:
    """Reduced index of old community ``target`` under each decode entry of
    the super-community encoding that contains it."""
    offset = 0
    for mid in member_ids:
        if mid == target:
            break
        offset += rp.encodings[mid].m_tilde
    m = rp.encodings[target].m_tilde
    arr = np.array(enc.decode, dtype=np.intp)
    out = np.zeros(arr.shape[0], dtype=np.intp)
    for r in range(m):
        out |= arr[:, offset + r] << r
    return out


# -- decode chain ---------------------------------------------------------------


@dataclass(frozen=True)
class ChainLevel:
    """Membership and encodings at one level of the hierarchy.

    At the first level ``membership[c]`` lists the original variables of
    community c (ascending); at later levels it lists the previous level's
    community ids grouped into super-community c.
    """

    membership: tuple[tuple[int, ...], ...]
    encodings: tuple[EncodedCommunity, ...]


@dataclass
class DecodeChain:
    """Stack of encodings mapping final reduced states back to variables."""

    n_vars: int
    levels: list[ChainLevel]

    def total_qubits(self, level: int = -1) -> int:
        return sum(enc.m_tilde for enc in self.levels[level].encodings)

    def decode_full(self, final_bits) -> SpinConfig:
        """Expand a final-level configuration into original variable bits."""
        if not self.levels:
            raise InternalError("decode chain has no levels")
        top = self.levels[-1]
        if isinstance(final_bits, int):
            bits_int = final_bits
        else:
            if len(final_bits) != self.total_qubits():
                raise InternalError("final configuration length does not match the last level")
            bits_int = sum(1 << i for i, b in enumerate(final_bits) if b)
        if bits_int >> self.total_qubits():
            raise InternalError("final configuration has bits beyond the last level's register")
        idx = []
        offset = 0
        for enc in top.encodings:
            idx.append((bits_int >> offset) & (enc.d_tilde - 1))
            offset += enc.m_tilde
        for level in range(len(self.levels) - 1, 0, -1):
            current = self.levels[level]
            previous = self.levels[level - 1]
            prev_idx = [0] * len(previous.encodings)
            for c, member_ids in enumerate(current.membership):
                bits = current.encodings[c].decode[idx[c]]
                off = 0
                for mid in member_ids:
                    m = previous.encodings[mid].m_tilde
                    value = 0
                    for r in range(m):
                        value |= bits[off + r] << r
                    prev_idx[mid] = value
                    off += m
            idx = prev_idx
        first = self.levels[0]
        out = [0] * self.n_vars
        for c, variables in enumerate(first.membership):
            decoded = first.encodings[c].decode[idx[c]]
            for pos, v in enumerate(variables):
                out[v] = decoded[pos]
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "levels": [
                {
                    "membership": [list(m) for m in level.membership],
                    "m_tilde": [enc.m_tilde for enc in level.encodings],
                    "d": [enc.d for enc in level.encodings],
                    "padding_mode": [enc.padding_mode for enc in level.encodings],
                    "decode": [
                        ["".join(str(b) for b in state) for state in enc.decode]
                        for enc in level.encodings
                    ],
                    "energies": [list(enc.energies) for enc in level.encodings],
                }
                for level in self.levels
            ],
        }


def decode_full(chain: DecodeChain, final_bits) -> SpinConfig:
    """Function form of :meth:`DecodeChain.decode_full`."""
    return chain.decode_full(final_bits)


def reduced_as_poly(rp: ReducedProblem, max_qubits: int = 24) -> PolyHamiltonian:
    """Parity-basis polynomial equal to the reduced problem's table lookups.

    Each energy table and each coupling footprint is converted blockwise;
    the result may contain products of Z on all active reduced qubits.
    """
    pieces: list[tuple[tuple[int, ...], float]] = []
    for c, enc in enumerate(rp.encodings):
        if enc.m_tilde > max_qubits:
            raise ResourceError(f"community register of {enc.m_tilde} qubits exceeds {max_qubits}")
        block = PolyHamiltonian.from_boolean_table(list(enc.energies))
        for subset, coeff in block.terms.items():
            pieces.append((tuple(rp.offsets[c] + j for j in subset), coeff))
    for footprint in sorted(rp.couplings):
        qubits = [
            rp.offsets[c] + r for c in footprint for r in range(rp.encodings[c].m_tilde)
        ]
        if len(qubits) > max_qubits:
            raise ResourceError(
                f"coupling footprint of {len(qubits)} qubits exceeds {max_qubits}"
            )
        table = rp.coupling_table(footprint)
        flat = np.transpose(table, axes=tuple(reversed(range(table.ndim)))).ravel()
        block = PolyHamiltonian.from_boolean_table(flat)
        for subset, coeff in block.terms.items():
            pieces.append((tuple(sorted(qubits[j] for j in subset)), coeff))
    return PolyHamiltonian.from_terms(rp.total_qubits, pieces)


def contracted_graph(rp: ReducedProblem) -> WeightedGraph:
    """Function form of :meth:`ReducedProblem.contracted_graph`."""
    return rp.contracted_graph()
