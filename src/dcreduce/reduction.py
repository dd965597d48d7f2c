"""Low-energy state re-encoding and the reduced optimization problem.

Each community's surviving states are written onto ceil(log2(d)) qubits in
energy order; its decode table is the int64 array of their packed states,
from which the registers of the level below are read with shifts. The
reduced problem is then a sum of per-community diagonal energy tables and,
for every set of communities jointly touched by straddling couplings, a
diagonal coupling table.

The input Hamiltonian is the trivial case of this encoding, level 0: every
variable is its own 1-qubit register with decode ``[0, 1]`` and energies
``[field, -field]``, and every multi-variable term is a coupling
whose table is its coefficient times the outer product of the Z eigenvalues
``(1, -1)``. Every level, the first included, regroups the previous level's
straddling couplings under a partition of its communities and composes
them through the new decode tables. Small couplings materialize into
cached tables; large ones evaluate entry-wise through the composition, so
only the entries a solver actually visits are ever computed. A table is
composed in blocks of leading rows: each part's old table is gathered onto
the new axes with one ``np.take`` per axis and added in place, in part
order, so every entry equals its entry-wise value bit for bit. A
parity-basis polynomial conversion is available for consumers that need
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
from .hamiltonian import (
    MAX_PACKED_VARS, MAX_TABLE_VARS, SLAB_ENTRIES, PolyHamiltonian, SpinConfig, readonly_array,
)
from .optimizer import LocalSpectrum

# Refuse to materialize coupling tables beyond this entry count.
MAX_TABLE_ENTRIES = 1 << 26


@dataclass(frozen=True, eq=False)
class EncodedCommunity:
    """Binary encoding of a community's retained states, energy-ordered.

    ``decode[mu]`` is the packed community state (local variable j on bit j)
    for reduced index ``mu``, and ``energies[mu]`` its energy-table entry;
    both are read-only arrays of length ``d_tilde``. Indices past the true
    dimension d are padded: they decode to ``decode[mu % d]`` and repeat
    its energy or, in penalty mode, are priced at ``e0 + delta + (delta + 1)``.
    """

    m_tilde: int
    decode: np.ndarray
    energies: np.ndarray
    padding_mode: str
    d: int
    n_local_vars: int

    def __post_init__(self):
        object.__setattr__(self, "decode", readonly_array(self.decode, np.int64))
        object.__setattr__(self, "energies", readonly_array(self.energies, np.float64))

    @property
    def d_tilde(self) -> int:
        return 1 << self.m_tilde

    @property
    def is_padded(self) -> np.ndarray:
        return np.arange(self.d_tilde) >= self.d


def encode_community(
    spectrum: LocalSpectrum, padding_mode: str = "repeat", delta: float | None = None
) -> EncodedCommunity:
    """Encode a local spectrum on ceil(log2(d)) qubits (1 qubit when d = 1).

    Reduced index ``mu`` takes the spectrum's state ``mu % d``, so the
    decode and energy tables are one gather of its packed states and their
    energies; penalty padding then overwrites the padded energies with
    ``e0 + width + (width + 1)``, width being ``delta`` or the window's.
    """
    if padding_mode not in ("repeat", "penalty"):
        raise ParameterError(f"unknown padding mode {padding_mode!r}")
    d = spectrum.d
    if d < 1:
        raise InternalError("cannot encode an empty spectrum")
    # ceil(log2(d)) in exact integer arithmetic; one qubit when d = 1
    m_tilde = max(1, (d - 1).bit_length())
    source = np.arange(1 << m_tilde) % d
    energies = spectrum.energies[source]
    if padding_mode == "penalty":
        width = delta if delta is not None else spectrum.window.width
        energies[d:] = spectrum.e0 + width + (width + 1.0)
    return EncodedCommunity(
        m_tilde, spectrum.packed[source], energies, padding_mode, d, spectrum.n_vars
    )


# Z eigenvalues of bit 0 and bit 1: one axis of a level-0 coupling table.
_SPINS = np.array([1.0, -1.0])


class Coupling:
    """Diagonal coupling among the registers of some communities (its
    footprint, the key it is stored under in ``ReducedProblem.couplings``).

    A coupling either holds a given table or is composed of ``parts``:
    ``(old coupling, gathers)`` pairs, one per coupling of the level below,
    where each gather ``(axis, index array)`` maps this coupling's index on
    ``axis`` to the old coupling's index on the matching old axis through
    the new decode table. Level-0 couplings hold ``coeff`` times the outer
    product of ``(1, -1)``; every later coupling, the first level's
    included, is composed. ``values`` gathers entries for aligned
    (broadcastable) index arrays without materializing anything; ``table``
    materializes and caches the full tensor, which only the exhaustive
    paths and exact norms need. It adds the parts onto one zero table in
    part order, about ``SLAB_ENTRIES`` entries of leading rows at a time:
    a materialized old table is gathered with ``np.take`` along each axis
    (old axes on one new axis merged first), any other through ``values``
    on the block's open grid. ``bound`` is the propagated sum of |coeff|:
    the largest |entry| of a given table, the sum of the parts' bounds for
    a composed coupling.
    """

    def __init__(self, shape, table=None, parts=()):
        self.shape = tuple(shape)
        self.parts = tuple(parts)
        self._table = table
        if table is None:
            self.bound = float(sum(old.bound for old, _ in self.parts))
        else:
            self.bound = float(np.abs(table).max())

    @property
    def can_materialize(self) -> bool:
        return math.prod(self.shape) <= MAX_TABLE_ENTRIES

    def values(self, idx_arrays) -> np.ndarray:
        if self._table is not None:
            return self._table[tuple(idx_arrays)]
        out = 0.0
        for old, gathers in self.parts:
            old_idx = [gather[idx_arrays[axis]] for axis, gather in gathers]
            out = out + old.values(old_idx)
        return out

    def table(self) -> np.ndarray:
        if self._table is None:
            _guard_table(self.shape)
            self._table = self._compose()
        return self._table

    def _compose(self) -> np.ndarray:
        """The parts added in order onto one zero table, so each entry is
        the sum ``values`` forms for it. Parts that vary along axis 0 are
        added a block of about ``SLAB_ENTRIES`` leading rows at a time."""
        out = np.zeros(self.shape)
        rows = max(1, SLAB_ENTRIES // math.prod(self.shape[1:]))
        for old, gathers in self.parts:
            if old._table is None:
                for r0 in range(0, self.shape[0], rows):
                    grids = np.ix_(np.arange(r0, min(r0 + rows, self.shape[0])),
                                   *map(np.arange, self.shape[1:]))
                    out[r0:r0 + rows] += old.values([g[grids[axis]] for axis, g in gathers])
                continue
            gathered, row_of = _gather_part(old._table, gathers, len(self.shape))
            if row_of is None:
                out += gathered
                continue
            for r0 in range(0, self.shape[0], rows):
                out[r0:r0 + rows] += gathered.take(row_of[r0:r0 + rows], axis=0)
        return out


def _gather_part(table: np.ndarray, gathers, ndim: int):
    """One part's old table gathered onto every new axis but axis 0, which
    keeps old rows: all of them, or only the used ones when they outnumber
    the new rows, so the result is never larger than the new table.

    The old table is transposed so that old axes mapping to the same new
    axis are adjacent, and those axes are merged (their gathers through
    ``ravel_multi_index``). Each new axis is then gathered with one
    ``np.take``; new axes the part does not touch get length 1. Returns the
    gathered array and, per new row, its row in that array (None when the
    part does not touch axis 0 and broadcasts along it).
    """
    order = sorted(range(len(gathers)), key=lambda i: gathers[i][0])
    merged: dict[int, list[int]] = {}
    for i in order:
        merged.setdefault(gathers[i][0], []).append(i)
    out = table.transpose(order).reshape(
        [math.prod(table.shape[i] for i in olds) for olds in merged.values()]
    )
    row_of = None
    for j, (axis, olds) in enumerate(merged.items()):
        if len(olds) == 1:
            gather = gathers[olds[0]][1]
        else:
            gather = np.ravel_multi_index([gathers[i][1] for i in olds],
                                          [table.shape[i] for i in olds])
        if axis == 0:
            if out.shape[0] <= gather.size:
                row_of = gather
                continue
            gather, row_of = np.unique(gather, return_inverse=True)
        out = out.take(gather, axis=j)
    if len(merged) < ndim:
        out = out[tuple(slice(None) if a in merged else None for a in range(ndim))]
    return out, row_of


# Tables at or below this entry count are materialized inside objectives
# for fast lookups; larger couplings stay entry-evaluated.
MATERIALIZE_ENTRIES = 1 << 22


def _gathered_flat(coupling: Coupling) -> bool:
    return math.prod(coupling.shape) <= MATERIALIZE_ENTRIES


class TableObjective:
    """Diagonal objective over the concatenated registers of some communities.

    Implements the optimizer's objective interface via table lookups; this
    is the default execution path for reduced problems. Couplings small
    enough to materialize are, into one flat gather array; the rest are
    evaluated entry-wise from their underlying structure. Plain ndarray
    couplings are wrapped as given-table couplings. Annealing replicas are
    register-index arrays of shape (R, K), so the register may exceed 62
    qubits.
    """

    def __init__(self, m_list, energy_tables, couplings):
        self.m_list = list(m_list)
        self.energy_tables = [np.asarray(t, dtype=np.float64) for t in energy_tables]
        self.couplings = []
        for pos, coupling in couplings:
            if isinstance(coupling, np.ndarray):
                coupling = Coupling(coupling.shape, table=coupling)
            if _gathered_flat(coupling):
                coupling.table()
            self.couplings.append((tuple(pos), coupling))
        self.offsets = []
        off = 0
        for m in self.m_list:
            self.offsets.append(off)
            off += m
        self.n_vars = off
        self.replica_terms = len(self.energy_tables) + len(self.couplings)
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
        for pos, coupling in self.couplings:
            out += coupling.values([idx[p] for p in pos])
        return out

    def energy_of(self, bits_int: int) -> float:
        return float(self.energies_of(np.array([bits_int], dtype=np.int64))[0])

    def scan_chunks(self):
        """Energies of all packed states in index order, as (first state,
        energies) slabs of up to ``SLAB_ENTRIES`` consecutive states.

        The states form the product grid of the registers, register k on
        axis K-1-k, so a grid point's C-order flat index is its packed
        state. A slab fixes the registers above its low bits, may cut inside
        one register's axis, and spans the ones below. Every energy table,
        then every coupling, is broadcast-added onto zeros in the order of
        ``energies_of``, so each entry is bit-identical to it. Materialized
        tables are read through slices; other couplings through ``values``
        on broadcast ``arange`` views of the slab.
        """
        total = 1 << self.n_vars
        size = min(SLAB_ENTRIES, total)
        low = size.bit_length() - 1
        # bits of registers 0 .. ndim-1 that vary inside one slab
        widths = [min(m, low - off) for off, m in zip(self.offsets, self.m_list) if off < low]
        ndim = len(widths)
        terms = [((k,), table) for k, table in enumerate(self.energy_tables)]
        terms += [(pos, c if c._table is None else c._table) for pos, c in self.couplings]
        plans = []
        for pos, term in terms:
            if isinstance(term, Coupling):
                plans.append((term, pos))
                continue
            # Axes in descending register order: the fixed registers, then
            # the slab's axes in order, with None for a slab axis not in pos.
            order = sorted(range(len(pos)), key=lambda i: -pos[i])
            slots = [pos[i] for i in order if pos[i] >= ndim]
            slots += [ndim - 1 - a if ndim - 1 - a in pos else None for a in range(ndim)]
            plans.append((term.transpose(order), slots))
        lazy = any(isinstance(term, Coupling) for term, _ in plans)
        for start in range(0, total, size):
            first = [int(i) for i in self.indices_of(start)]
            select = [slice(first[k], first[k] + (1 << w)) for k, w in enumerate(widths)]
            if lazy:
                grids = [
                    np.arange(s.start, s.stop).reshape([-1 if a == ndim - 1 - k else 1 for a in range(ndim)])
                    for k, s in enumerate(select)
                ] + first[ndim:]
            select += first[ndim:]
            out = np.zeros([1 << w for w in reversed(widths)])
            for term, slots in plans:
                if isinstance(term, Coupling):
                    out += term.values([grids[p] for p in slots])
                else:
                    out += term[tuple(None if r is None else select[r] for r in slots)]
            yield start, out.ravel()

    def replicas(self, starts) -> np.ndarray:
        if self.n_vars <= MAX_PACKED_VARS:
            return np.stack(self.indices_of(starts), axis=1)
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
        for pos, coupling in lazy:
            out += coupling.values([idx[:, p] for p in pos])
        return out

    def _gather_plan(self):
        """Every materialized table raveled into one flat array, with the
        per-register strides (K, T) and table offsets (T,) that turn an
        (R, K) index array into flat positions; plus the lazy couplings."""
        if self._gather is None:
            tables = [((k,), table) for k, table in enumerate(self.energy_tables)]
            lazy = []
            for pos, coupling in self.couplings:
                if _gathered_flat(coupling):
                    tables.append((pos, np.ascontiguousarray(coupling.table())))
                else:
                    lazy.append((pos, coupling))
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

    @classmethod
    def from_hamiltonian(cls, h: PolyHamiltonian) -> ReducedProblem:
        """Level 0: the input as the trivial encoding of itself.

        Variable v is a 1-qubit identity register with energies
        ``(field, -field)``; each multi-variable term is a coupling on its
        own variables, whose table is the term's truth table and so falls
        under the truth-table cap. The constant is left out, as at every
        level.
        """
        fields = [0.0] * h.n_vars
        couplings = {}
        signs = {}
        for subset, coeff in h.terms.items():
            if len(subset) == 1:
                fields[subset[0]] = coeff
            elif len(subset) > MAX_TABLE_VARS:
                raise ResourceError(
                    f"term over {len(subset)} variables exceeds the "
                    f"{MAX_TABLE_VARS}-variable truth-table cap"
                )
            elif subset:
                if len(subset) not in signs:
                    signs[len(subset)] = functools_reduce(np.multiply.outer, [_SPINS] * len(subset))
                table = coeff * signs[len(subset)]
                couplings[subset] = Coupling(table.shape, table=table)
        encodings = [EncodedCommunity(1, [0, 1], [f, -f], "repeat", 2, 1) for f in fields]
        return cls(encodings, couplings, True, 0)

    @property
    def n_communities(self) -> int:
        return len(self.encodings)

    def coupling_table(self, footprint) -> np.ndarray:
        return self.couplings[tuple(footprint)].table()

    def j_tilde(self, footprint) -> float:
        """Edge weight for the contracted graph.

        With chi tables computed this is the exact diagonal operator norm,
        the largest |entry| (padded indices repeat the entries of valid
        ones, since they decode to ``decode[mu % d]``); otherwise, or when
        the table is too large to materialize, the propagated sum-of-|J|
        bound.
        """
        coupling = self.couplings[tuple(footprint)]
        if not self.compute_chi or not coupling.can_materialize:
            return coupling.bound
        table = coupling.table()
        return float(max(table.max(), -table.min()))  # no |table| temporary

    def energy_of_indices(self, idx) -> float:
        """Reduced energy of a joint index tuple (constant excluded)."""
        if len(idx) != self.n_communities:
            raise DimensionError("index tuple length must equal the community count")
        total = 0.0
        for c, enc in enumerate(self.encodings):
            total += float(enc.energies[idx[c]])
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
    """Reduced problem of the first level: the input's level-0 problem
    regrouped under the decomposition's partition and composed through the
    first-level encodings, exactly as every later level is built."""
    level0 = ReducedProblem.from_hamiltonian(decomp.h)
    return build_reduced_iter(
        decompose_reduced(level0, decomp.partition), encodings, compute_chi
    )


# -- iteration levels ---------------------------------------------------------


@dataclass(frozen=True)
class ReducedDecomposition:
    """A reduced problem regrouped under a partition of its communities."""

    rp: ReducedProblem
    partition: Partition
    members: tuple[tuple[int, ...], ...]
    straddling_footprints: tuple[tuple[int, ...], ...]
    straddle_by_super: tuple[tuple[tuple[int, ...], ...], ...]


def decompose_reduced(rp: ReducedProblem, p: Partition) -> ReducedDecomposition:
    if len(p.community_of) != rp.n_communities:
        raise DimensionError("partition must cover the reduced problem's communities")
    straddling: list = []
    straddle_by: list[list] = [[] for _ in range(p.n_communities)]
    for footprint in sorted(rp.couplings):
        supers = {p.community_of[c] for c in footprint}
        if len(supers) > 1:
            straddling.append(footprint)
            for s in supers:
                straddle_by[s].append(footprint)
    return ReducedDecomposition(
        rp=rp,
        partition=p,
        members=tuple(tuple(c) for c in p.communities),
        straddling_footprints=tuple(straddling),
        straddle_by_super=tuple(tuple(f) for f in straddle_by),
    )


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
    """Range of the summed couplings over the joint states of the touched
    communities; each coupling is gathered on its own footprint through
    broadcast views and the partial sums broadcast together. Padded indices
    repeat valid entries, so they leave the range unchanged."""
    grids = np.ix_(*[np.arange(rp.encodings[c].d_tilde) for c in touched])
    axis = {c: i for i, c in enumerate(touched)}
    total = 0.0
    for footprint in footprints:
        coupling = rp.couplings[tuple(footprint)]
        total = total + coupling.values([grids[axis[c]] for c in footprint])
    return float(np.max(total) - np.min(total))


def build_reduced_iter(
    rd: ReducedDecomposition, encodings, compute_chi: bool = True
) -> ReducedProblem:
    """Next-level reduced problem: straddling couplings regrouped under the
    new communities and composed through the new decode tables.

    With ``compute_chi`` the coupling tables that fit the materialization
    cap are built eagerly and their chi-entry count (entries times old
    couplings) is recorded; otherwise entries evaluate on demand.
    """
    encodings = tuple(encodings)
    if len(encodings) != rd.partition.n_communities:
        raise DimensionError("one encoding per super-community is required")
    community_of = rd.partition.community_of
    gathers = _member_gathers(rd, encodings)
    groups: dict[tuple[int, ...], list] = {}
    for footprint in rd.straddling_footprints:
        new_fp = tuple(sorted({community_of[c] for c in footprint}))
        groups.setdefault(new_fp, []).append(footprint)
    couplings = {}
    n_chi = 0
    for new_fp in sorted(groups):
        axis = {l: i for i, l in enumerate(new_fp)}
        parts = [
            (rd.rp.couplings[fp], [(axis[community_of[c]], gathers[c]) for c in fp])
            for fp in groups[new_fp]
        ]
        shape = tuple(encodings[l].d_tilde for l in new_fp)
        coupling = Coupling(shape, parts=parts)
        if compute_chi and coupling.can_materialize:
            n_chi += len(parts) * math.prod(shape)
            coupling.table()
        couplings[new_fp] = coupling
    return ReducedProblem(encodings, couplings, compute_chi, n_chi)


def _split_registers(states, groups, widths) -> list:
    """Register of every member out of packed states: ``states[g]`` holds
    the registers of the members ``groups[g]`` in order from bit 0, member
    ``c`` on ``widths[c]`` bits. A state is an int or an int64 array."""
    out = [0] * len(widths)
    for state, members in zip(states, groups):
        offset = 0
        for c in members:
            out[c] = (state >> offset) & ((1 << widths[c]) - 1)
            offset += widths[c]
    return out


def _member_gathers(rd: ReducedDecomposition, encodings) -> list[np.ndarray]:
    """Reduced index of every old community under each decode entry of the
    super-community encoding that contains it."""
    widths = [enc.m_tilde for enc in rd.rp.encodings]
    return _split_registers([enc.decode for enc in encodings], rd.members, widths)


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

    def decode_full(self, bits_int: int) -> SpinConfig:
        """Expand a packed final-level state into original variable bits.

        The final state packs the top level's registers as a decode entry
        packs its members' registers (one bit per variable at the first
        level), so each level is one ``_split_registers``.
        """
        if not self.levels:
            raise InternalError("decode chain has no levels")
        if bits_int >> self.total_qubits():
            raise InternalError("final configuration has bits beyond the last level's register")
        top = self.levels[-1].encodings
        idx = _split_registers([bits_int], [range(len(top))], [enc.m_tilde for enc in top])
        for depth in range(len(self.levels) - 1, -1, -1):
            level = self.levels[depth]
            if depth:
                widths = [enc.m_tilde for enc in self.levels[depth - 1].encodings]
            else:
                widths = [1] * self.n_vars
            states = [int(enc.decode[i]) for enc, i in zip(level.encodings, idx)]
            idx = _split_registers(states, level.membership, widths)
        return tuple(idx)

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
                        [format(state, f"0{enc.n_local_vars}b")[::-1] for state in enc.decode.tolist()]
                        for enc in level.encodings
                    ],
                    "energies": [enc.energies.tolist() for enc in level.encodings],
                }
                for level in self.levels
            ],
        }


def reduced_as_poly(rp: ReducedProblem, max_qubits: int = 24) -> PolyHamiltonian:
    """Parity-basis polynomial equal to the reduced problem's table lookups.

    Each energy table and each coupling footprint is converted blockwise;
    the result may contain products of Z on all active reduced qubits.
    """
    pieces: list[tuple[tuple[int, ...], float]] = []
    for c, enc in enumerate(rp.encodings):
        if enc.m_tilde > max_qubits:
            raise ResourceError(f"community register of {enc.m_tilde} qubits exceeds {max_qubits}")
        block = PolyHamiltonian.from_boolean_table(enc.energies)
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

