"""Low-energy state re-encoding and the reduced optimization problem.

Each community's surviving states are written onto ceil(log2(d)) qubits in
energy order; its decode table is the int64 array of their packed states,
from which the registers of the level below are read with shifts. The
reduced problem is then a sum of per-community diagonal energy tables and,
for every set of communities jointly touched by straddling terms, a
diagonal coupling.

A coupling is held in one form at every level: the coefficients of the
level-0 terms it carries, and per axis one sign feature per term, the
parity of the term's variables inside that register at each index, packed
16 terms to a uint16 word. The input Hamiltonian is level 0 of this
encoding: every variable is its own 1-qubit register with decode ``[0, 1]``
and energies ``[field, -field]``, and every multi-variable term a one-term
coupling whose feature on each axis is the variable's bit. Every level, the
first included, decomposes the previous level under a partition of its
communities, bounds each new community's window by the couplings that
straddle it, replaces each padded alias in the window by its twin and drops
the states another retained state beats under every boundary
(``prune_dominated``), and carries the straddling
couplings' terms onto the new registers: each old feature is gathered
through the new decode tables and XORed with the features of the term's
other members inside the same new register. An entry sums its terms in one
fixed order, a word at a time through a table of the word's signed sums,
so a table equals the entry-wise value bit for bit. A coupling of at most
``MATERIALIZE_ENTRIES`` (2^22) entries, the one table cap, builds and
caches its table on its first read; a larger one evaluates entry-wise, so
only the entries a solver actually visits are ever computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce as functools_reduce
from itertools import accumulate, combinations

import numpy as np

from .clustering import Partition, WeightedGraph
from .errors import DimensionError, DomainError, InternalError, ResourceError
from .hamiltonian import (
    SLAB_ENTRIES, PolyHamiltonian, SpinConfig, column_sums, readonly_array,
)
from .optimizer import LocalSpectrum

# The one coupling-table cap: couplings of at most this many entries build
# their table on first read; larger ones are only ever read entry-wise, and
# ``Coupling.table`` refuses them.
MATERIALIZE_ENTRIES = 1 << 22


@dataclass(frozen=True, eq=False)
class EncodedCommunity:
    """Binary encoding of a community's retained states, energy-ordered.

    ``decode[mu]`` is the packed community state (local variable j on bit j)
    for reduced index ``mu``, and ``energies[mu]`` its energy-table entry;
    both are read-only arrays of length ``d_tilde``. Indices past the true
    dimension d are padded: each repeats index ``mu % d``, its state and its
    energy.
    """

    m_tilde: int
    decode: np.ndarray
    energies: np.ndarray
    d: int
    n_local_vars: int

    def __post_init__(self):
        object.__setattr__(self, "decode", readonly_array(self.decode, np.int64))
        object.__setattr__(self, "energies", readonly_array(self.energies, np.float64))

    @property
    def d_tilde(self) -> int:
        return 1 << self.m_tilde


def encode_community(spectrum: LocalSpectrum) -> EncodedCommunity:
    """Encode a local spectrum on ceil(log2(d)) qubits (1 qubit when d = 1).

    Reduced index ``mu`` takes the spectrum's state ``mu % d``, so the
    decode and energy tables are one gather of its packed states and their
    energies, and every padded index repeats a retained state.
    """
    d = spectrum.d
    if d < 1:
        raise InternalError("cannot encode an empty spectrum")
    # ceil(log2(d)) in exact integer arithmetic; one qubit when d = 1
    m_tilde = max(1, (d - 1).bit_length())
    packed, energies = spectrum.packed, spectrum.energies
    if d < 1 << m_tilde:
        source = np.arange(1 << m_tilde) % d
        packed, energies = packed[source], energies[source]
    return EncodedCommunity(m_tilde, packed, energies, d, spectrum.n_vars)


# Z eigenvalues of bit 0 and bit 1: one axis of a level-0 coupling table.
_SPINS = np.array([1.0, -1.0])

# Terms per mask word: a coupling's terms are summed a word at a time.
_WORD = 16

# The sign feature of a one-qubit level-0 register: index 1 flips the term.
_PARITY = (readonly_array([0, 1], np.uint16),)


def _register_layout(widths):
    """Bit offsets and masks, as (K, 1) int64 columns, of K registers of
    ``widths`` bits packed in order from bit 0, as a community's members sit
    in its states: ``(states >> offsets) & masks`` reads every register of a
    1-d array of packed states into one (K, states) array."""
    offsets = list(accumulate(widths, initial=0))[:-1]
    layout = np.array([offsets, [(1 << m) - 1 for m in widths]], dtype=np.int64)[:, :, None]
    return layout[0], layout[1]


class Coupling:
    """Diagonal coupling among the registers of some communities (its
    footprint, the key it is stored under in ``ReducedProblem.couplings``),
    held as the level-0 terms it carries over one sign feature per axis.

    ``coeffs`` is the tuple of the terms' coefficients c_t. ``masks`` hold, per
    axis, one uint16 array of length d_tilde per word of 16 terms: bit
    t % 16 of word t // 16 at index x is f_{t,k}(x), the parity of term t's
    variables inside that axis's register at x. An entry is
    sum_t c_t prod_k (-1)^f_{t,k}(x_k): the XOR of the axes' words is a sign
    pattern, looked up in a table of the word's terms' signed sums, added
    from its first term on, and the words' sums are added in order. Every entry is so summed in one fixed order, with no BLAS
    call: ``values`` XORs the words gathered at aligned (broadcastable)
    index arrays, and ``table`` XORs the words themselves on the open grid,
    about ``SLAB_ENTRIES`` entries of leading rows at a time, so a table
    equals ``values`` bit for bit. ``table`` caches its result, and
    refuses past ``MATERIALIZE_ENTRIES``, the cap ``can_materialize``
    tests; ``values`` reads the table, given (level 0) or built on its
    first read within the cap, and past the cap sums entry-wise.
    ``bound`` is sum_t |c_t|; a caller that knows it may pass it.
    """

    def __init__(self, coeffs, masks, table=None, bound=None):
        self.coeffs = coeffs
        self.masks = masks
        self.shape = tuple(len(mask[0]) for mask in masks)
        self._table = table
        self._sums = None
        self._norm = None
        self.bound = float(sum(map(abs, coeffs))) if bound is None else bound

    @property
    def can_materialize(self) -> bool:
        return math.prod(self.shape) <= MATERIALIZE_ENTRIES

    def values(self, idx_arrays) -> np.ndarray:
        table = self._table
        if table is None:
            if not self.can_materialize:
                return self._signed_sums([
                    functools_reduce(np.bitwise_xor, [mask[w][i] for mask, i in zip(self.masks, idx_arrays)])
                    for w in range(len(self.masks[0]))
                ])
            table = self.table()
        return table[tuple(idx_arrays)]

    def table(self) -> np.ndarray:
        if self._table is None:
            if not self.can_materialize:
                raise ResourceError(
                    f"coupling table with {math.prod(self.shape)} entries exceeds the materialization cap; "
                    "lower eta or use the auto or annealing backend"
                )
            out = np.empty(self.shape)
            rows = max(1, SLAB_ENTRIES // math.prod(self.shape[1:]))
            for r0 in range(0, self.shape[0], rows):
                out[r0:r0 + rows] = self._signed_sums([
                    functools_reduce(np.bitwise_xor.outer,
                                     [self.masks[0][w][r0:r0 + rows], *(words[w] for words in self.masks[1:])])
                    for w in range(len(self.masks[0]))
                ])
            self._table, self._sums = out, None
        return self._table

    @property
    def norm(self) -> float:
        """The exact diagonal operator norm, the largest |entry| of the
        table (padded indices repeat the entries of valid ones, since they
        decode to ``decode[mu % d]``); past the table cap, the bound
        sum_t |c_t|. A one-term coupling, as at level 0, takes its bound:
        every entry is +-c, so the bound is that norm. Computed on the
        first read and kept."""
        if self._norm is None:
            if len(self.coeffs) == 1 or not self.can_materialize:
                self._norm = self.bound
            else:
                table = self.table()
                self._norm = float(max(table.max(), -table.min()))  # no |table| temporary
        return self._norm

    def _signed_sums(self, patterns) -> np.ndarray:
        """The entries at one sign pattern per word: a word's table holds
        its terms' sum under every pattern (bit t set: term t negated),
        added from the word's first term on."""
        if self._sums is None:
            self._sums = []
            for first in range(0, len(self.coeffs), _WORD):
                c0, *rest = self.coeffs[first:first + _WORD]
                sums = np.array([c0, -c0])
                for c in rest:
                    sums = np.add.outer((c, -c), sums).ravel()
                self._sums.append(sums)
        return functools_reduce(np.add, [sums[p] for sums, p in zip(self._sums, patterns)])


class TableObjective:
    """Diagonal objective over the concatenated registers of some communities.

    Implements the optimizer's objective interface via table lookups; this
    is the default execution path for reduced problems. ``couplings`` are
    ``(positions, Coupling)`` pairs, kept in the given order except that
    the couplings past the table cap go last. A state's energy adds, onto
    zero, every energy table and then every coupling in that order:
    ``scan_chunks`` reads them on broadcast grids, and ``energies`` reads
    every table within the cap through one flat gather, so the two agree
    bit for bit. ``energies`` also takes Python-int keys, so an annealed
    register may exceed 62 qubits. Register k sits at the bits
    ``_register_layout(m_list)`` gives it, so ``energies`` splits a block of
    keys into every register with one broadcast.
    """

    def __init__(self, m_list, energy_tables, couplings):
        self.m_list = list(m_list)
        self.energy_tables = [np.asarray(t, dtype=np.float64) for t in energy_tables]
        self.couplings = sorted(
            ((tuple(pos), coupling) for pos, coupling in couplings), key=lambda pc: not pc[1].can_materialize
        )
        self._register_bits = _register_layout(self.m_list)
        self.offsets = self._register_bits[0].ravel().tolist()
        self.n_vars = sum(self.m_list)
        self._gather = None

    def energies(self, keys: np.ndarray) -> np.ndarray:
        """Energies of a 1-d array of packed keys, int64 or (above 62 qubits)
        Python ints, in blocks of about ``SLAB_ENTRIES`` gathered entries: a
        block's registers are read with one broadcast shift and mask into a
        (registers, states) index array, every materialized table with one
        flat gather into a (tables, states) block, and its ``column_sums``
        are added onto zero, then every coupling past the cap. A batch of
        one block is returned as that block."""
        flat, strides, base, lazy = self._gather_plan()
        offsets, masks = self._register_bits
        rows = max(1, SLAB_ENTRIES // base.size)
        blocks = []
        # an empty batch is one empty block
        for lo in range(0, max(1, len(keys)), rows):
            idx = np.asarray((keys[lo:lo + rows] >> offsets) & masks, dtype=np.int64)
            # + 0.0 turns a sum of -0.0 into 0.0, as the scan's zeros do
            block = column_sums(flat[strides @ idx + base]) + 0.0
            for pos, coupling in lazy:
                block += coupling.values([idx[p] for p in pos])
            blocks.append(block)
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    def _energies_at(self, idx, shape) -> np.ndarray:
        """Every energy table, then every coupling, gathered once at the
        register indices ``idx`` and added onto zeros of ``shape``."""
        out = np.zeros(shape, dtype=np.float64)
        for k, table in enumerate(self.energy_tables):
            out += table[idx[k]]
        for pos, coupling in self.couplings:
            out += coupling.values([idx[p] for p in pos])
        return out

    def scan_chunks(self):
        """Energies of all packed states in index order, as (first state,
        energies) slabs of up to ``SLAB_ENTRIES`` consecutive states.

        The states form the product grid of the registers, register k on
        axis K-1-k, so a grid point's C-order flat index is its packed
        state. A slab fixes the registers above its low bits and reads the
        ones below, the highest of them perhaps in part, as broadcast
        ``arange`` grids.
        """
        total = 1 << self.n_vars
        size = min(SLAB_ENTRIES, total)
        low = size.bit_length() - 1
        # bits of registers 0 .. ndim-1 that vary inside one slab
        widths = [min(m, low - off) for off, m in zip(self.offsets, self.m_list) if off < low]
        ndim = len(widths)
        shape = [1 << w for w in reversed(widths)]
        for start in range(0, total, size):
            idx = [(start >> off) & ((1 << m) - 1) for off, m in zip(self.offsets, self.m_list)]
            for k, w in enumerate(widths):
                idx[k] = np.arange(idx[k], idx[k] + (1 << w)).reshape(
                    [-1 if a == ndim - 1 - k else 1 for a in range(ndim)]
                )
            yield start, self._energies_at(idx, shape).ravel()

    def _gather_plan(self):
        """Every table within the cap raveled into one flat array, with the
        per-register strides (T, K) and table offsets (T, 1) that turn a
        (K, R) register index array into (T, R) flat positions; plus the
        couplings past the cap."""
        if self._gather is None:
            tables = [((k,), table) for k, table in enumerate(self.energy_tables)]
            lazy = []
            for pos, coupling in self.couplings:
                if coupling.can_materialize:
                    tables.append((pos, np.ascontiguousarray(coupling.table())))
                else:
                    lazy.append((pos, coupling))
            strides = np.zeros((len(tables), len(self.m_list)), dtype=np.int64)
            base = np.zeros((len(tables), 1), dtype=np.int64)
            offset = 0
            for t, (pos, table) in enumerate(tables):
                for p, stride in zip(pos, table.strides):
                    strides[t, p] = stride // table.itemsize
                base[t] = offset
                offset += table.size
            flat = np.concatenate([table.ravel() for _, table in tables])
            self._gather = (flat, strides, base, lazy)
        return self._gather


class ReducedProblem:
    """Per-community energy tables plus inter-community coupling tables;
    ``quadratic`` when the input was pure quadratic (two-body cut-offs apply)."""

    def __init__(self, encodings, couplings, n_chi: int, quadratic: bool = False):
        self.encodings: tuple[EncodedCommunity, ...] = tuple(encodings)
        self.couplings: dict[tuple[int, ...], Coupling] = dict(couplings)
        self.n_chi = n_chi
        self.quadratic = quadratic
        self.m_tildes = tuple(enc.m_tilde for enc in self.encodings)
        self.total_qubits = sum(self.m_tildes)

    @classmethod
    def from_hamiltonian(cls, h: PolyHamiltonian) -> ReducedProblem:
        """Level 0: the input as the trivial encoding of itself.

        Variable v is a 1-qubit identity register with energies
        ``(field, -field)``, one shared encoding per distinct field; each
        multi-variable term is a one-term coupling on its own variables,
        whose sign feature on every axis is the variable's bit and whose
        bound is |coeff|. A term whose table fits ``MATERIALIZE_ENTRIES``
        also gets its table, all of one degree from one broadcast product;
        a wider one stays lazy, so no term width is refused. The constant
        is left out, as at every level.
        """
        fields = [0.0] * h.n_vars
        by_degree: dict[int, list] = {}
        for subset, coeff in h.terms.items():
            if len(subset) == 1:
                fields[subset[0]] = coeff
            elif subset:
                by_degree.setdefault(len(subset), []).append((subset, coeff))
        couplings = {}
        for k, items in by_degree.items():
            masks = (_PARITY,) * k
            tables = [None] * len(items)
            if 1 << k <= MATERIALIZE_ENTRIES:
                coeffs = np.array([coeff for _, coeff in items]).reshape((-1,) + (1,) * k)
                tables = coeffs * functools_reduce(np.multiply.outer, [_SPINS] * k)
            for (subset, coeff), table in zip(items, tables):
                couplings[subset] = Coupling((coeff,), masks, table, abs(coeff))
        shared = {f: EncodedCommunity(1, [0, 1], [f, -f], 2, 1) for f in set(fields)}
        return cls([shared[f] for f in fields], couplings, 0, h.is_pure_quadratic())

    @property
    def n_communities(self) -> int:
        return len(self.encodings)

    def full_objective(self) -> TableObjective:
        """Objective over every energy table and coupling, in footprint order."""
        return TableObjective(self.m_tildes, [e.energies for e in self.encodings], sorted(self.couplings.items()))

    def contracted_graph(self) -> WeightedGraph:
        """One vertex per community; couplings contribute their weight,
        the ``Coupling.norm`` the two-body cut-off reads too,
        clique-expanded with pair-count normalization for hyper-footprints.
        At level 0 a k-variable term adds |J| / C(k, 2) to each of its
        pairs, and fields and the constant add nothing. Every weight is
        non-negative, as Louvain requires, and no vertex has a loop."""
        edges: dict[tuple[int, int], float] = {}
        for footprint, coupling in sorted(self.couplings.items()):
            weight = coupling.norm
            if weight == 0.0:
                continue
            if len(footprint) == 2:
                share, pairs = weight, [footprint]
            else:
                share = weight / math.comb(len(footprint), 2)
                pairs = combinations(footprint, 2)
            for u, v in pairs:
                edges[(u, v)] = edges.get((u, v), 0.0) + share
        return WeightedGraph(self.n_communities, edges)


# -- decomposition and cut-offs, the same at every level -------------------------

# Exact cut-offs are computed when the straddling couplings touch at most
# this many qubits. The outside communities are eliminated one component at
# a time, so this bounds the grid of a single component that spans every
# outside community: that case still reads the whole joint grid.
EXACT_RANGE_VARS = 20


@dataclass(frozen=True)
class ReducedDecomposition:
    """A reduced problem regrouped under a partition of its communities (at
    level 0, the input's variables; its straddling footprints are terms),
    with the footprints inside each new community in ``inside_by_super``."""

    rp: ReducedProblem
    partition: Partition
    members: tuple[tuple[int, ...], ...]
    straddling_footprints: tuple[tuple[int, ...], ...]
    straddle_by_super: tuple[tuple[tuple[int, ...], ...], ...]
    inside_by_super: tuple[tuple[tuple[int, ...], ...], ...]


def decompose(rp: ReducedProblem, p: Partition) -> ReducedDecomposition:
    """Group the communities under ``p`` and index, in footprint order, the
    couplings that straddle the new communities and those inside each."""
    if len(p.community_of) != rp.n_communities:
        raise DimensionError(f"partition covers {len(p.community_of)} vertices, not {rp.n_communities}")
    straddling: list = []
    straddle_by: list[list] = [[] for _ in range(p.n_communities)]
    inside_by: list[list] = [[] for _ in range(p.n_communities)]
    for footprint in sorted(rp.couplings):
        supers = {p.community_of[c] for c in footprint}
        if len(supers) > 1:
            straddling.append(footprint)
            for s in supers:
                straddle_by[s].append(footprint)
        else:
            inside_by[supers.pop()].append(footprint)
    return ReducedDecomposition(
        rp=rp,
        partition=p,
        members=tuple(tuple(c) for c in p.communities),
        straddling_footprints=tuple(straddling),
        straddle_by_super=tuple(tuple(f) for f in straddle_by),
        inside_by_super=tuple(tuple(f) for f in inside_by),
    )


def community_objective(rd: ReducedDecomposition, l: int) -> TableObjective:
    """Objective over new community ``l``: its members' energy tables plus
    the couplings inside it, in footprint order."""
    encodings, pos = rd.rp.encodings, {c: k for k, c in enumerate(rd.members[l])}
    return TableObjective(
        [encodings[c].m_tilde for c in pos], [encodings[c].energies for c in pos],
        [(tuple(pos[c] for c in fp), rd.rp.couplings[fp]) for fp in rd.inside_by_super[l]],
    )


def delta_two_body(rd: ReducedDecomposition, l: int) -> float:
    """Certified window width for pure-quadratic inputs: the summed norms
    of the straddling couplings (sum of |J| over straddling pairs at level 1)."""
    if not rd.rp.quadratic:
        raise DomainError("two-body cut-off requires a pure-quadratic Hamiltonian; use delta_pubo")
    return float(sum(rd.rp.couplings[fp].norm for fp in rd.straddle_by_super[l]))


def delta_pubo(rd: ReducedDecomposition, l: int) -> float:
    """Certified window width for inputs of any degree.

    The exact range of the summed straddling couplings when their joint
    register has at most ``EXACT_RANGE_VARS`` qubits, and twice the summed
    norms otherwise. The range (``_coupling_range``) takes the community's
    own members as the inside registers: it eliminates the outside
    communities, component by component, to each inside state's extremes,
    and re-reads the sum at the two extremal joint states in footprint
    order, as the full joint grid sums it.
    """
    footprints = rd.straddle_by_super[l]
    if not footprints:
        return 0.0
    rp = rd.rp
    touched = sorted({c for fp in footprints for c in fp})
    if sum(rp.encodings[c].m_tilde for c in touched) <= EXACT_RANGE_VARS:
        return _coupling_range(rp, footprints, touched, set(rd.members[l]))
    return 2.0 * float(sum(rp.couplings[fp].norm for fp in footprints))


def iteration_delta(rd: ReducedDecomposition, l: int) -> float:
    """The two-body cut-off for pure-quadratic inputs, the general one otherwise."""
    return delta_two_body(rd, l) if rd.rp.quadratic else delta_pubo(rd, l)


def _coupling_range(rp: ReducedProblem, footprints, touched, inside) -> float:
    """Range of the summed couplings over the joint states of the touched
    communities, by eliminating the communities outside ``inside``.

    Once the inside registers are fixed, the couplings split into
    components over disjoint outside communities, joined through each
    footprint's outside part. A component's couplings are summed over only
    the inside axes they touch and its own outside axes (outside axes
    first, through broadcast ``arange`` views) and reduced to their max and
    min over the outside axes; the components' extrema add up over the
    inside grid. The argmax and argmin inside states, each with every
    component's argmax or argmin outside state there, are the two extremal
    joint states, and the range is re-read at them through
    ``Coupling.values`` in footprint order, the order the full joint grid
    sums in. Grids run over valid indices only: padded ones repeat valid
    entries. The elimination adds in another order, so only joint states
    within rounding of each other could be ranked differently from the
    full grid.
    """
    inside = [c for c in touched if c in inside]
    n_in = len(inside)
    grid = {c: np.arange(rp.encodings[c].d).reshape((-1,) + (1,) * (n_in - 1 - i))
            for i, c in enumerate(inside)}
    root = {c: c for c in touched if c not in grid}

    def find(c):
        while root[c] != c:
            c = root[c]
        return c

    outside_parts = [[c for c in fp if c in root] for fp in footprints]
    for part in outside_parts:
        for c in part[1:]:
            root[find(c)] = find(part[0])
    components: dict = {}
    for fp, part in zip(footprints, outside_parts):
        components.setdefault(find(part[0]) if part else None, []).append(fp)
    inside_shape = tuple(rp.encodings[c].d for c in inside)
    totals = []
    hi = lo = 0.0
    for fps in components.values():
        outside = sorted({c for fp in fps for c in fp if c in root})
        for j, c in enumerate(outside):
            grid[c] = np.arange(rp.encodings[c].d).reshape((-1,) + (1,) * (len(outside) - 1 - j + n_in))
        total = 0.0
        for fp in fps:
            total = total + rp.couplings[tuple(fp)].values([grid[c] for c in fp])
        axes = tuple(range(len(outside)))
        hi = hi + total.max(axes)
        lo = lo + total.min(axes)
        if outside:
            totals.append((outside, total))
    # the two extremal joint states, hi first, as one index pair per community
    pair = np.array([np.unravel_index(hi.argmax(), inside_shape),
                     np.unravel_index(lo.argmin(), inside_shape)], dtype=np.intp)
    joint = {c: pair[:, i] for i, c in enumerate(inside)}
    for outside, total in totals:
        m = len(outside)
        x = pair * (np.array(total.shape[m:]) > 1)  # index 0 on the inside axes it does not touch
        ends = [total[(..., *x[0])].argmax(), total[(..., *x[1])].argmin()]
        joint.update(zip(outside, np.unravel_index(ends, total.shape[:m])))
    total = 0.0
    for fp in footprints:
        total = total + rp.couplings[tuple(fp)].values([joint[c] for c in fp])
    return float(total[0] - total[1])


# -- dead-end elimination, the same at every level ------------------------------

# Each state is tested against this many of the lowest retained states.
PRUNE_CANDIDATES = 64


def prune_dominated(rd: ReducedDecomposition, l: int, spectrum: LocalSpectrum) -> LocalSpectrum:
    """Community ``l``'s spectrum without padded aliases and without the
    states that another retained state beats under every boundary
    (Goldstein's dead-end test).

    First every state with a padded register index is replaced by its valid
    twin and the duplicates are dropped (``_without_aliases``), so each
    state is tested, encoded and recombined once; the spectrum's ``d`` then
    counts distinct states. Then state x is dropped when one of the
    ``PRUNE_CANDIDATES`` lowest states y
    satisfies  E(x) - E(y) > sum_g max_z [R_g(y, z) - R_g(x, z)] + tol,
    where g runs over the straddling couplings grouped by the communities
    they reach outside ``l``, R_g(x, z) is their summed entries at x's
    registers and outside indices z, and tol is the window's. Swapping x
    for y then lowers the energy of every configuration that uses x, so
    within this level every optimum of the retained product survives, at
    any eta. Across levels at eta < 1 it need not: the dropped states'
    couplings can set the next level's cut-off, and a smaller cut-off
    narrows that level's window. The candidates are compared a block at a
    time, each block only with the states no earlier block dropped
    (``_dead_ends``). The rows are read through ``Coupling.values``
    (``_coupling_rows``); a community whose rows would exceed
    ``MATERIALIZE_ENTRIES`` keeps every distinct state. The window, and so
    E0, is kept.
    """
    spectrum = _without_aliases(rd, l, spectrum)
    if spectrum.d < 2:
        return spectrum
    rows = _coupling_rows(rd, l, spectrum.packed)
    if rows is None:
        return spectrum
    keep = ~_dead_ends(rows, spectrum.energies, spectrum.window.tol)
    if keep.all():
        return spectrum
    return LocalSpectrum(
        spectrum.packed[keep], spectrum.energies[keep], spectrum.window,
        spectrum.complete, spectrum.n_vars,
    )


def _without_aliases(rd: ReducedDecomposition, l: int, spectrum: LocalSpectrum) -> LocalSpectrum:
    """The spectrum with each padded index of a member taken mod its ``d``,
    and the duplicates that makes dropped.

    Such an alias has its twin's energy and rows bit for bit, so dropping it
    keeps every optimum's configuration. A complete window holds every
    twin, so its aliases are masked out in order; a sampled one may lack a
    twin, so its states are mapped, deduplicated (the first, lowest, of each
    kept) and sorted again. Level-1 members are unpadded 1-qubit registers.
    """
    packed = twins = spectrum.packed
    offset = 0
    for c in rd.members[l]:
        enc = rd.rp.encodings[c]
        if enc.d < enc.d_tilde:
            # an index is below 2d, so mod d takes d off a padded one
            padded = ((packed >> offset) & (enc.d_tilde - 1)) >= enc.d
            twins = twins - padded * (enc.d << offset)
        offset += enc.m_tilde
    if twins is packed:
        return spectrum
    alias = twins != packed
    if not alias.any():
        return spectrum
    if spectrum.complete:
        keep = ~alias
        return LocalSpectrum(packed[keep], spectrum.energies[keep], spectrum.window, True, spectrum.n_vars)
    _, first = np.unique(twins, return_index=True)
    return LocalSpectrum.in_order(
        twins[first], spectrum.energies[first], spectrum.window, False, spectrum.n_vars
    )


def _dead_ends(stacks, energies: np.ndarray, tol: float) -> np.ndarray:
    """Which states the dead-end test drops. Each stack is an array of
    shape (groups, rows, d): column x of group g holds R_g(x, .).

    The candidates, the lowest ``min(PRUNE_CANDIDATES, d)`` states whether
    dropped or not, are taken in index order a block at a time, and each
    block is compared only with the states no earlier block dropped, a chunk
    of them at a time. A block holds as many candidates as fill
    ``SLAB_ENTRIES`` with those states, but at least two, and it takes in
    the last candidate rather than leave it a block of its own: with one
    candidate and one state, numpy sums eight or more groups pairwise, not
    in order, which can move a gain by an ulp. A state is dropped when any
    candidate beats it, so leaving out the dropped ones changes no decision.
    """
    d = energies.size
    k = min(PRUNE_CANDIDATES, d)
    width = max([1] + [s.shape[0] * s.shape[1] for s in stacks])
    dead = np.zeros(d, dtype=bool)
    live = None  # the states no earlier block dropped; None before the first
    c0 = 0
    while True:
        # later blocks copy their states' columns, which count within the
        # slab as one more candidate
        n, copied = (d, 0) if live is None else (live.size, 1)
        stop = c0 + max(2, SLAB_ENTRIES // (width * max(1, n)) - copied)
        cs = slice(c0, k if stop >= k - 1 else stop)
        step = max(1, SLAB_ENTRIES // (width * (cs.stop - c0 + copied)))
        for x0 in range(0, n, step):
            # later blocks gather their states with take: indexing the last
            # axis with an array yields transposed temporaries, whose max
            # over rows is several times slower
            xs = slice(x0, x0 + step) if live is None else live[x0:x0 + step]
            gain = energies[xs] - energies[cs, None]
            for stack in stacks:
                cols = stack[:, :, None, xs] if live is None else stack.take(xs, axis=2)[:, :, None]
                gain -= (stack[:, :, cs, None] - cols).max(axis=1).sum(axis=0)
            dead[xs] = (gain > tol).any(axis=0)
        if cs.stop == k:
            return dead
        c0 = cs.stop
        live = np.flatnonzero(~dead)


def _coupling_rows(rd: ReducedDecomposition, l: int, packed: np.ndarray):
    """Every state's rows read through ``Coupling.values``, which sums each
    entry's terms in the coupling's fixed order (or reads its table): for
    each group, the summed entries at its inside registers over the product
    of the outside communities' valid indices (padded ones repeat them).
    The states are split into the members' registers with one broadcast of
    their ``_register_layout``, and the outside index grids are built once
    per outside shape. Groups with as many rows share one stack, one
    ``np.array`` of their rows, so the test makes one pass per distinct row
    count. None when the rows would exceed ``MATERIALIZE_ENTRIES``."""
    rp = rd.rp
    community_of = rd.partition.community_of
    groups: dict[tuple[int, ...], list] = {}
    for fp in rd.straddle_by_super[l]:
        groups.setdefault(tuple(c for c in fp if community_of[c] != l), []).append(fp)
    d = packed.size
    shapes = [tuple(rp.encodings[c].d for c in outside) for outside in groups]
    if d * sum(math.prod(shape) for shape in shapes) > MATERIALIZE_ENTRIES:
        return None
    offsets, masks = _register_layout([rp.m_tildes[c] for c in rd.members[l]])
    registers = dict(zip(rd.members[l], (packed >> offsets) & masks))
    grids: dict[tuple[int, ...], list] = {}
    by_rows: dict[int, list] = {}
    for (outside, fps), shape in zip(groups.items(), shapes):
        # outside axes first, states last; every coupling of the group
        # reaches all of them, so each term has the group's full shape
        registers.update(zip(outside, grids.get(shape) or grids.setdefault(shape, [
            np.arange(size).reshape((-1,) + (1,) * (len(shape) - j)) for j, size in enumerate(shape)])))
        total = rp.couplings[fps[0]].values([registers[c] for c in fps[0]])
        for fp in fps[1:]:
            total += rp.couplings[fp].values([registers[c] for c in fp])
        by_rows.setdefault(total.size // d, []).append(total.reshape(-1, d))
    return [np.array(rows) for rows in by_rows.values()]


def build_reduced(rd: ReducedDecomposition, encodings) -> ReducedProblem:
    """The first level's reduced problem, built like every later level's."""
    return build_reduced_iter(rd, encodings)


def build_reduced_iter(rd: ReducedDecomposition, encodings) -> ReducedProblem:
    """Next-level reduced problem: straddling couplings regrouped under the
    new communities, their level-0 terms carried over.

    A new coupling's terms are its old couplings' terms in footprint order.
    Each old word is shifted to its terms' place (its overflow into the next
    word), gathered through the new decode table (``_member_gathers``) and
    XORed into the word there: that ORs distinct terms' bits and multiplies
    the features of one term's members inside one new register. No table
    is built here: a coupling builds its own on its first read. The
    chi-entry count sums, over the couplings within the table cap, their
    entries times their old couplings.
    """
    encodings = tuple(encodings)
    if len(encodings) != rd.partition.n_communities:
        raise DimensionError("one encoding per super-community is required")
    community_of = rd.partition.community_of
    gathers = _member_gathers(rd, encodings)
    groups: dict[tuple[int, ...], list] = {}
    for footprint in rd.straddling_footprints:
        new_fp = tuple(sorted({community_of[c] for c in footprint}))
        groups.setdefault(new_fp, []).append((footprint, rd.rp.couplings[footprint]))
    couplings = {}
    n_chi = 0
    for new_fp in sorted(groups):
        olds = groups[new_fp]
        coeffs = tuple(c for _, old in olds for c in old.coeffs)
        n_words = -(-len(coeffs) // _WORD)
        meet = {l: [None] * n_words for l in new_fp}
        first = 0
        for fp, old in olds:
            terms = len(old.coeffs)
            for c, words in zip(fp, old.masks):
                into = meet[community_of[c]]
                for j, word in enumerate(words):
                    w, shift = divmod(first + _WORD * j, _WORD)
                    low = (word << shift if shift else word)[gathers[c]]
                    into[w] = low if into[w] is None else into[w] ^ low
                    if (min(first + terms, first + _WORD * (j + 1)) - 1) // _WORD > w:  # overflow
                        high = (word >> (_WORD - shift))[gathers[c]]
                        into[w + 1] = high if into[w + 1] is None else into[w + 1] ^ high
            first += terms
        masks = tuple(tuple(meet[l]) for l in new_fp)
        coupling = Coupling(coeffs, masks, bound=sum(old.bound for _, old in olds))
        if coupling.can_materialize:
            n_chi += len(olds) * math.prod(coupling.shape)
        couplings[new_fp] = coupling
    return ReducedProblem(encodings, couplings, n_chi, rd.rp.quadratic)


def _split_registers(states, groups, widths) -> list:
    """Register of every member out of packed Python-int states, which may
    exceed 62 bits: ``states[g]`` holds the registers of the members
    ``groups[g]`` in order from bit 0, member ``c`` on ``widths[c]`` bits."""
    out = [0] * len(widths)
    for state, members in zip(states, groups):
        offset = 0
        for c in members:
            out[c] = (state >> offset) & ((1 << widths[c]) - 1)
            offset += widths[c]
    return out


def _member_gathers(rd: ReducedDecomposition, encodings) -> list[np.ndarray]:
    """Reduced index of every old community under each decode entry of the
    super-community encoding that contains it: each decode table is split
    into its members' registers with one broadcast of their
    ``_register_layout``, and member c's gather is a row of that split."""
    out = [None] * rd.rp.n_communities
    for members, enc in zip(rd.members, encodings):
        offsets, masks = _register_layout([rd.rp.m_tildes[c] for c in members])
        for c, register in zip(members, (enc.decode >> offsets) & masks):
            out[c] = register
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

    def total_qubits(self) -> int:
        return sum(enc.m_tilde for enc in self.levels[-1].encodings)

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
                    "decode": [
                        [format(state, f"0{enc.n_local_vars}b")[::-1] for state in enc.decode.tolist()]
                        for enc in level.encodings
                    ],
                    "energies": [enc.energies.tolist() for enc in level.encodings],
                }
                for level in self.levels
            ],
        }

