"""Independent oracles and instance generators shared by the test modules.

The oracles are deliberately naive: loop-based parity products, spin
matrices, and a double-sum modularity. These never share code paths with
the package internals they check. ``level1_partition`` is one
exception: it clusters a Hamiltonian exactly as ``run()`` clusters level 1.
``harvest_loop`` is another: the sampled enumerator's harvest as a loop,
which reads the package's window rule and penalty constants, and
``sampled_rounds`` runs the enumerator's rounds through the package's own
annealing kernel and harvest, harvesting every round. Another is
``dead_end_gains``, the dead-end test in one all-pairs pass, which reads
the package's candidate count, and ``reference_louvain`` is Louvain with a
dict-and-``sorted`` move sweep, which reads the package's tolerances.
``twin_states`` and ``without_aliases`` read the packed layout and the
encodings of a ``ReducedDecomposition``, and ``coupling_rows`` reads its
couplings through ``Coupling.values``. ``reference_shift_diagnostics``
reads a run's first level through the package's decomposition and
``PolyHamiltonian.split``.
"""

import math

import numpy as np

import dcreduce.clustering as clustering_module
import dcreduce.optimizer as optimizer_module
import dcreduce.reduction as reduction_module
from dcreduce.clustering import Partition, WeightedGraph, louvain
from dcreduce.driver import ShiftDiagnostics
from dcreduce.errors import InternalError
from dcreduce.hamiltonian import PolyHamiltonian, SpinConfig
from dcreduce.reduction import Coupling, ReducedProblem, decompose


def level1_partition(h: PolyHamiltonian, seed: int) -> Partition:
    """Louvain on the contracted graph of the level-0 reduced problem."""
    return louvain(ReducedProblem.from_hamiltonian(h).contracted_graph(), seed=seed)


def random_coupling(rng, shape, values=None) -> Coupling:
    """A lazy coupling over ``shape`` with 1 to 40 random level-0 terms, so
    its sums span up to three 16-term words: coefficients drawn from
    ``values`` (when None, uniform in [-1/T, 1/T] for T terms, so entries
    lie in [-1, 1]), and on every axis a random sign feature per term,
    packed into the coupling's uint16 words."""
    n_terms = int(rng.integers(1, 41))
    if values is None:
        coeffs = rng.uniform(-1.0, 1.0, n_terms) / n_terms
    else:
        coeffs = rng.choice(values, n_terms)
    masks = []
    for size in shape:
        bits = rng.integers(0, 2, (n_terms, size), dtype=np.uint16)
        masks.append(tuple(
            (bits[w:w + 16] << np.arange(min(16, n_terms - w), dtype=np.uint16)[:, None]).sum(axis=0, dtype=np.uint16)
            for w in range(0, n_terms, 16)
        ))
    return Coupling(tuple(coeffs.tolist()), tuple(masks))


def energy_of_indices(rp: ReducedProblem, idx) -> float:
    """Reduced energy of a joint index tuple (constant excluded): each
    community's table entry, then each coupling's entry, added one by one."""
    assert len(idx) == rp.n_communities
    total = 0.0
    for c, enc in enumerate(rp.encodings):
        total += float(enc.energies[idx[c]])
    for footprint, coupling in rp.couplings.items():
        total += float(coupling.values(tuple(idx[c] for c in footprint)))
    return total


def split_registers(state: int, widths) -> list[int]:
    """Registers of widths ``widths``, packed in order from bit 0, out of one
    Python-int state, one register at a time."""
    out, offset = [], 0
    for m in widths:
        out.append((state >> offset) & ((1 << m) - 1))
        offset += m
    return out


def indices_from_bits(rp: ReducedProblem, bits_int: int) -> tuple[int, ...]:
    """Register indices of a packed joint state, community 0 from bit 0."""
    return tuple(split_registers(bits_int, rp.m_tildes))


def is_padded(enc) -> np.ndarray:
    """Which reduced indices of an encoding lie past its true dimension d."""
    return np.arange(enc.d_tilde) >= enc.d


def flip_all(x: SpinConfig) -> SpinConfig:
    """Flip every bit of a configuration (the Z2 image of a state)."""
    return tuple(1 - b for b in x)


def naive_evaluate(h: PolyHamiltonian, bits) -> float:
    """Loop-based parity oracle."""
    total = 0.0
    for subset, coeff in h.terms.items():
        product = 1.0
        for j in subset:
            product *= 1.0 - 2.0 * bits[j]
        total += coeff * product
    return total


def spin_energies(h: PolyHamiltonian) -> np.ndarray:
    """Full spectrum via an explicit spin matrix (independent of popcount)."""
    n = h.n_vars
    states = np.arange(1 << n)
    spins = 1 - 2 * ((states[:, None] >> np.arange(n)) & 1)
    energies = np.zeros(1 << n)
    for subset, coeff in h.terms.items():
        if subset:
            energies += coeff * np.prod(spins[:, list(subset)], axis=1)
        else:
            energies += coeff
    return energies


def brute_min(h: PolyHamiltonian) -> float:
    return float(spin_energies(h).min())


def brute_argmin(h: PolyHamiltonian):
    energies = spin_energies(h)
    state = int(np.argmin(energies))
    return tuple((state >> j) & 1 for j in range(h.n_vars)), float(energies[state])


def walsh_polynomial(values) -> PolyHamiltonian:
    """The parity-basis expansion of a truth table of 2^n reals, by a fast
    Walsh-Hadamard transform: ``values[x]`` is the value on the state whose
    bit j is bit j of x, and every nonzero coefficient is kept."""
    spectrum = np.array(values, dtype=np.float64)
    size = spectrum.size
    n = size.bit_length() - 1
    assert size >= 2 and size == 1 << n
    step = 1
    while step < size:
        pairs = spectrum.reshape(-1, 2, step)
        pairs[:] = pairs[:, :1] + pairs[:, 1:] * np.array([[1.0], [-1.0]])
        step *= 2
    spectrum /= size
    return PolyHamiltonian(n, {
        tuple(j for j in range(n) if (mask >> j) & 1): float(c)
        for mask, c in enumerate(spectrum) if c != 0.0
    })


def reference_shift_diagnostics(h: PolyHamiltonian, result) -> list[ShiftDiagnostics]:
    """The reference for ``driver.shift_diagnostics``: the run's first-level
    partition decomposes the level-0 reduced problem again, each
    community's local energy is its ``split`` sub-Hamiltonian evaluated on
    its members' bits, and its interaction energy is a Hamiltonian of its
    straddling terms evaluated on the whole configuration."""
    if not result.trace.levels:
        return []
    config = result.best_config
    level = result.trace.levels[0]
    rd = decompose(ReducedProblem.from_hamiltonian(h), Partition.from_labels(level.partition))
    out = []
    for i, (members, local) in enumerate(zip(rd.members, h.split(rd.members))):
        delta = level.deltas[i]
        if delta <= 0.0:
            continue
        local_energy = local.evaluate(tuple(config[v] for v in members))
        interaction = PolyHamiltonian(
            h.n_vars, {s: h.terms[s] for s in rd.straddle_by_super[i]}
        ).evaluate(config)
        e0 = level.e0s[i]
        eta_bound = e0 + (result.eta - 1.0) * delta
        ratio_b = None if eta_bound == 0.0 else (local_energy + interaction) / eta_bound
        out.append(ShiftDiagnostics(
            i, interaction, local_energy, delta, e0, eta_bound, interaction / delta, ratio_b,
        ))
    return out


def random_quadratic(n: int, n_edges: int, seed: int) -> PolyHamiltonian:
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    n_edges = min(n_edges, len(pairs))
    chosen = rng.choice(len(pairs), size=n_edges, replace=False)
    terms = {}
    for idx in chosen:
        w = float(rng.uniform(-1.0, 1.0))
        terms[pairs[int(idx)]] = w if w != 0.0 else 0.31
    return PolyHamiltonian(n, terms)


def random_pubo(n: int, n_terms: int, seed: int, max_arity: int = 4) -> PolyHamiltonian:
    rng = np.random.default_rng(seed)
    terms = {}
    guard = 0
    while len(terms) < n_terms and guard < 50 * n_terms:
        guard += 1
        arity = int(rng.integers(1, max_arity + 1))
        subset = tuple(sorted(rng.choice(n, size=arity, replace=False).tolist()))
        if subset in terms:
            continue
        w = float(rng.uniform(-1.0, 1.0))
        terms[subset] = w if w != 0.0 else 0.27
    return PolyHamiltonian(n, terms)


def random_graph(n: int, n_edges: int, seed: int, non_negative: bool = True) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    n_edges = min(n_edges, len(pairs))
    chosen = rng.choice(len(pairs), size=n_edges, replace=False)
    edges = {}
    for idx in chosen:
        w = float(rng.uniform(0.05, 1.0)) if non_negative else float(rng.uniform(-1.0, 1.0))
        edges[pairs[int(idx)]] = w
    return WeightedGraph(n, edges)


def naive_modularity(g: WeightedGraph, labels) -> float:
    """Literal double sum over ordered vertex pairs."""
    n = g.n_vertices
    adjacency = np.zeros((n, n))
    for (u, v), w in g.edges.items():
        adjacency[u, v] += w
        adjacency[v, u] += w
    m = adjacency.sum() / 2.0
    k = adjacency.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += adjacency[i, j] - k[i] * k[j] / (2.0 * m)
    return q / (2.0 * m)


def all_partitions(n: int):
    """All set partitions of range(n) as label lists (restricted growth)."""
    labels = [0] * n

    def grow(i, max_label):
        if i == n:
            yield list(labels)
            return
        for lab in range(max_label + 2):
            labels[i] = lab
            yield from grow(i + 1, max(max_label, lab))

    yield from grow(1, 0)


def harvest_loop(energies, accepted, keys, floor, delta, eta, penalties):
    """The sampled enumerator's harvest of one round, chain by chain and
    state by state: the reference for ``optimizer._harvest``, with its
    arguments and its returns as lists.

    The states pooled in earlier rounds are those ``penalties`` penalizes:
    the nonzero entries of a dense array, or the keys of a (sorted keys,
    values) pair.
    """
    if isinstance(penalties, tuple):
        pool = set(penalties[0].tolist())
    else:
        pool = set(np.flatnonzero(penalties).tolist())
    width = eta * delta
    new_keys, new_energies, new_values = [], [], []
    for c in range(keys.shape[1]):
        visited = np.concatenate(([0], 1 + np.flatnonzero(accepted[:, c])))
        chain_energies = energies[visited, c]
        chain_keys = keys[visited, c]
        floor = min(floor, float(chain_energies.min()))
        harvest = optimizer_module.window(floor, delta, eta)
        for bits_int, energy in zip(chain_keys.tolist(), chain_energies.tolist()):
            if not harvest.contains(energy) or bits_int in pool:
                continue
            pool.add(bits_int)
            penalty = width + optimizer_module._C1 * abs(energy) + optimizer_module._C2
            if not energy + penalty > harvest.hi:
                raise InternalError("penalty does not clear the window upper edge")
            new_keys.append(bits_int)
            new_energies.append(energy)
            new_values.append(penalty)
    return floor, new_keys, new_energies, new_values


def sampled_rounds(objective, delta, eta, seed):
    """The sampled enumerator with every round harvested and the pool
    filtered against the final window at the end: the reference for
    ``optimizer.enumerate_low_sampled``, which returns the dense table's
    targets unharvested once a round's chains have visited them all.

    It reads the package's round constants, ``_draw_chains``, ``_anneal``
    and ``_harvest``, so a difference lies in the rounds' ending alone.
    """
    opt = optimizer_module
    rng = np.random.default_rng(seed)
    table = opt._dense_table(objective)
    if table is not None:
        penalties = np.zeros(table.size)
        targets = np.flatnonzero(opt.window(table.min(), delta, eta).contains(table))
    else:
        penalties = (np.empty(0, dtype=np.int64), np.empty(0))
    pool, floor, rounds, stall = {}, math.inf, 0, 0
    while rounds < opt._MAX_ROUNDS and stall < opt._STALL_ROUNDS:
        pending = None
        if table is not None:
            pending = targets[penalties[targets] == 0.0]
            if pending.size == 0:
                break
        starts, flips, draws = opt._draw_chains(rng, objective.n_vars, opt._CHAINS)
        energies, accepted, keys = opt._anneal(
            objective, table, starts, flips, draws, penalties if pool else None, pending
        )
        floor, new_keys, new_energies, new_values = opt._harvest(energies, accepted, keys, floor, delta, eta, penalties)
        pool.update(zip(new_keys.tolist(), new_energies.tolist()))
        if table is not None:
            penalties[new_keys] = new_values
        else:
            merged = np.concatenate((penalties[0], new_keys))
            order = np.argsort(merged)
            penalties = (merged[order], np.concatenate((penalties[1], new_values))[order])
        rounds += 1
        stall = stall + 1 if not new_keys.size else 0
    win = opt.window(min(pool.values()), delta, eta)
    states = np.array(list(pool), dtype=np.int64)
    found = np.array(list(pool.values()))
    inside = win.contains(found)
    return opt._freeze(objective, states[inside], found[inside], win, complete=False)


def dead_end_gains(stacks, energies: np.ndarray) -> np.ndarray:
    """The dead-end test's gains over every (candidate, state) pair in one
    pass, the reference for ``reduction._dead_ends``: entry (y, x) is
    E(x) - E(y) - sum_g max_z [R_g(y, z) - R_g(x, z)] for the lowest
    ``PRUNE_CANDIDATES`` states y, with R_g(x, .) column x of group g of a
    stack. State x is dropped when a gain in its column exceeds tol."""
    k = min(reduction_module.PRUNE_CANDIDATES, energies.size)
    gain = energies - energies[:k, None]
    for stack in stacks:
        gain -= (stack[:, :, :k, None] - stack[:, :, None, :]).max(axis=1).sum(axis=0)
    return gain


def twin_states(rd, l: int, packed) -> list[int]:
    """Each packed state of community ``l`` with every member index taken
    mod that member's ``d``, one state at a time."""
    out = []
    for state in np.asarray(packed).tolist():
        twin, offset = 0, 0
        for c in rd.members[l]:
            enc = rd.rp.encodings[c]
            idx = ((state >> offset) & ((1 << enc.m_tilde) - 1)) % enc.d
            twin |= idx << offset
            offset += enc.m_tilde
        out.append(twin)
    return out


def without_aliases(rd, l: int, spectrum):
    """The reference for ``reduction._without_aliases``: the spectrum's
    states replaced by their twins, the first of each twin kept, sorted by
    energy and then by bit string, bit 0 first."""
    first: dict[int, float] = {}
    for twin, energy in zip(twin_states(rd, l, spectrum.packed), spectrum.energies.tolist()):
        first.setdefault(twin, energy)
    n = spectrum.n_vars
    order = sorted(first, key=lambda s: (first[s], [(s >> j) & 1 for j in range(n)]))
    return optimizer_module.LocalSpectrum(
        np.array(order, dtype=np.int64), np.array([first[s] for s in order]),
        spectrum.window, spectrum.complete, n,
    )


def reference_louvain(g: WeightedGraph, seed: int = 0) -> tuple[Partition, list[float]]:
    """Louvain with a dict-and-``sorted`` move sweep, the reference for
    ``clustering.louvain_with_history``: each visit rebuilds its links as a
    dict and tries the other communities in ascending id order, so among
    equal best gains the first, lowest id wins. Reads the package's
    resolution and tolerances."""
    resolution, min_gain, cycle_tol = (
        clustering_module._RESOLUTION, clustering_module._MIN_GAIN, clustering_module._CYCLE_TOL)
    m = g.total_weight()
    if m <= 0.0:
        return Partition.from_labels(range(g.n_vertices)), []
    exponent = math.frexp(m)[1]
    m = math.ldexp(m, -exponent)
    rng = np.random.default_rng(seed)
    adj = [dict() for _ in range(g.n_vertices)]
    for (u, v), w in g.edges.items():
        w = math.ldexp(w, -exponent)
        adj[u][v] = adj[u].get(v, 0.0) + w
        adj[v][u] = adj[v].get(u, 0.0) + w
    loops = [0.0] * g.n_vertices
    members = [[v] for v in range(g.n_vertices)]
    history = []
    prev_q = None
    while True:
        n = len(adj)
        k = [sum(adj[v].values()) + loops[v] for v in range(n)]
        labels = list(range(n))
        tot = k[:]
        moved_any = False
        while True:  # move sweeps
            moves = 0
            for v in rng.permutation(n):
                v = int(v)
                home = labels[v]
                links = {}
                for u, w in adj[v].items():
                    links[labels[u]] = links.get(labels[u], 0.0) + w
                k_home = links.get(home, 0.0)
                tot_home = tot[home] - k[v]
                best_gain, best_comm = min_gain, home
                for c in sorted(links):
                    if c == home:
                        continue
                    gain = (links[c] - k_home) / m - resolution * k[v] * (tot[c] - tot_home) / (2.0 * m * m)
                    if gain > best_gain:
                        best_gain, best_comm = gain, c
                if best_comm != home:
                    labels[v] = best_comm
                    tot[home] -= k[v]
                    tot[best_comm] += k[v]
                    moves += 1
            if moves == 0:
                break
            moved_any = True
        groups = {}
        for v, lab in enumerate(labels):
            groups.setdefault(lab, []).append(v)
        q = 0.0
        for nodes in groups.values():
            sigma_in = sum(loops[v] for v in nodes)
            sigma_tot = sum(k[v] for v in nodes)
            node_set = set(nodes)
            for v in nodes:
                for u, w in adj[v].items():
                    if u in node_set:
                        sigma_in += w
            q += sigma_in / (2.0 * m) - resolution * (sigma_tot / (2.0 * m)) ** 2
        history.append(q)
        if not moved_any or (prev_q is not None and q - prev_q <= cycle_tol):
            break
        prev_q = q
        # contract: one vertex per community, inside weight doubled into its loop
        remap = {lab: i for i, lab in enumerate(sorted(set(labels)))}
        new_adj = [dict() for _ in remap]
        new_loops = [0.0] * len(remap)
        new_members = [[] for _ in remap]
        for v, lab in enumerate(labels):
            new_loops[remap[lab]] += loops[v]
            new_members[remap[lab]].extend(members[v])
        for v in range(n):
            cv = remap[labels[v]]
            for u, w in adj[v].items():
                if u <= v:
                    continue
                cu = remap[labels[u]]
                if cu == cv:
                    new_loops[cv] += 2.0 * w
                else:
                    new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                    new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
        adj, loops, members = new_adj, new_loops, [sorted(c) for c in new_members]
        if len(adj) == 1:
            labels = [0]
            break
    final_labels = [0] * g.n_vertices
    for node, label in enumerate(labels):
        for original in members[node]:
            final_labels[original] = label
    return Partition.from_labels(final_labels), history


def coupling_rows(rd, l: int, packed: np.ndarray):
    """The reference for ``reduction._coupling_rows``: each member's register
    read out of the states one member at a time, each group's outside index
    grids built afresh, its couplings' entries added footprint by footprint
    through ``Coupling.values``, and each row count's groups joined with
    ``np.stack``. None when the rows would exceed ``MATERIALIZE_ENTRIES``."""
    rp, community_of = rd.rp, rd.partition.community_of
    groups: dict[tuple[int, ...], list] = {}
    for fp in rd.straddle_by_super[l]:
        groups.setdefault(tuple(c for c in fp if community_of[c] != l), []).append(fp)
    d = packed.size
    shapes = [tuple(rp.encodings[c].d for c in outside) for outside in groups]
    if d * sum(math.prod(shape) for shape in shapes) > reduction_module.MATERIALIZE_ENTRIES:
        return None
    registers, offset = {}, 0
    for c in rd.members[l]:
        registers[c] = (packed >> offset) & ((1 << rp.m_tildes[c]) - 1)
        offset += rp.m_tildes[c]
    by_rows: dict[int, list] = {}
    for (outside, fps), shape in zip(groups.items(), shapes):
        for j, (c, size) in enumerate(zip(outside, shape)):
            registers[c] = np.arange(size).reshape((-1,) + (1,) * (len(shape) - j))
        total = rp.couplings[fps[0]].values([registers[c] for c in fps[0]])
        for fp in fps[1:]:
            total += rp.couplings[fp].values([registers[c] for c in fp])
        by_rows.setdefault(total.size // d, []).append(total.reshape(-1, d))
    return [np.stack(rows) for rows in by_rows.values()]
