"""Optimizer backends: exhaustive scans and penalty-iteration sampling.

Two kinds of diagonal objective are supported behind one duck-typed
interface: compiled polynomial Hamiltonians and the table-backed reduced
objectives produced by the reduction stage. An objective exposes

  - ``n_vars``: number of binary variables,
  - ``scan_chunks()``: energies of all 2^n packed states in index order, as
    (first state, energies) chunks, which the exhaustive scans read,
  - ``energies_of(states)``: vectorized energies for packed state integers,
    which re-check every spectrum independently of the scan,
  - a batched replica interface for annealing, where a replica state is an
    array with one row per replica in an objective-specific layout:
    ``replicas(starts)`` builds it from start states (Python ints, or an
    int64 array when they fit), ``flipped(states, j)`` returns a copy with
    variable ``j[r]`` of replica r flipped, ``replica_energies(states)``
    evaluates every replica, and ``replica_terms`` counts the terms that
    evaluation sums per replica.

Every scan, annealer and spectrum holds states packed into int64 integers,
variable j on bit j.

A polynomial objective's chunks evaluate its terms on blocks of states. A
table objective's chunks are slabs of its register product grid: register k
on axis K-1-k, so a grid point's C-order flat index is its packed state,
and each energy or coupling table is broadcast-added onto the slab in the
order ``energies_of`` adds it, so the two agree bit for bit. An exhaustive
window is one pass: each chunk keeps its states inside the window of the
running minimum, and the kept states are filtered against the final one.

One annealing kernel runs a round's chains in lockstep. An objective with
2^n <= ``SLAB_ENTRIES`` states (n <= 16) anneals on a dense table: its 2^n
energies are evaluated once per call through ``replica_energies``, a replica
is its packed state, and each step is an XOR and a gather of the energy and
penalty of every proposal. Larger objectives anneal through the replica
interface. Both paths take the same Metropolis decisions on the same
numbers, so they visit the same states. The sampled enumerator stands in
for a quantum optimizer: each round's chains harvest low configurations
under fixed additive penalties on the states found in earlier rounds, and
rounds continue until no new in-window state appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoff import Window, window as make_window
from .errors import DomainError, InternalError, ResourceError
from .hamiltonian import (
    MAX_PACKED_VARS, SLAB_ENTRIES, PolyHamiltonian, SpinConfig, bits_to_int, int_to_bits, readonly_array,
)

# Hard cap for exhaustive scans (2^n energy evaluations, chunked).
SCAN_CEILING = 30

# Geometric cooling schedule shared by all annealing chains.
_T_START = 2.0
_T_END = 0.01
_STEPS_PER_VAR = 50


def _check_packable(objective, what: str) -> None:
    if objective.n_vars > MAX_PACKED_VARS:
        raise ResourceError(
            f"{what} packs states into 64-bit integers; {objective.n_vars} variables "
            f"exceed the {MAX_PACKED_VARS}-variable limit"
        )


@dataclass(frozen=True)
class OptimizerBudget:
    """Knobs for the sampled enumerator and annealing ground-state search."""

    max_sweeps: int = 64
    samples_per_round: int = 16
    c1: float = 0.01
    c2: float = 0.01
    stall_rounds: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.max_sweeps < 1 or self.samples_per_round < 1 or self.stall_rounds < 1:
            raise DomainError("budget counts must be positive")
        if not (0.0 < self.c1 < 1.0 and 0.0 < self.c2 < 1.0):
            raise DomainError("penalty constants c1, c2 must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class LocalSpectrum:
    """States of a community inside an energy window.

    ``packed`` holds the states as read-only int64 integers, variable j on
    bit j, and ``energies`` their energies as read-only float64. They are
    sorted ascending by energy, ties broken lexicographically by bit string
    (bit 0 first). ``complete`` is True only when the enumeration was
    exhaustive within the window. ``states`` is a derived view of
    (bit tuple, energy) pairs for readers outside the package.
    """

    packed: np.ndarray
    energies: np.ndarray
    window: Window
    complete: bool
    n_vars: int

    def __post_init__(self):
        object.__setattr__(self, "packed", readonly_array(self.packed, np.int64))
        object.__setattr__(self, "energies", readonly_array(self.energies, np.float64))

    @property
    def d(self) -> int:
        return self.packed.size

    @property
    def e0(self) -> float:
        return float(self.energies[0])

    @property
    def states(self) -> tuple[tuple[SpinConfig, float], ...]:
        configs = (int_to_bits(s, self.n_vars) for s in self.packed.tolist())
        return tuple(zip(configs, self.energies.tolist()))


def _freeze(objective, states: np.ndarray, claimed: np.ndarray, win: Window, complete: bool) -> LocalSpectrum:
    """Validate, sort, and freeze distinct packed states and their energies.

    Every energy is re-checked against the objective's ``energies_of`` and
    against the window on construction; disagreement is a bug, not bad
    input. States sort by energy, then by bit 0, bit 1, and so on.
    """
    if states.size == 0:
        raise InternalError("empty spectrum: the window always contains the running minimum")
    _check_packable(objective, "a spectrum")
    n = objective.n_vars
    actual = objective.energies_of(states)
    wrong = np.abs(claimed - actual) > 1e-9 * np.maximum(1.0, np.abs(claimed))
    if wrong.any():
        i = int(np.argmax(wrong))
        raise InternalError(f"stored energy {claimed[i]} disagrees with evaluation {actual[i]}")
    outside = ~_inside(claimed, win)
    if outside.any():
        raise InternalError(f"state energy {claimed[np.argmax(outside)]} lies outside the window {win}")
    bits = (states[:, None] >> np.arange(n)) & 1
    # bit 0 is the most significant digit of the tie-break key
    order = np.lexsort((bits @ (1 << np.arange(n - 1, -1, -1)), claimed))
    return LocalSpectrum(states[order], claimed[order], win, complete, n)


def _inside(energies: np.ndarray, win: Window) -> np.ndarray:
    """Vectorized ``Window.contains``."""
    return (energies >= win.lo - win.tol) & (energies <= win.hi + win.tol)


# -- objectives ------------------------------------------------------------


class PolyObjective:
    """Compiled view of a PolyHamiltonian for scanning and annealing.

    Annealing replicas are packed state integers, shape (R,).
    """

    def __init__(self, h: PolyHamiltonian):
        _check_packable(h, "a polynomial objective")
        self.h = h
        self.n_vars = h.n_vars
        self.masks, self.coeffs = h._term_arrays
        self.replica_terms = self.masks.size

    def energies_of(self, states: np.ndarray) -> np.ndarray:
        return self.h.energies(states)

    def energy_of(self, bits_int: int) -> float:
        return float(self.h.energies(np.array([bits_int], dtype=np.int64))[0])

    def scan_chunks(self):
        """Energies of all packed states in index order, as (first state,
        energies) chunks of up to ``SLAB_ENTRIES`` consecutive states."""
        total = 1 << self.n_vars
        for start in range(0, total, SLAB_ENTRIES):
            stop = min(start + SLAB_ENTRIES, total)
            yield start, self.energies_of(np.arange(start, stop, dtype=np.int64))

    def replicas(self, starts) -> np.ndarray:
        return np.array(starts, dtype=np.int64)

    def flipped(self, states: np.ndarray, j: np.ndarray) -> np.ndarray:
        return states ^ (np.int64(1) << j)

    def replica_energies(self, states: np.ndarray) -> np.ndarray:
        odd = np.bitwise_count(states[:, None] & self.masks) & 1
        return (1.0 - 2.0 * odd) @ self.coeffs


def as_objective(h):
    """Wrap a PolyHamiltonian; pass anything already objective-shaped through."""
    if isinstance(h, PolyHamiltonian):
        return PolyObjective(h)
    return h


# -- exhaustive enumeration --------------------------------------------------


def _check_scan(objective, ceiling: int) -> None:
    if objective.n_vars > min(ceiling, SCAN_CEILING):
        raise ResourceError(
            f"exhaustive scan over {objective.n_vars} variables exceeds the "
            f"{min(ceiling, SCAN_CEILING)}-variable ceiling; lower eta or cap the community size"
        )


def scan_minimum(objective) -> tuple[int, float]:
    """Lowest-energy state by full enumeration (lowest index wins ties).

    Refuses more than ``SCAN_CEILING`` variables with ResourceError.
    """
    _check_scan(objective, SCAN_CEILING)
    best_bits, best_e = 0, math.inf
    for start, energies in objective.scan_chunks():
        pos = int(np.argmin(energies))
        if energies[pos] < best_e:
            best_e = float(energies[pos])
            best_bits = start + pos
    return best_bits, best_e


def enumerate_window_exhaustive(h, win: Window, ceiling: int = SCAN_CEILING) -> LocalSpectrum:
    """Every configuration whose energy lies in the given window."""
    objective = as_objective(h)
    _check_scan(objective, ceiling)
    kept_states, kept_energies = [], []
    for start, energies in objective.scan_chunks():
        inside = np.flatnonzero(_inside(energies, win))
        kept_states.append(start + inside)
        kept_energies.append(energies[inside])
    return _freeze(objective, np.concatenate(kept_states), np.concatenate(kept_energies), win, True)


def enumerate_low_exhaustive(h, delta: float, eta: float, ceiling: int = SCAN_CEILING) -> LocalSpectrum:
    """Exhaustive [E0, E0 + eta * delta] enumeration in one pass.

    Each chunk keeps its states inside the window of the running minimum
    (with doubled tolerance, which absorbs the rounding of its upper edge).
    That window contains every state of the final one, because E0 is at most
    the running minimum and the tolerance grows with |E0| by far less than
    E0 falls below it. The kept states are then filtered against the final
    window, so the result equals a scan for E0 followed by a window scan.
    """
    objective = as_objective(h)
    _check_scan(objective, ceiling)
    e0 = math.inf
    kept_states, kept_energies = [], []
    for start, energies in objective.scan_chunks():
        pos = int(np.argmin(energies))
        if energies[pos] < e0:
            e0 = float(energies[pos])
        running = make_window(e0, delta, eta)
        keep = np.flatnonzero(energies <= running.hi + 2.0 * running.tol)
        kept_states.append(start + keep)
        kept_energies.append(energies[keep])
    win = make_window(e0, delta, eta)
    states, energies = np.concatenate(kept_states), np.concatenate(kept_energies)
    inside = _inside(energies, win)
    return _freeze(objective, states[inside], energies[inside], win, True)


# -- replica-batched annealing -------------------------------------------------


def _draw_chains(rng, n: int, chains: int):
    """Start states, flip variables and accept draws for one round.

    Each chain draws its start, then its flips, then its accept draws, one
    chain after the other. Returns the starts as Python ints and the flips
    and draws as (steps, chains) arrays.
    """
    steps = _STEPS_PER_VAR * n
    starts = []
    flips = np.empty((chains, steps), dtype=np.int64)
    draws = np.empty((chains, steps))
    for c in range(chains):
        if n <= MAX_PACKED_VARS:
            starts.append(int(rng.integers(0, 1 << n)))
        else:
            starts.append(bits_to_int(rng.integers(0, 2, size=n).tolist()))
        flips[c] = rng.integers(0, n, size=steps)
        draws[c] = rng.random(size=steps)
    return starts, np.ascontiguousarray(flips.T), np.ascontiguousarray(draws.T)


def _penalty_of(keys: np.ndarray, values: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Penalty of each packed state; ``keys`` is sorted and absent states get 0."""
    if keys.size == 0:
        return np.zeros(states.shape)
    pos = np.minimum(keys.searchsorted(states), keys.size - 1)
    return values[pos] * (keys[pos] == states)


def _dense_table(objective) -> np.ndarray | None:
    """The objective's energies of all 2^n packed states, or None when 2^n
    exceeds ``SLAB_ENTRIES``; the one place that picks the annealing path.

    The table is evaluated through ``replica_energies`` in blocks of about
    ``SLAB_ENTRIES`` temporary entries. Each block has a power-of-two number
    of rows, at least four: a BLAS matrix-vector product may sum a trailing
    group of fewer than four rows in another order than full groups, so
    every entry equals what the replica path computes in a round of a
    multiple of four replicas, such as the default 16.
    """
    total = 1 << objective.n_vars
    if total > SLAB_ENTRIES:
        return None
    per_block = max(1, SLAB_ENTRIES // max(1, objective.replica_terms))
    rows = min(total, max(4, 1 << (per_block.bit_length() - 1)))
    table = np.empty(total)
    for start in range(0, total, rows):
        block = objective.replicas(np.arange(start, start + rows, dtype=np.int64))
        table[start:start + rows] = objective.replica_energies(block)
    return table


def _anneal(objective, table, starts, flips: np.ndarray, draws: np.ndarray, penalties=None):
    """Run one round's chains in lockstep, one replica per chain on axis 0.

    Step s proposes flipping variable ``flips[s, r]`` of replica r and
    accepts by the Metropolis rule on the penalized energy change at the
    shared geometric temperature. ``table`` is ``_dense_table(objective)``;
    when it is an array the round runs on it, and ``penalties``, if given,
    is a dense array over all packed states. Otherwise the round runs
    through the replica interface, and ``penalties`` is a (sorted keys,
    values) pair over packed states, or None. Returns the energies after
    every step, shape (steps + 1, R) with the start in row 0; the accept
    mask, shape (steps, R); and the packed states in the energies' layout,
    which the replica path records only when penalties are given (else
    None). Recorded energies are bare objective values.
    """
    if table is not None:
        return _anneal_table(table, starts, flips, draws, penalties)
    steps = flips.shape[0]
    cool = (_T_END / _T_START) ** (1.0 / (steps - 1)) if steps > 1 else 1.0
    temperature = _T_START
    state = objective.replicas(starts)
    accept_shape = (len(starts),) + (1,) * (state.ndim - 1)
    energies = np.empty((steps + 1, len(starts)))
    energies[0] = objective.replica_energies(state)
    accepted = np.empty((steps, len(starts)), dtype=bool)
    keys = None
    if penalties is not None:
        keys = np.empty((steps + 1, len(starts)), dtype=np.int64)
        keys[0] = starts
        masks = np.int64(1) << flips
        penalty = _penalty_of(*penalties, keys[0])
    for s in range(steps):
        proposal = objective.flipped(state, flips[s])
        proposed = objective.replica_energies(proposal)
        delta = proposed - energies[s]
        if keys is not None:
            proposal_keys = keys[s] ^ masks[s]
            proposal_penalty = _penalty_of(*penalties, proposal_keys)
            delta = delta + proposal_penalty - penalty
        # exp(-max(delta, 0) / T) is 1 for delta <= 0, and draws lie in [0, 1)
        accept = draws[s] < np.exp(np.maximum(delta, 0.0) / -temperature)
        np.copyto(state, proposal, where=accept.reshape(accept_shape))
        energies[s + 1] = np.where(accept, proposed, energies[s])
        accepted[s] = accept
        if keys is not None:
            keys[s + 1] = np.where(accept, proposal_keys, keys[s])
            penalty = np.where(accept, proposal_penalty, penalty)
        temperature *= cool
    return energies, accepted, keys


def _anneal_table(table: np.ndarray, starts, flips: np.ndarray, draws: np.ndarray, penalty=None):
    """``_anneal`` on a dense energy table, taking the same decisions.

    A replica is its packed state, and the trajectory is the (steps + 1, R)
    array of states; the energies are gathered from it after the loop, and
    a step was accepted exactly when it changed the state. The change is
    ``((proposed - current) + p_new) - p_old`` as on the replica path. The
    rule ``draw < exp(-delta / T)`` leaves out the ``max(delta, 0)`` of
    ``_anneal``: for delta <= 0 the exponential is at least 1, or inf where
    it overflows, so it accepts exactly when the clamped rule does.
    """
    steps, chains = flips.shape
    cool = (_T_END / _T_START) ** (1.0 / (steps - 1)) if steps > 1 else 1.0
    temperature = _T_START
    keys = np.empty((steps + 1, chains), dtype=np.int64)
    keys[0] = starts
    key = keys[0]
    masks = np.int64(1) << flips
    current = table[key]
    if penalty is not None:
        current_penalty = penalty[key]
    delta = np.empty(chains)
    accept = np.empty(chains, dtype=bool)
    with np.errstate(over="ignore"):
        for mask, draw, following in zip(masks, draws, keys[1:]):
            proposal = key ^ mask
            np.subtract(table[proposal], current, out=delta)
            if penalty is not None:
                np.add(delta, penalty[proposal], out=delta)
                np.subtract(delta, current_penalty, out=delta)
            np.divide(delta, -temperature, out=delta)
            np.less(draw, np.exp(delta, out=delta), out=accept)
            following[...] = key
            np.copyto(following, proposal, where=accept)
            current = table[following]
            if penalty is not None:
                current_penalty = penalty[following]
            key = following
            temperature *= cool
    return table[keys], keys[1:] != keys[:-1], keys


# -- sampled enumeration ------------------------------------------------------


def _sample_window(objective, width: float, tol: float, budget: OptimizerBudget, veto):
    """Penalty-iteration sampling of the window of the given width.

    Returns the distinct packed states and energies found inside the final
    window, and that window, whose floor is the lowest energy found.
    """
    _check_packable(objective, "sampled enumeration")
    if width < 0.0:
        raise DomainError("window width must be non-negative")
    rng = np.random.default_rng(budget.seed)
    table = _dense_table(objective)
    if table is not None:
        penalties = np.zeros(table.size)
    else:
        penalties = (np.empty(0, dtype=np.int64), np.empty(0))
    pool: dict[int, float] = {}
    floor = math.inf
    rounds = 0
    stall = 0
    while rounds < budget.max_sweeps and stall < budget.stall_rounds:
        starts, flips, draws = _draw_chains(rng, objective.n_vars, budget.samples_per_round)
        energies, accepted, keys = _anneal(objective, table, starts, flips, draws, penalties)
        new_keys: list[int] = []
        new_values: list[float] = []
        for c in range(len(starts)):
            visited = np.concatenate(([0], 1 + np.flatnonzero(accepted[:, c])))
            chain_energies = energies[visited, c]
            chain_keys = keys[visited, c]
            floor = min(floor, float(chain_energies.min()))
            for i in np.flatnonzero(chain_energies <= floor + width + tol):
                bits_int, energy = int(chain_keys[i]), float(chain_energies[i])
                if bits_int in pool:
                    continue
                if veto is not None and veto(rounds, bits_int):
                    continue
                pool[bits_int] = energy
                penalty = width + budget.c1 * abs(energy) + budget.c2
                if not energy + penalty > floor + width:
                    raise InternalError("penalty does not clear the window upper edge")
                new_keys.append(bits_int)
                new_values.append(penalty)
        if new_keys and table is not None:
            penalties[new_keys] = new_values
        elif new_keys:
            merged = np.concatenate((penalties[0], np.array(new_keys, dtype=np.int64)))
            order = np.argsort(merged)
            penalties = (merged[order], np.concatenate((penalties[1], new_values))[order])
        rounds += 1
        stall = stall + 1 if not new_keys else 0
    if not pool:
        raise InternalError("sampling harvested no in-window state")
    e0 = min(pool.values())
    states = np.fromiter(pool.keys(), dtype=np.int64, count=len(pool))
    found = np.fromiter(pool.values(), dtype=np.float64, count=len(pool))
    final = Window(e0, e0 + width, max(tol, 1e-9 * max(1.0, abs(e0) + width)))
    inside = _inside(found, final)
    return states[inside], found[inside], final


def enumerate_window_sampled(h, win, budget: OptimizerBudget, veto=None) -> LocalSpectrum:
    """Penalty-iteration enumeration of a window of the given width.

    ``win`` may be a Window (its width is used) or a bare width. Each round
    runs ``samples_per_round`` annealing chains against the penalties fixed
    at the round's start, then harvests them in chain order. The window
    floor tracks the lowest energy measured so far; each state found inside
    the moving window receives an additive penalty
    ``p = width + c1 * |E| + c2`` so later rounds are pushed toward states
    not seen yet. Rounds stop after ``stall_rounds`` rounds without a new
    in-window state. The result is best-effort (``complete=False``).

    ``veto(round_index, bits) -> bool`` optionally discards measured states,
    which exists to exercise the recover-in-a-later-round behaviour.
    """
    if isinstance(win, Window):
        width, tol = win.width, win.tol
    else:
        width = float(win)
        tol = 1e-9 * max(1.0, width)
    objective = as_objective(h)
    states, energies, final = _sample_window(objective, width, tol, budget, veto)
    return _freeze(objective, states, energies, final, complete=False)


def enumerate_low_sampled(
    h, delta: float, eta: float, budget: OptimizerBudget, veto=None
) -> LocalSpectrum:
    """Sampled [E0, E0 + eta * delta] enumeration with a floating floor.

    The states are those ``enumerate_window_sampled`` keeps for the width
    eta * delta; the spectrum carries the window ``window(E0, delta, eta)``,
    whose tolerance contains that of the sampled window.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if delta < 0.0:
        raise DomainError("delta must be non-negative")
    objective = as_objective(h)
    width = eta * delta
    states, energies, sampled = _sample_window(objective, width, 1e-9 * max(1.0, width), budget, veto)
    return _freeze(objective, states, energies, make_window(sampled.lo, delta, eta), complete=False)


# -- ground-state search -------------------------------------------------------


def solve_ground_objective(
    objective, budget: OptimizerBudget | None = None, ceiling: int = SCAN_CEILING
) -> tuple[int, float]:
    """Lowest found state of any diagonal objective (exhaustive when it fits).

    Annealing visits the chains' states in chain order and keeps the first
    one that undercuts the best so far by more than 1e-15.
    """
    if objective.n_vars <= min(ceiling, SCAN_CEILING):
        return scan_minimum(objective)
    budget = budget or OptimizerBudget()
    rng = np.random.default_rng(budget.seed)
    table = _dense_table(objective)
    best_bits, best_e = 0, math.inf
    rounds = 0
    stall = 0
    while rounds < budget.max_sweeps and stall < budget.stall_rounds:
        starts, flips, draws = _draw_chains(rng, objective.n_vars, budget.samples_per_round)
        energies, accepted, _ = _anneal(objective, table, starts, flips, draws)
        found = None
        for c in range(len(starts)):
            trace = energies[:, c]
            step = 0
            while True:
                lower = np.flatnonzero(trace[step:] < best_e - 1e-15)
                if lower.size == 0:
                    break
                step += int(lower[0])
                best_e = float(trace[step])
                found = (c, step)
                step += 1
        if found is not None:
            c, step = found
            best_bits = starts[c]
            for j in flips[:step, c][accepted[:step, c]]:
                best_bits ^= 1 << int(j)
        rounds += 1
        stall = 0 if found is not None else stall + 1
    return best_bits, best_e


def solve_ground(
    h: PolyHamiltonian, budget: OptimizerBudget | None = None, ceiling: int = SCAN_CEILING
) -> tuple[SpinConfig, float]:
    """Best configuration and energy of a Hamiltonian."""
    bits_int, energy = solve_ground_objective(as_objective(h), budget, ceiling)
    return int_to_bits(bits_int, h.n_vars), energy
