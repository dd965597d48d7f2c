"""Optimizer backends: certified windows, exhaustive scans and
penalty-iteration sampling.

A local state can only take part in the global optimum when its community
energy lies within delta of the community ground energy, where delta bounds
the community's interactions with the rest of the system. The cut-offs that
compute delta live with the decomposition they read, in ``reduction``; the
window they define, [E0, E0 + eta * delta] with a scale-relative tolerance,
is ``window`` here, and every spectrum carries one.

Two kinds of diagonal objective are supported behind one duck-typed
interface: compiled polynomial Hamiltonians and the table-backed reduced
objectives produced by the reduction stage. An objective exposes

  - ``n_vars``: number of binary variables,
  - ``scan_chunks()``: energies of all 2^n packed states in index order, as
    (first state, energies) chunks, which the exhaustive scans read,
  - ``energies_of(states)``: vectorized energies for packed state integers,
    which re-check every spectrum independently of the scan,
  - ``replica_energies(keys)``: energies of a 1-d array of packed states,
    each on its own so that a state's energy does not depend on the batch
    it sits in, which annealing reads,
  - ``replica_terms``: the number of terms that evaluation sums per state.

Every scan, annealer and spectrum holds states packed into int64 integers,
variable j on bit j. Only a recombined anneal may exceed ``MAX_PACKED_VARS``
variables; its states are Python ints in an object array.

A polynomial objective's chunks evaluate its terms on blocks of states. A
table objective's chunks are slabs of its register product grid: register k
on axis K-1-k, so a grid point's C-order flat index is its packed state,
and each energy or coupling table is broadcast-added onto the slab in the
order ``energies_of`` adds it, so the two agree bit for bit. An exhaustive
window is one pass: each chunk keeps its states inside the window of the
running minimum, and the kept states are filtered against the final one.
The scans refuse more than ``SCAN_CEILING`` variables; which backend a
subproblem gets is the driver's choice.

One annealing kernel runs a round's chains in lockstep, and a replica is
its packed state: each step flips one bit of every replica with an XOR. An
objective with 2^n <= ``SLAB_ENTRIES`` states (n <= 16) anneals on a dense
table: its 2^n energies are evaluated once per call through
``replica_energies``, and each step gathers the energy and penalty of every
proposal from the table. Larger objectives evaluate every proposal through
``replica_energies``. Both paths take the same Metropolis decisions on the
same numbers, so they visit the same states. The sampled enumerator stands in
for a quantum optimizer: each round's chains harvest low configurations
under fixed additive penalties on the states found in earlier rounds, and
rounds continue until no new in-window state appears. On a dense table the
rounds also stop as soon as the table shows that no later round could find
one, and a sampled round ends as soon as its chains have visited every
window state of the table, which leaves every result as the full schedule
returns it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError, ResourceError
from .hamiltonian import (
    MAX_PACKED_VARS, SLAB_ENTRIES, PolyHamiltonian, SpinConfig, _check_packable, bits_to_int, int_to_bits,
    readonly_array,
)

# Hard cap for exhaustive scans (2^n energy evaluations, chunked).
SCAN_CEILING = 30

# Geometric cooling schedule shared by all annealing chains.
_T_START = 2.0
_T_END = 0.01
_STEPS_PER_VAR = 50


@dataclass(frozen=True)
class Window:
    """Closed energy interval with a scale-relative inclusion tolerance."""

    lo: float
    hi: float
    tol: float

    def contains(self, energy: float) -> bool:
        return self.lo - self.tol <= energy <= self.hi + self.tol

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _check_window_args(delta: float, eta: float) -> None:
    """The rules on delta and eta that every window obeys."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if delta < 0.0:
        raise DomainError(f"delta must be non-negative, got {delta}")


def window(e0: float, delta: float, eta: float) -> Window:
    """The retained interval [e0, e0 + eta * delta]."""
    _check_window_args(delta, eta)
    tol = 1e-9 * max(1.0, abs(e0) + delta)
    return Window(e0, e0 + eta * delta, tol)


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
    order = np.lexsort((_bit_reversal(states, n), claimed))
    return LocalSpectrum(states[order], claimed[order], win, complete, n)


# Each byte value with its eight bits in reverse order.
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _bit_reversal(states: np.ndarray, n: int) -> np.ndarray:
    """The tie-break key of packed states: their n low bits in reverse order,
    so that bit 0 is the key's most significant digit.

    Reversing the bits of every byte and then the byte order reverses all 64
    bits, in either byte order of the host; the shift drops the 64 - n bits
    above n, which are zero.
    """
    as_bytes = np.ascontiguousarray(states, dtype=np.int64).view(np.uint8)
    key = _REVERSED_BYTES[as_bytes].view(np.uint64)
    key.byteswap(inplace=True)
    key >>= np.uint64(64 - n)
    return key


def _inside(energies: np.ndarray, win: Window) -> np.ndarray:
    """Vectorized ``Window.contains``."""
    return (energies >= win.lo - win.tol) & (energies <= win.hi + win.tol)


# -- objectives ------------------------------------------------------------


class PolyObjective:
    """Compiled view of a PolyHamiltonian for scanning and annealing."""

    def __init__(self, h: PolyHamiltonian):
        _check_packable(h, "a polynomial objective")
        self.h = h
        self.n_vars = h.n_vars
        self.masks, self.coeffs = h._term_arrays
        self.replica_terms = self.masks.size

    def energies_of(self, states: np.ndarray) -> np.ndarray:
        return self.h.energies(states)

    def scan_chunks(self):
        """Energies of all packed states in index order, as (first state,
        energies) chunks of up to ``SLAB_ENTRIES`` consecutive states."""
        total = 1 << self.n_vars
        for start in range(0, total, SLAB_ENTRIES):
            stop = min(start + SLAB_ENTRIES, total)
            yield start, self.energies_of(np.arange(start, stop, dtype=np.int64))

    def replica_energies(self, states: np.ndarray) -> np.ndarray:
        odd = np.bitwise_count(states[:, None] & self.masks) & 1
        return np.where(odd, -self.coeffs, self.coeffs).sum(axis=1)


def as_objective(h):
    """Wrap a PolyHamiltonian; pass anything already objective-shaped through."""
    if isinstance(h, PolyHamiltonian):
        return PolyObjective(h)
    return h


# -- exhaustive enumeration --------------------------------------------------


def _check_scan(objective) -> None:
    if objective.n_vars > SCAN_CEILING:
        raise ResourceError(
            f"exhaustive scan over {objective.n_vars} variables exceeds the "
            f"{SCAN_CEILING}-variable ceiling; lower eta or cap the community size"
        )


def scan_minimum(objective) -> tuple[int, float]:
    """Lowest-energy state by full enumeration (lowest index wins ties).

    Refuses more than ``SCAN_CEILING`` variables with ResourceError.
    """
    _check_scan(objective)
    best_bits, best_e = 0, math.inf
    for start, energies in objective.scan_chunks():
        pos = int(np.argmin(energies))
        if energies[pos] < best_e:
            best_e = float(energies[pos])
            best_bits = start + pos
    return best_bits, best_e


def enumerate_low_exhaustive(h, delta: float, eta: float) -> LocalSpectrum:
    """Exhaustive [E0, E0 + eta * delta] enumeration in one pass.

    Each chunk keeps its states inside the window of the running minimum
    (with doubled tolerance, which absorbs the rounding of its upper edge).
    That window contains every state of the final one, because E0 is at most
    the running minimum and the tolerance grows with |E0| by far less than
    E0 falls below it. The kept states are then filtered against the final
    window, so the result equals a scan for E0 followed by a window scan.
    """
    objective = as_objective(h)
    _check_scan(objective)
    e0 = math.inf
    kept_states, kept_energies = [], []
    for start, energies in objective.scan_chunks():
        pos = int(np.argmin(energies))
        if energies[pos] < e0:
            e0 = float(energies[pos])
        running = window(e0, delta, eta)
        keep = np.flatnonzero(energies <= running.hi + 2.0 * running.tol)
        kept_states.append(start + keep)
        kept_energies.append(energies[keep])
    win = window(e0, delta, eta)
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
    ``SLAB_ENTRIES`` temporary entries; a key's energy does not depend on
    its batch, so every entry equals what the replica path computes.
    """
    total = 1 << objective.n_vars
    if total > SLAB_ENTRIES:
        return None
    rows = max(1, SLAB_ENTRIES // max(1, objective.replica_terms))
    table = np.empty(total)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        table[start:stop] = objective.replica_energies(np.arange(start, stop, dtype=np.int64))
    return table


def _anneal(objective, table, starts, flips: np.ndarray, draws: np.ndarray, penalties=None, pending=None):
    """Run one round's chains in lockstep, one replica per chain.

    A replica is its packed state: an int64 key, or a Python int in an
    object array above ``MAX_PACKED_VARS`` variables. Step s proposes
    flipping variable ``flips[s, r]`` of replica r and accepts by the
    Metropolis rule on the penalized energy change
    ``((proposed - current) + p_new) - p_old`` at the shared geometric
    temperature. ``table`` is ``_dense_table(objective)``; when it is an
    array, energies are gathered from it and ``penalties``, if given, is a
    dense array over all packed states. Otherwise energies come from
    ``replica_energies`` and ``penalties`` is a (sorted keys, values) pair
    over packed states, or None. The rule ``draw < exp(-delta / T)`` needs
    no ``max(delta, 0)``: for delta <= 0 the exponential is at least 1, or
    inf where it overflows, and draws lie in [0, 1).

    ``pending``, given on the dense path only, is an int64 array of states
    the round must reach. Every ``n_vars`` steps the states the chains
    visited since the last check are marked in a 2^n mask, and the round
    ends at the first check that finds every pending state marked; the
    states still unmarked are kept for the next check, so a check costs the
    block plus them. The trajectory returned is then cut at that step, a
    prefix of the full schedule's.

    Returns ``(energies, accepted, keys)``: ``keys`` is the trajectory's
    packed states, shape (steps + 1, R) with the starts in row 0;
    ``energies`` their bare objective energies in the same layout; and
    ``accepted`` the accept mask, shape (steps, R), true exactly where a
    step changed the state.
    """
    steps, chains = flips.shape
    cool = (_T_END / _T_START) ** (1.0 / (steps - 1)) if steps > 1 else 1.0
    temperature = _T_START
    dense = table is not None
    wide = objective.n_vars > MAX_PACKED_VARS
    keys = np.empty((steps + 1, chains), dtype=object if wide else np.int64)
    keys[0] = starts
    key = keys[0]
    masks = 1 << flips.astype(object) if wide else np.int64(1) << flips
    if dense:
        current = table[key]
        rows = itertools.repeat(None)
    else:
        # recorded row by row; the dense path gathers them after the loop
        energies = np.empty((steps + 1, chains))
        energies[0] = current = objective.replica_energies(key)
        rows = energies[1:]
    if penalties is not None:
        current_penalty = penalties[key] if dense else _penalty_of(*penalties, key)
    if pending is not None:
        visited = np.zeros(table.size, dtype=bool)
        visited[key] = True
        block = objective.n_vars
    delta = np.empty(chains)
    accept = np.empty(chains, dtype=bool)
    with np.errstate(over="ignore"):
        for step, (mask, draw, following, row) in enumerate(zip(masks, draws, keys[1:], rows), start=1):
            proposal = key ^ mask
            if dense:
                np.subtract(table[proposal], current, out=delta)
            else:
                proposed = objective.replica_energies(proposal)
                np.subtract(proposed, current, out=delta)
            if penalties is not None:
                proposal_penalty = penalties[proposal] if dense else _penalty_of(*penalties, proposal)
                np.add(delta, proposal_penalty, out=delta)
                np.subtract(delta, current_penalty, out=delta)
            np.divide(delta, -temperature, out=delta)
            np.less(draw, np.exp(delta, out=delta), out=accept)
            following[...] = key
            np.copyto(following, proposal, where=accept)
            # the dense path gathers, which is cheaper than a masked copy
            if dense:
                current = table[following]
                if penalties is not None:
                    current_penalty = penalties[following]
            else:
                row[...] = current
                np.copyto(row, proposed, where=accept)
                current = row
                if penalties is not None:
                    np.copyto(current_penalty, proposal_penalty, where=accept)
            key = following
            temperature *= cool
            if pending is not None and step % block == 0:
                visited[keys[step - block + 1:step + 1]] = True
                pending = pending[~visited[pending]]
                if pending.size == 0:
                    keys = keys[:step + 1]
                    break
    if dense:
        energies = table[keys]
    return energies, keys[1:] != keys[:-1], keys


# -- sampled enumeration ------------------------------------------------------


def _sample_window(objective, width: float, budget: OptimizerBudget, veto):
    """Penalty-iteration sampling of the window of the given width.

    Returns the distinct packed states and energies found inside the final
    window, and its floor, the lowest energy found.

    On a dense table a round must reach ``targets``, the states with
    ``table <= table.min() + width + tol``, unless ``enumerate_low_sampled``
    names a reason to keep whole rounds. Every chain's harvest threshold
    ``floor + width + tol`` is at least that edge, so a round cut once its
    chains visited all of them still pools every one.
    """
    _check_packable(objective, "sampled enumeration")
    tol = 1e-9 * max(1.0, width)
    rng = np.random.default_rng(budget.seed)
    table = _dense_table(objective)
    targets = None
    if table is not None:
        penalties = np.zeros(table.size)
        lowest = table.min()
        edge = lowest + width
        gap = (table > edge + tol) & (table <= edge + 1e-9 * max(1.0, abs(lowest) + width))
        if veto is None and not gap.any():
            targets = np.flatnonzero(table <= edge + tol)
    else:
        penalties = (np.empty(0, dtype=np.int64), np.empty(0))
    pool: dict[int, float] = {}
    floor = math.inf
    rounds = 0
    stall = 0
    while rounds < budget.max_sweeps and stall < budget.stall_rounds:
        # Every state the harvest would take is pooled (a pooled state's
        # penalty is positive). The table's lowest state is one of them, so
        # the floor cannot fall either, and no later round can pool a state.
        if table is not None and penalties[table <= floor + width + tol].all():
            break
        starts, flips, draws = _draw_chains(rng, objective.n_vars, budget.samples_per_round)
        pending = None if targets is None else targets[penalties[targets] == 0.0]
        energies, accepted, keys = _anneal(objective, table, starts, flips, draws, penalties, pending)
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
    inside = _inside(found, Window(e0, e0 + width, 1e-9 * max(1.0, abs(e0) + width)))
    return states[inside], found[inside], e0


def enumerate_low_sampled(
    h, delta: float, eta: float, budget: OptimizerBudget, veto=None
) -> LocalSpectrum:
    """Sampled [E0, E0 + eta * delta] enumeration with a floating floor.

    Each round runs ``samples_per_round`` annealing chains against the
    penalties fixed at the round's start, then harvests them in chain order.
    The window floor tracks the lowest energy measured so far; each state
    found inside the moving window of width eta * delta receives an additive
    penalty ``p = width + c1 * |E| + c2`` so later rounds are pushed toward
    states not seen yet. Rounds stop after ``stall_rounds`` rounds without a
    new in-window state, or after ``max_sweeps`` rounds. On a dense table
    (n <= 16) they also stop before a round once every state the harvest
    would take is already pooled. The table's lowest state is then pooled,
    so the floor is the table's minimum: a later round can neither lower it
    nor pool a state, and the rounds left would return the same pool in the
    same order. The states kept are those inside the final window of that
    width above the lowest energy found, E0; the spectrum carries
    ``window(E0, delta, eta)``, whose tolerance contains that window's. The
    result is best-effort (``complete=False``).

    On a dense table a round also ends early: ``_anneal`` is given the
    table states within width of the table's minimum that are not pooled
    yet, and stops the round at the first check, every n steps, at which
    its chains have visited all of them. The harvest then pools them all,
    the stop above ends sampling, and the spectrum is the full schedule's;
    only out-of-window states of the round's tail go unvisited. Rounds stay
    whole when ``veto`` is given, since it may refuse a visited state, and
    when a table state lies above the harvest's tolerance of the window's
    upper edge but within the final filter's, where the tail decides
    whether it is kept.

    ``veto(round_index, bits) -> bool`` optionally discards measured states,
    which exists to exercise the recover-in-a-later-round behaviour.
    """
    _check_window_args(delta, eta)
    objective = as_objective(h)
    states, energies, e0 = _sample_window(objective, eta * delta, budget, veto)
    return _freeze(objective, states, energies, window(e0, delta, eta), complete=False)


# -- ground-state search -------------------------------------------------------


def solve_ground_objective(objective, budget: OptimizerBudget) -> tuple[int, float]:
    """Lowest state of any diagonal objective found by annealing.

    The rounds visit the chains' states in chain order and keep the first
    one that undercuts the best so far by more than 1e-15. Rounds stop
    after ``stall_rounds`` rounds without a new best, or after
    ``max_sweeps`` rounds. On a dense table (n <= 16) they also stop once
    the best is the table's minimum, which no later state can undercut, so
    the result is the full schedule's.

    Unlike sampled windows, the ground search keeps every round whole. Among
    tied states, or states within 1e-15 of the minimum, the chain order
    picks the one returned: a chain's later steps are read before the next
    chain's, so a round cut once the minimum was visited could return
    another state.
    """
    rng = np.random.default_rng(budget.seed)
    table = _dense_table(objective)
    # no energy equals nan, so without a table the rounds run their full schedule
    lowest = math.nan if table is None else table.min()
    best_bits, best_e = 0, math.inf
    rounds = 0
    stall = 0
    while rounds < budget.max_sweeps and stall < budget.stall_rounds and best_e != lowest:
        starts, flips, draws = _draw_chains(rng, objective.n_vars, budget.samples_per_round)
        energies, _, keys = _anneal(objective, table, starts, flips, draws)
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
            best_bits = int(keys[step, c])
        rounds += 1
        stall = 0 if found is not None else stall + 1
    return best_bits, best_e
