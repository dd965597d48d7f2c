"""Optimizer backends: certified windows, exhaustive scans and
penalty-iteration sampling.

A local state can only take part in the global optimum when its community
energy lies within delta of the community ground energy, where delta bounds
the community's interactions with the rest of the system. The cut-offs that
compute delta live with the decomposition they read, in ``reduction``; the
window they define, [E0, E0 + eta * delta] with a scale-relative tolerance,
is ``window`` here. Every test of a state against a window is the
``contains`` of one built by ``window``, which the sampled harvest builds
over every chain's floor at once; every spectrum carries one.

Two kinds of diagonal objective share one duck-typed interface:
``PolyHamiltonian`` and the reduction stage's ``TableObjective``. An
objective exposes

  - ``n_vars``: number of binary variables,
  - ``scan_chunks()``: energies of all 2^n packed states in index order, as
    (first state, energies) chunks, which the exhaustive scans read,
  - ``energies(keys)``: energies of a 1-d array of packed states, each
    summed in one fixed order so that a state's energy does not depend on
    the batch it sits in, which annealing and every spectrum's re-check
    read.

Every scan, annealer and spectrum holds states packed into int64 integers,
variable j on bit j. Only a recombined anneal may exceed ``MAX_PACKED_VARS``
variables; its states are Python ints in an object array.

A polynomial objective's chunks are its ``energies`` of blocks of states. A
table objective's chunks are slabs of its register product grid: register k
on axis K-1-k, so a grid point's C-order flat index is its packed state,
and each energy or coupling table is broadcast-added onto the slab in the
order ``energies`` adds it, so the two agree bit for bit. An exhaustive
window is one pass: each chunk is held back until the next arrives and then
keeps its states inside the window of the running minimum, and the last
chunk, the only one of a window over at most 16 variables, is filtered
once against the final window, as the earlier chunks' kept states are.
The scans refuse more than ``SCAN_CEILING`` variables; which backend a
subproblem gets is the driver's choice.

One annealing kernel runs a round's chains in lockstep, and a replica is
its packed state: each step flips one bit of every replica with an XOR. An
objective with 2^n <= ``SLAB_ENTRIES`` states (n <= 16) anneals on a dense
table, its one scan chunk, and each step gathers the energy and penalty of
every proposal from the table. Larger objectives evaluate every proposal
through ``energies``. Both paths take the same Metropolis decisions on the
same numbers, so they visit the same states. The sampled enumerator stands in
for a quantum optimizer: each round's chains harvest low configurations
under fixed additive penalties on the states found in earlier rounds, and
rounds continue until no new in-window state appears. On a dense table a
round ends as soon as its chains have visited every window state of the
table not pooled yet, and such a round returns those window states, with no
harvest, which leaves every result as the full schedule returns it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError, ResourceError
from .hamiltonian import (
    MAX_PACKED_VARS, SLAB_ENTRIES, SpinConfig, _check_packable, bits_to_int, int_to_bits, readonly_array,
)

# Hard cap for exhaustive scans (2^n energy evaluations, chunked).
SCAN_CEILING = 30

# Geometric cooling schedule shared by all annealing chains.
_T_START = 2.0
_T_END = 0.01
_STEPS_PER_VAR = 50

# Rounds of the sampled enumerator and the ground search: at most
# _MAX_ROUNDS rounds of _CHAINS chains, ending after _STALL_ROUNDS rounds
# without a new in-window state or a new best. A pooled state's penalty is
# width + _C1 * |E| + _C2.
_MAX_ROUNDS = 64
_CHAINS = 16
_STALL_ROUNDS = 3
_C1 = _C2 = 0.01


@dataclass(frozen=True)
class Window:
    """Closed energy interval with a scale-relative inclusion tolerance, or
    one per entry when ``window`` is given an array of ground energies."""

    lo: float
    hi: float
    tol: float

    def contains(self, energy):
        """Whether ``energy`` lies in the interval, widened by ``tol`` on
        each side; elementwise, broadcast against the bounds, on arrays."""
        return (energy >= self.lo - self.tol) & (energy <= self.hi + self.tol)


def _check_window_args(delta: float, eta: float) -> None:
    """The rules on delta and eta that every window obeys."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if not 0.0 <= delta < math.inf:
        raise DomainError(f"delta must be finite and non-negative, got {delta}")


def window(e0, delta: float, eta: float) -> Window:
    """The retained interval [e0, e0 + eta * delta], or one per entry of an
    array ``e0``."""
    _check_window_args(delta, eta)
    tol = 1e-9 * (abs(e0) + delta)
    return Window(e0, e0 + eta * delta, tol)


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

    @classmethod
    def in_order(cls, packed, energies, window: Window, complete: bool, n_vars: int) -> LocalSpectrum:
        """The spectrum of these distinct states, sorted as every spectrum is."""
        order = np.lexsort((_bit_reversal(packed, n_vars), energies))
        return cls(packed[order], energies[order], window, complete, n_vars)

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

    Every energy is re-checked against the objective's ``energies`` and
    against the window on construction; disagreement is a bug, not bad
    input. States sort by energy, then by bit 0, bit 1, and so on.
    """
    if states.size == 0:
        raise InternalError("empty spectrum: the window always contains the running minimum")
    _check_packable(objective, "a spectrum")
    n = objective.n_vars
    actual = objective.energies(states)
    # equal energies meet the tolerance and the extremes decide the window;
    # a NaN equals nothing, and fails the window test
    if (claimed != actual).any():
        wrong = np.abs(claimed - actual) > 1e-9 * np.maximum(1.0, np.abs(claimed))
        if wrong.any():
            i = int(np.argmax(wrong))
            raise InternalError(f"stored energy {claimed[i]} disagrees with evaluation {actual[i]}")
    if not (claimed.min() >= win.lo - win.tol and claimed.max() <= win.hi + win.tol):
        outside = ~win.contains(claimed)
        if outside.any():
            raise InternalError(f"state energy {claimed[np.argmax(outside)]} lies outside the window {win}")
    return LocalSpectrum.in_order(states, claimed, win, complete, n)


# Each byte value with its eight bits in reverse order.
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _bit_reversal(states: np.ndarray, n: int) -> np.ndarray:
    """The tie-break key of packed states: their n low bits in reverse order,
    so that bit 0 is the key's most significant digit.

    Reversing the bits of every little-endian byte and reading the bytes as
    one big-endian word reverses all 64 bits, in either byte order of the
    host; the shift drops the 64 - n bits above n, which are zero.
    """
    as_bytes = np.ascontiguousarray(states, dtype="<i8").view(np.uint8)
    return _REVERSED_BYTES[as_bytes].view(">u8") >> np.uint64(64 - n)


# -- exhaustive enumeration --------------------------------------------------


def _check_scan(objective) -> None:
    if objective.n_vars > SCAN_CEILING:
        raise ResourceError(
            f"exhaustive scan over {objective.n_vars} variables exceeds the "
            f"{SCAN_CEILING}-variable ceiling; lower eta or use the auto or annealing backend"
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


def enumerate_low_exhaustive(objective, delta: float, eta: float) -> LocalSpectrum:
    """Exhaustive [E0, E0 + eta * delta] enumeration in one pass.

    Each chunk is held back until the next one arrives, and then keeps its
    states inside the window of the running minimum (with doubled
    tolerance, which absorbs the rounding of its upper edge). That window
    contains every state of the final one, because E0 is at most the
    running minimum and the tolerance grows with |E0| by far less than E0
    falls below it. The last chunk, the only one of a scan over at most
    ``SLAB_ENTRIES`` states, is filtered once against the final window, and
    the states the earlier chunks kept are filtered against it too, so the
    result equals a scan for E0 followed by a window scan.
    """
    _check_scan(objective)
    e0 = math.inf
    kept_states, kept_energies = [], []
    held = None
    for start, energies in objective.scan_chunks():
        pos = int(np.argmin(energies))
        if energies[pos] < e0:
            e0 = float(energies[pos])
        if held is not None:
            running = window(e0, delta, eta)
            keep = np.flatnonzero(held[1] <= running.hi + 2.0 * running.tol)
            kept_states.append(held[0] + keep)
            kept_energies.append(held[1][keep])
        held = start, energies
    win = window(e0, delta, eta)
    start, energies = held
    inside = np.flatnonzero(win.contains(energies))
    states, energies = start + inside, energies[inside]
    if kept_states:
        earlier = np.concatenate(kept_energies)
        inside = win.contains(earlier)
        states = np.concatenate((np.concatenate(kept_states)[inside], states))
        energies = np.concatenate((earlier[inside], energies))
    return _freeze(objective, states, energies, win, True)


# -- replica-batched annealing -------------------------------------------------


def _draw_chains(rng, n: int, chains: int):
    """Start states, flip variables and accept draws for one round.

    One generator call per array, in this order: every chain's start, then
    the flips, then the accept draws, both drawn in the (steps, chains)
    layout ``_anneal`` reads. Above ``MAX_PACKED_VARS`` variables the starts
    are one (chains, n) bit draw, one row per chain. Returns the starts as
    Python ints and the flips and draws as (steps, chains) arrays.
    """
    steps = _STEPS_PER_VAR * n
    if n <= MAX_PACKED_VARS:
        starts = rng.integers(0, 1 << n, size=chains).tolist()
    else:
        starts = [bits_to_int(row) for row in rng.integers(0, 2, size=(chains, n)).tolist()]
    return starts, rng.integers(0, n, size=(steps, chains)), rng.random((steps, chains))


def _penalty_of(keys: np.ndarray, values: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Penalty of each packed state; ``keys`` is sorted and absent states get 0."""
    if keys.size == 0:
        return np.zeros(states.shape)
    pos = np.minimum(keys.searchsorted(states), keys.size - 1)
    return values[pos] * (keys[pos] == states)


def _dense_table(objective) -> np.ndarray | None:
    """The objective's energies of all 2^n packed states, or None when 2^n
    exceeds ``SLAB_ENTRIES``; the one place that picks the annealing path.

    The table is the objective's one scan chunk, so its entries are the
    exhaustive scan's, and ``energies`` of every key, bit for bit.
    """
    if 1 << objective.n_vars > SLAB_ENTRIES:
        return None
    [(_, table)] = objective.scan_chunks()
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
    ``energies`` and ``penalties`` is a (sorted keys, values) pair
    over packed states, or None. Each step writes its proposals straight
    into the trajectory row and puts the rejected replicas' keys back,
    rejecting where ``draw >= exp(-delta / T)``: the exact complement of
    the rule ``draw < exp(-delta / T)`` on the non-NaN values ``exp``
    returns. The rule needs no ``max(delta, 0)``: for delta <= 0 the
    exponential is at least 1, or inf where it overflows, and draws lie in
    [0, 1).

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
        energies[0] = current = objective.energies(key)
        rows = energies[1:]
    if penalties is not None:
        current_penalty = penalties[key] if dense else _penalty_of(*penalties, key)
    if pending is not None:
        visited = np.zeros(table.size, dtype=bool)
        visited[key] = True
        block = objective.n_vars
    delta = np.empty(chains)
    reject = np.empty(chains, dtype=bool)
    with np.errstate(over="ignore"):
        for step, (mask, draw, following, row) in enumerate(zip(masks, draws, keys[1:], rows), start=1):
            np.bitwise_xor(key, mask, out=following)
            if dense:
                np.subtract(table[following], current, out=delta)
            else:
                proposed = objective.energies(following)
                np.subtract(proposed, current, out=delta)
            if penalties is not None:
                proposal_penalty = penalties[following] if dense else _penalty_of(*penalties, following)
                np.add(delta, proposal_penalty, out=delta)
                np.subtract(delta, current_penalty, out=delta)
            np.divide(delta, -temperature, out=delta)
            np.greater_equal(draw, np.exp(delta, out=delta), out=reject)
            np.copyto(following, key, where=reject)
            # the dense path gathers, which is cheaper than a masked copy
            if dense:
                current = table[following]
                if penalties is not None:
                    current_penalty = penalties[following]
            else:
                row[...] = proposed
                np.copyto(row, current, where=reject)
                current = row
                if penalties is not None:
                    np.copyto(proposal_penalty, current_penalty, where=reject)
                    current_penalty = proposal_penalty
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


def _harvest(energies: np.ndarray, accepted: np.ndarray, keys: np.ndarray, floor: float, delta: float, eta: float,
             penalties):
    """Harvest one ``_anneal`` round in (chain, step) order, in one pass.

    A chain's visited states are its start and its accepted steps. Chain c's
    floor is the lowest of ``floor`` and the energies chains 0..c visited,
    and a state is pooled at its first occurrence inside
    ``window(floor_c, delta, eta)`` of its chain, unless ``penalties`` (a
    dense array, or a (sorted keys, values) pair) already penalizes it, as
    every state pooled in an earlier round is. Returns the floor after the
    round and the new states' keys, energies and penalties
    ``width + _C1 * |E| + _C2``, in order of first occurrence. Each penalty
    must clear its own chain's window edge.
    """
    visited = np.ones(keys.shape, dtype=bool)
    visited[1:] = accepted
    floors = np.minimum.accumulate(np.minimum(np.where(visited, energies, np.inf).min(axis=0), floor))
    win = window(floors, delta, eta)
    inside = visited & win.contains(energies)
    chain, step = np.nonzero(inside.T)
    found = keys[step, chain]
    _, first = np.unique(found, return_index=True)
    first.sort()
    earlier = _penalty_of(*penalties, found[first]) if isinstance(penalties, tuple) else penalties[found[first]]
    first = first[earlier == 0.0]
    chain, found, found_energies = chain[first], found[first], energies[step[first], chain[first]]
    values = eta * delta + _C1 * np.abs(found_energies) + _C2
    if not (found_energies + values > win.hi[chain]).all():
        raise InternalError("penalty does not clear the window upper edge")
    return float(floors[-1]), found, found_energies, values


def enumerate_low_sampled(objective, delta: float, eta: float, seed: int) -> LocalSpectrum:
    """Sampled [E0, E0 + eta * delta] enumeration with a floating floor.

    Each round runs ``_CHAINS`` annealing chains, drawn from
    ``default_rng(seed)``, against the penalties fixed at the round's start;
    while nothing is pooled every penalty is 0.0, so such a round runs
    without penalties. ``_harvest`` then reads the round in one vectorized
    pass, in chain order. The floor tracks the lowest energy measured so
    far, and the harvest pools every state inside
    ``window(floor, delta, eta)``; a pooled state receives an additive
    penalty ``p = width + _C1 * |E| + _C2`` so later rounds are pushed toward
    states not seen yet. Rounds stop after ``_STALL_ROUNDS`` rounds without
    a new in-window state, or after ``_MAX_ROUNDS`` rounds. The states kept
    are those inside ``window(E0, delta, eta)`` for the lowest energy found,
    E0, and the spectrum carries that window. At any floor at or above E0
    the harvest's window reaches past that one's upper edge, so a state the
    final window keeps is pooled whenever a chain visits it. The result is
    best-effort (``complete=False``).

    On a dense table (n <= 16) the targets are the table states inside
    ``window(table.min(), delta, eta)``, and ``_anneal`` ends a round at the
    first check at which its chains have visited every target not yet
    pooled. Such a round returns the targets, unharvested: its harvest
    would pool every target left, the table minimum among them, so the
    floor would be final, the pool's states inside the final window would
    be the targets, and no later round would read its penalties. The
    spectrum is the full schedule's. A round whose chains reach the last
    target only in the block of its final check runs its whole schedule,
    so it is harvested, and sampling stops before the next round because
    every target is pooled.
    """
    _check_window_args(delta, eta)
    _check_packable(objective, "sampled enumeration")
    rng = np.random.default_rng(seed)
    table = _dense_table(objective)
    if table is not None:
        penalties = np.zeros(table.size)
        final = window(float(table.min()), delta, eta)
        targets = np.flatnonzero(final.contains(table))
    else:
        penalties = (np.empty(0, dtype=np.int64), np.empty(0))
    pool: dict[int, float] = {}
    floor = math.inf
    rounds = 0
    stall = 0
    while rounds < _MAX_ROUNDS and stall < _STALL_ROUNDS:
        pending = None
        if table is not None:
            pending = targets[penalties[targets] == 0.0]
            if pending.size == 0:
                break
        starts, flips, draws = _draw_chains(rng, objective.n_vars, _CHAINS)
        energies, accepted, keys = _anneal(
            objective, table, starts, flips, draws, penalties if pool else None, pending
        )
        if keys.shape[0] <= flips.shape[0]:
            # cut short: the chains visited every target not yet pooled
            return _freeze(objective, targets, table[targets], final, complete=False)
        floor, new_keys, new_energies, new_values = _harvest(energies, accepted, keys, floor, delta, eta, penalties)
        pool.update(zip(new_keys.tolist(), new_energies.tolist()))
        if new_keys.size and table is not None:
            penalties[new_keys] = new_values
        elif new_keys.size:
            merged = np.concatenate((penalties[0], new_keys))
            order = np.argsort(merged)
            penalties = (merged[order], np.concatenate((penalties[1], new_values))[order])
        rounds += 1
        stall = stall + 1 if not new_keys.size else 0
    if not pool:
        raise InternalError("sampling harvested no in-window state")
    win = window(min(pool.values()), delta, eta)
    states = np.fromiter(pool.keys(), dtype=np.int64, count=len(pool))
    found = np.fromiter(pool.values(), dtype=np.float64, count=len(pool))
    inside = win.contains(found)
    return _freeze(objective, states[inside], found[inside], win, complete=False)


# -- ground-state search -------------------------------------------------------


def solve_ground_objective(objective, seed: int) -> tuple[int, float]:
    """Lowest state of any diagonal objective found by annealing.

    Each round runs ``_CHAINS`` chains drawn from ``default_rng(seed)``.
    The rounds visit the chains' states in chain order and keep the first
    one that undercuts the best so far by more than 1e-15 times its
    magnitude, a margin that scales with the objective; the first state
    visited is always kept. Rounds stop after ``_STALL_ROUNDS`` rounds
    without a new best, or after ``_MAX_ROUNDS`` rounds. On a dense table
    (n <= 16) they also stop once the best is the table's minimum, which no
    later state can undercut, so the result is the full schedule's.

    Unlike sampled windows, the ground search keeps every round whole. Among
    tied states, or states within 1e-15 times the minimum's magnitude of it,
    the chain order picks the one returned: a chain's later steps are read
    before the next chain's, so a round cut once the minimum was visited
    could return another state.
    """
    rng = np.random.default_rng(seed)
    table = _dense_table(objective)
    # no energy equals nan, so without a table the rounds run their full schedule
    lowest = math.nan if table is None else table.min()
    best_bits, best_e = 0, math.inf
    rounds = 0
    stall = 0
    while rounds < _MAX_ROUNDS and stall < _STALL_ROUNDS and best_e != lowest:
        starts, flips, draws = _draw_chains(rng, objective.n_vars, _CHAINS)
        energies, _, keys = _anneal(objective, table, starts, flips, draws)
        found = None
        for c in range(len(starts)):
            trace = energies[:, c]
            step = 0
            while True:
                bar = best_e - 1e-15 * abs(best_e) if best_e < math.inf else math.inf
                lower = np.flatnonzero(trace[step:] < bar)
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
