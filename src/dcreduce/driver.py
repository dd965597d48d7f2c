"""End-to-end orchestration: cluster, cut off, solve, encode, iterate, recombine.

The run loop builds the level-0 reduced problem, in which every variable is
a 1-qubit register. Level 1 clusters the level-0 contracted graph, as every
later level clusters the contracted graph of the level below. Every level
decomposes the reduced problem below it under the current partition, cuts
off each community's window from its straddling couplings, enumerates it,
replaces padded aliases by their twins and drops the states another
retained state beats under every boundary (``RunConfig.prune_dominated``),
re-encodes the survivors on fewer qubits, and clusters the contracted
problem, until one of the recombination criteria fires; one community at
level 0 is criterion 3 before any level. The remaining reduced system is
then solved in one step and decoded back to original variables through the
decode chain, empty when no level ran. ``n_q`` is the maximum variable
count over every optimizer invocation, including the final recombined solve.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .clustering import Partition, louvain
from .errors import DomainError, InternalError, ParameterError, ResourceError
from .hamiltonian import PolyHamiltonian, SpinConfig
from .optimizer import (
    enumerate_low_exhaustive,
    enumerate_low_sampled,
    scan_minimum,
    solve_ground_objective,
)
# Level 1 calls delta_two_body, delta_pubo and build_reduced where later levels
# call iteration_delta and build_reduced_iter, the same routines: the benchmark's
# layer trace times each of these names as bound here and reports any absent.
from .reduction import (
    ChainLevel,
    DecodeChain,
    ReducedProblem,
    build_reduced,
    build_reduced_iter,
    community_objective,
    decompose,
    delta_pubo,
    delta_two_body,
    encode_community,
    iteration_delta,
    prune_dominated,
)

_BACKENDS = ("auto", "exhaustive", "annealing")


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameters of one divide-and-conquer run."""

    eta: float = 1.0
    seed: int = 0
    optimizer_o1: str = "auto"
    optimizer_o2: str = "auto"
    # The largest subproblem the auto backend scans; a constant, not a field.
    brute_force_ceiling: ClassVar[int] = 22
    # Replace padded aliases by their twins and drop the window states that
    # another retained state beats under every boundary
    # (``reduction.prune_dominated``); off keeps the paper's windows, aliases
    # included.
    prune_dominated: bool = True

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        # a numpy integer becomes a Python int, which the JSON trace can hold
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 1 << 32:
            raise ParameterError(f"seed must lie in [0, 2^32), got {self.seed}")
        if isinstance(self.eta, bool) or not isinstance(self.eta, numbers.Real):
            raise ParameterError(f"eta must be a real number, got {self.eta!r}")
        object.__setattr__(self, "eta", float(self.eta))
        if not isinstance(self.prune_dominated, (bool, np.bool_)):
            raise ParameterError(f"prune_dominated must be a bool, got {self.prune_dominated!r}")
        object.__setattr__(self, "prune_dominated", bool(self.prune_dominated))
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"eta must lie in [0, 1], got {self.eta}")
        if self.optimizer_o1 not in _BACKENDS or self.optimizer_o2 not in _BACKENDS:
            raise ParameterError(f"optimizer backends must be one of {_BACKENDS}")


@dataclass(frozen=True)
class LevelTrace:
    """Per-iteration record: partition, windows, and encoding sizes.

    ``e0s`` and ``d_window`` describe each community's window as
    enumerated, padded aliases included, its energies without the input's
    constant; ``d_list`` counts the distinct states encoded after pruning,
    which replaces each alias by its twin and then drops dead ends. Without
    pruning the two counts are equal.
    """

    partition: tuple[int, ...]
    membership: tuple[tuple[int, ...], ...]
    deltas: tuple[float, ...]
    e0s: tuple[float, ...]
    d_list: tuple[int, ...]
    d_window: tuple[int, ...]
    m_list: tuple[int, ...]
    invocation_sizes: tuple[int, ...]
    complete: tuple[bool, ...]


@dataclass(frozen=True)
class RunTrace:
    n_original: int
    constant: float
    quadratic: bool
    levels: tuple[LevelTrace, ...]
    invocations: tuple[int, ...]
    final_reduced_energy: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of a run, self-consistent by construction.

    ``best_energy`` equals re-evaluating ``best_config`` on the original
    Hamiltonian; ``r = 1 - n_q / |V|`` measures the qubit reduction.
    ``iterations_used`` counts the levels built, 0 for one community.
    """

    best_config: SpinConfig
    best_energy: float
    n_q: int
    iterations_used: int
    r: float
    criterion: int
    eta: float
    seed: int
    n_vars: int
    trace: RunTrace
    chain: DecodeChain

    def to_json_dict(self) -> dict:
        return {
            "chain": self.chain.to_json_dict(),
            "best_config": "".join(str(b) for b in self.best_config),
            "best_energy": self.best_energy,
            "n_q": self.n_q,
            "iterations_used": self.iterations_used,
            "r": self.r,
            "criterion": self.criterion,
            "eta": self.eta,
            "seed": self.seed,
            "n_vars": self.n_vars,
            "trace": {
                "n_original": self.trace.n_original,
                "constant": self.trace.constant,
                "quadratic": self.trace.quadratic,
                "invocations": list(self.trace.invocations),
                "final_reduced_energy": self.trace.final_reduced_energy,
                "levels": [
                    {
                        "partition": list(lv.partition),
                        "membership": [list(m) for m in lv.membership],
                        "deltas": list(lv.deltas),
                        "e0s": list(lv.e0s),
                        "d": list(lv.d_list),
                        "d_window": list(lv.d_window),
                        "m_tilde": list(lv.m_list),
                        "invocation_sizes": list(lv.invocation_sizes),
                        "complete": list(lv.complete),
                    }
                    for lv in self.trace.levels
                ],
            },
        }


def write_trace(result: RunResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json_dict(), fh, indent=1)


def should_recombine(
    total_reduced_qubits: int, max_prior_qubits: int, next_partition: Partition
) -> int | None:
    """First matching recombination criterion, or None to keep iterating.

    1: the recombined system needs fewer qubits than some prior invocation;
    2: another iteration would reproduce the current communities;
    3: the clustering groups everything into one community.
    """
    if total_reduced_qubits < max_prior_qubits:
        return 1
    if next_partition.n_communities == next_partition.n_vertices:
        return 2
    if next_partition.n_communities == 1:
        return 3
    return None


def approximation_ratio(reported: float, reference: float) -> float:
    """reported / reference, defined for negative reference energies only."""
    if reference >= 0.0:
        raise DomainError(
            "approximation ratio needs a negative reference energy; "
            "shift the problem's constant before comparing"
        )
    return reported / reference


def _sub_seed(base: int, *key: int) -> int:
    ss = np.random.SeedSequence([base, *key])
    return int(ss.generate_state(1)[0])


def _pick_backend(preference: str, n_vars: int, ceiling: int) -> str:
    """The one place that chooses between an exhaustive scan and annealing."""
    if preference != "auto":
        return preference
    return "exhaustive" if n_vars <= ceiling else "annealing"


def run(h: PolyHamiltonian, cfg: RunConfig | None = None) -> RunResult:
    """Execute the divide-and-conquer loop on a Hamiltonian."""
    cfg = cfg or RunConfig()
    rp = ReducedProblem.from_hamiltonian(h)
    partition = louvain(rp.contracted_graph(), seed=_sub_seed(cfg.seed, 0))
    chain = DecodeChain(n_vars=h.n_vars, levels=[])
    invocations: list[int] = []
    levels: list[LevelTrace] = []

    # -- every level: decompose the previous one, cut off, enumerate, encode --
    # one community recombines before the first level
    criterion = 3 if partition.n_communities == 1 else None
    while criterion is None:
        level = len(levels) + 1
        rd = decompose(rp, partition)
        if level == 1:
            deltas = [
                delta_two_body(rd, i) if rp.quadratic else delta_pubo(rd, i)
                for i in range(partition.n_communities)
            ]
            objectives = h.split(rd.members)
            preference, build = cfg.optimizer_o1, build_reduced
        else:
            deltas = [iteration_delta(rd, l) for l in range(partition.n_communities)]
            objectives = (community_objective(rd, l) for l in range(partition.n_communities))
            preference, build = cfg.optimizer_o2, build_reduced_iter
        encodings, trace = _enumerate_and_encode(rd, objectives, deltas, preference, level, cfg)
        rp = build(rd, encodings)
        chain.levels.append(ChainLevel(trace.membership, encodings))
        invocations.extend(trace.invocation_sizes)
        levels.append(trace)

        partition = louvain(rp.contracted_graph(), seed=_sub_seed(cfg.seed, 10 + level))
        criterion = should_recombine(rp.total_qubits, max(invocations), partition)

    # -- recombined solve ---------------------------------------------------
    # level 0's objective takes Python-int keys, so it anneals past 62 variables
    final_objective = rp.full_objective()
    invocations.append(final_objective.n_vars)
    bits_int, reduced_energy = _solve_objective(final_objective, cfg)
    config = chain.decode_full(bits_int)
    best_energy = h.evaluate(config)
    expected = reduced_energy + h.constant
    if abs(best_energy - expected) > 1e-6 * max(1.0, abs(best_energy)):
        raise InternalError(f"decoded energy {best_energy} disagrees with reduced energy {expected}")
    n_q = max(invocations)
    trace = RunTrace(
        n_original=h.n_vars,
        constant=h.constant,
        quadratic=h.is_pure_quadratic(),
        levels=tuple(levels),
        invocations=tuple(invocations),
        final_reduced_energy=reduced_energy,
    )
    return RunResult(
        best_config=config,
        best_energy=best_energy,
        n_q=n_q,
        iterations_used=len(levels),
        r=1.0 - n_q / h.n_vars,
        criterion=criterion,
        eta=cfg.eta,
        seed=cfg.seed,
        n_vars=h.n_vars,
        trace=trace,
        chain=chain,
    )


def _enumerate_and_encode(rd, objectives, deltas, preference, level, cfg):
    """Enumerate, prune and encode the window of every community of one level.

    ``objectives`` and ``deltas`` run over the communities of ``rd``;
    sampled windows draw their seeds from ``(cfg.seed, level, community)``.
    Returns the encodings and the level's trace record.
    """
    spectra = []
    for i, (objective, delta) in enumerate(zip(objectives, deltas)):
        n_vars = objective.n_vars
        backend = _pick_backend(preference, n_vars, cfg.brute_force_ceiling)
        try:
            if backend == "exhaustive":
                spectrum = enumerate_low_exhaustive(objective, delta, cfg.eta)
            else:
                spectrum = enumerate_low_sampled(objective, delta, cfg.eta, _sub_seed(cfg.seed, level, i))
        except ResourceError as exc:
            raise ResourceError(
                f"level {level}, community {i} ({n_vars} variables): {exc}"
            ) from exc
        spectra.append(spectrum)
    kept = spectra
    if cfg.prune_dominated:
        kept = [prune_dominated(rd, i, spectrum) for i, spectrum in enumerate(spectra)]
    encodings = tuple(encode_community(spec) for spec in kept)
    trace = LevelTrace(
        rd.partition.community_of,
        rd.partition.communities,
        tuple(deltas),
        tuple(s.e0 for s in spectra),
        tuple(s.d for s in kept),
        tuple(s.d for s in spectra),
        tuple(e.m_tilde for e in encodings),
        tuple(s.n_vars for s in spectra),
        tuple(s.complete for s in spectra),
    )
    return encodings, trace


def _solve_objective(objective, cfg):
    """The recombined solve: a scan or annealing, as ``_pick_backend`` says of
    ``cfg.optimizer_o2``; only annealing derives its seed, ``_sub_seed(cfg.seed, 1000)``."""
    if _pick_backend(cfg.optimizer_o2, objective.n_vars, cfg.brute_force_ceiling) == "exhaustive":
        try:
            return scan_minimum(objective)
        except ResourceError as exc:
            raise ResourceError(f"recombined solve: {exc}") from exc
    return solve_ground_objective(objective, _sub_seed(cfg.seed, 1000))


# -- first-iteration shift diagnostics ------------------------------------------


@dataclass(frozen=True)
class ShiftDiagnostics:
    """Interaction-shift record for one first-iteration community."""

    community: int
    interaction_energy: float
    local_energy: float
    delta: float
    e0: float
    eta_bound: float
    ratio_a: float
    ratio_b: float | None


def shift_diagnostics(h: PolyHamiltonian, result: RunResult) -> list[ShiftDiagnostics]:
    """Per-community interaction shifts of the returned configuration.

    One pass over ``sorted(h.terms)``, the order ``evaluate`` adds in, adds
    each term's signed value at the returned configuration to the local
    energy of the first-level community that holds it, or else to the
    interaction energy of every community it reaches; the constant is in
    neither. Communities without interactions (delta = 0) are excluded.
    ``ratio_b`` is None when the window lower bound is zero.
    """
    if not result.trace.levels:
        return []  # one community: no interactions
    config = result.best_config
    level = result.trace.levels[0]
    local = [0.0] * len(level.deltas)
    interaction = [0.0] * len(level.deltas)
    for subset in sorted(h.terms):
        if not subset:
            continue
        value = -h.terms[subset] if sum(config[v] for v in subset) & 1 else h.terms[subset]
        reached = {level.partition[v] for v in subset}
        if len(reached) == 1:
            local[reached.pop()] += value
        else:
            for c in reached:
                interaction[c] += value
    out: list[ShiftDiagnostics] = []
    for i, (delta, e0) in enumerate(zip(level.deltas, level.e0s)):
        if delta <= 0.0:
            continue
        eta_bound = e0 + (result.eta - 1.0) * delta
        ratio_b = None if eta_bound == 0.0 else (local[i] + interaction[i]) / eta_bound
        out.append(ShiftDiagnostics(
            community=i, interaction_energy=interaction[i], local_energy=local[i], delta=delta,
            e0=e0, eta_bound=eta_bound, ratio_a=interaction[i] / delta, ratio_b=ratio_b,
        ))
    return out


def brute_force_reference(h: PolyHamiltonian) -> float:
    """Exhaustive ground energy; the oracle for approximation ratios."""
    _, energy = scan_minimum(h)
    return energy
