"""End-to-end orchestration: cluster, cut off, solve, encode, iterate, recombine.

The run loop clusters the problem graph, enumerates each community's
certified low-energy window, re-encodes the survivors on fewer qubits,
and repeats on the contracted problem until one of the recombination
criteria fires, at which point the remaining reduced system is solved in
one step and decoded back to original variables. ``n_q`` is the maximum
variable count over every optimizer invocation, including the final
recombined solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import LouvainConfig, Partition, hypergraph_to_graph, louvain
from .cutoff import decompose, delta_pubo, delta_two_body
from .errors import DomainError, InternalError, ParameterError, ResourceError
from .hamiltonian import PolyHamiltonian, SpinConfig, flip_all, int_to_bits
from .optimizer import (
    OptimizerBudget,
    as_objective,
    enumerate_low_exhaustive,
    enumerate_low_sampled,
    scan_minimum,
    solve_ground_objective,
)
from .reduction import (
    ChainLevel,
    DecodeChain,
    build_reduced,
    build_reduced_iter,
    decompose_reduced,
    encode_community,
    iteration_delta,
)

_BACKENDS = ("auto", "exhaustive", "annealing")


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameters of one divide-and-conquer run."""

    eta: float = 1.0
    seed: int = 0
    optimizer_o1: str = "auto"
    optimizer_o2: str = "auto"
    budget_o1: OptimizerBudget = field(default_factory=OptimizerBudget)
    budget_o2: OptimizerBudget = field(default_factory=OptimizerBudget)
    padding_mode: str = "repeat"
    compute_chi: bool = True
    max_iterations: int = 10
    brute_force_ceiling: int = 22
    max_community_size: int | None = None
    # Hamiltonians with linear terms: treat natively as PUBO, or absorb the
    # fields into couplings with one ancilla for the tighter two-body cut-off.
    linear_terms: str = "pubo"

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"eta must lie in [0, 1], got {self.eta}")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be at least 1")
        if self.optimizer_o1 not in _BACKENDS or self.optimizer_o2 not in _BACKENDS:
            raise ParameterError(f"optimizer backends must be one of {_BACKENDS}")
        if self.padding_mode not in ("repeat", "penalty"):
            raise ParameterError("padding_mode must be 'repeat' or 'penalty'")
        if self.linear_terms not in ("pubo", "quadratize"):
            raise ParameterError("linear_terms must be 'pubo' or 'quadratize'")
        if self.brute_force_ceiling < 1:
            raise ParameterError("brute_force_ceiling must be positive")


@dataclass(frozen=True)
class LevelTrace:
    """Per-iteration record: partition, windows, and encoding sizes."""

    partition: tuple[int, ...]
    membership: tuple[tuple[int, ...], ...]
    deltas: tuple[float, ...]
    e0s: tuple[float, ...]
    d_list: tuple[int, ...]
    m_list: tuple[int, ...]
    invocation_sizes: tuple[int, ...]
    complete: tuple[bool, ...]


@dataclass(frozen=True)
class RunTrace:
    n_original: int
    n_working: int
    constant: float
    quadratic: bool
    quadratized: bool
    levels: tuple[LevelTrace, ...]
    invocations: tuple[int, ...]
    final_reduced_energy: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of a run, self-consistent by construction.

    ``best_energy`` equals re-evaluating ``best_config`` on the original
    Hamiltonian; ``r = 1 - n_q / |V|`` measures the qubit reduction.
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
    chain: DecodeChain | None = None

    def to_json_dict(self) -> dict:
        return {
            "chain": self.chain.to_json_dict() if self.chain is not None else None,
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
                "n_working": self.trace.n_working,
                "constant": self.trace.constant,
                "quadratic": self.trace.quadratic,
                "quadratized": self.trace.quadratized,
                "invocations": list(self.trace.invocations),
                "final_reduced_energy": self.trace.final_reduced_energy,
                "levels": [
                    {
                        "partition": list(lv.partition),
                        "membership": [list(m) for m in lv.membership],
                        "deltas": list(lv.deltas),
                        "e0s": list(lv.e0s),
                        "d": list(lv.d_list),
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
    ss = np.random.SeedSequence([base & 0xFFFFFFFF, *[k & 0xFFFFFFFF for k in key]])
    return int(ss.generate_state(1)[0])


def _pick_backend(preference: str, n_vars: int, ceiling: int) -> str:
    if preference != "auto":
        return preference
    return "exhaustive" if n_vars <= ceiling else "annealing"


def run(h: PolyHamiltonian, cfg: RunConfig | None = None) -> RunResult:
    """Execute the divide-and-conquer loop on a Hamiltonian."""
    cfg = cfg or RunConfig()
    working = h
    quadratized = False
    if cfg.linear_terms == "quadratize" and h.max_degree() <= 2 and not h.is_pure_quadratic():
        working = h.quadratize_fields()
        quadratized = working.n_vars != h.n_vars
    quadratic = working.is_pure_quadratic()
    constant = working.constant
    n_working = working.n_vars

    louvain_cfg = LouvainConfig(max_community_size=cfg.max_community_size)
    graph = hypergraph_to_graph(working)
    partition = louvain(graph, seed=_sub_seed(cfg.seed, 0), config=louvain_cfg)

    invocations: list[int] = []
    levels: list[LevelTrace] = []

    if partition.n_communities == 1:
        invocations.append(n_working)
        bits_int, reduced_energy = _solve_objective(
            as_objective(working), cfg, cfg.optimizer_o2, cfg.budget_o2,
            _sub_seed(cfg.seed, 999), context="recombined solve",
        )
        config_working = int_to_bits(bits_int, n_working)
        levels.append(
            LevelTrace(
                partition.community_of,
                partition.communities,
                (0.0,), (reduced_energy,), (1,), (n_working,),
                (n_working,), (True,),
            )
        )
        return _finish(
            h, working, quadratized, config_working, reduced_energy - constant,
            invocations, 1, 3, cfg, constant, quadratic, levels, chain=None,
        )

    # -- first level: community windows on the original variables ----------
    decomp = decompose(working, partition)
    deltas = [
        delta_two_body(decomp, i) if quadratic else delta_pubo(decomp, i)
        for i in range(partition.n_communities)
    ]
    encodings, trace = _enumerate_and_encode(
        (decomp.local_poly(i) for i in range(partition.n_communities)), deltas,
        cfg.optimizer_o1, cfg.budget_o1, 1, partition, cfg,
    )
    rp = build_reduced(decomp, encodings, cfg.compute_chi)
    chain = DecodeChain(n_vars=n_working, levels=[ChainLevel(trace.membership, encodings)])
    invocations.extend(trace.invocation_sizes)
    levels.append(trace)
    iterations = 1

    # -- iterate on the contracted problem ---------------------------------
    while True:
        total_reduced = rp.total_qubits
        contracted = rp.contracted_graph()
        next_partition = louvain(
            contracted, seed=_sub_seed(cfg.seed, 10 + iterations), config=louvain_cfg
        )
        criterion = should_recombine(total_reduced, max(invocations), next_partition)
        if criterion is None and iterations >= cfg.max_iterations:
            criterion = 0
        if criterion is not None:
            break

        iterations += 1
        rd = decompose_reduced(rp, next_partition)
        deltas = [iteration_delta(rd, l, quadratic) for l in range(next_partition.n_communities)]
        encodings, trace = _enumerate_and_encode(
            (rp.local_objective(members) for members in rd.members), deltas,
            cfg.optimizer_o2, cfg.budget_o2, iterations, next_partition, cfg,
        )
        rp = build_reduced_iter(rd, encodings, cfg.compute_chi)
        chain.levels.append(ChainLevel(trace.membership, encodings))
        invocations.extend(trace.invocation_sizes)
        levels.append(trace)

    # -- recombined solve ---------------------------------------------------
    final_objective = rp.full_objective()
    invocations.append(final_objective.n_vars)
    bits_int, reduced_energy = _solve_objective(
        final_objective, cfg, cfg.optimizer_o2, cfg.budget_o2,
        _sub_seed(cfg.seed, 1000), context="recombined solve",
    )
    config_working = chain.decode_full(bits_int)
    return _finish(
        h, working, quadratized, config_working, reduced_energy,
        invocations, iterations, criterion, cfg, constant, quadratic, levels, chain,
    )


def _enumerate_and_encode(objectives, deltas, preference, budget, level, partition, cfg):
    """Enumerate and encode the window of every community of one level.

    ``objectives`` and ``deltas`` run over the partition's communities;
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
                seeded = replace(budget, seed=_sub_seed(cfg.seed, level, i))
                spectrum = enumerate_low_sampled(objective, delta, cfg.eta, seeded)
        except ResourceError as exc:
            raise ResourceError(
                f"level {level}, community {i} ({n_vars} variables): {exc}"
            ) from exc
        spectra.append(spectrum)
    encodings = tuple(
        encode_community(spec, cfg.padding_mode, delta=delta)
        for spec, delta in zip(spectra, deltas)
    )
    trace = LevelTrace(
        partition.community_of,
        partition.communities,
        tuple(deltas),
        tuple(s.e0 for s in spectra),
        tuple(s.d for s in spectra),
        tuple(e.m_tilde for e in encodings),
        tuple(s.n_vars for s in spectra),
        tuple(s.complete for s in spectra),
    )
    return encodings, trace


def _solve_objective(objective, cfg, preference, budget, seed, context):
    backend = _pick_backend(preference, objective.n_vars, cfg.brute_force_ceiling)
    if backend == "exhaustive":
        try:
            return scan_minimum(objective)
        except ResourceError as exc:
            raise ResourceError(f"{context}: {exc}") from exc
    return solve_ground_objective(
        objective, replace(budget, seed=seed), ceiling=0
    )


def _finish(
    h, working, quadratized, config_working, reduced_energy,
    invocations, iterations, criterion, cfg, constant, quadratic, levels, chain,
):
    if quadratized:
        # Ancilla bit 1 selects the global-flip image; normalize back.
        body = config_working[:-1]
        config = flip_all(body) if config_working[-1] else tuple(body)
    else:
        config = tuple(config_working)
    best_energy = h.evaluate(config)
    expected = reduced_energy + constant
    if abs(best_energy - expected) > 1e-6 * max(1.0, abs(best_energy)):
        raise InternalError(
            f"decoded energy {best_energy} disagrees with reduced energy {expected}"
        )
    n_q = max(invocations)
    r = 1.0 - n_q / working.n_vars
    trace = RunTrace(
        n_original=h.n_vars,
        n_working=working.n_vars,
        constant=constant,
        quadratic=quadratic,
        quadratized=quadratized,
        levels=tuple(levels),
        invocations=tuple(invocations),
        final_reduced_energy=reduced_energy,
    )
    return RunResult(
        best_config=config,
        best_energy=best_energy,
        n_q=n_q,
        iterations_used=iterations,
        r=r,
        criterion=criterion,
        eta=cfg.eta,
        seed=cfg.seed,
        n_vars=working.n_vars,
        trace=trace,
        chain=chain,
    )


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

    Communities without interactions (delta = 0) are excluded. ``ratio_b``
    is None when the window lower bound is zero.
    """
    trace = result.trace
    working = h
    config = result.best_config
    if trace.quadratized:
        working = h.quadratize_fields()
        config = tuple(config) + (0,)
    level = trace.levels[0]
    partition = Partition.from_labels(level.partition)
    decomp = decompose(working, partition)
    out: list[ShiftDiagnostics] = []
    for i in range(partition.n_communities):
        delta = level.deltas[i]
        if delta <= 0.0:
            continue
        local_energy = PolyHamiltonian(working.n_vars, decomp.local_terms[i]).evaluate(config)
        interaction = PolyHamiltonian(
            working.n_vars, {s: decomp.straddling_terms[s] for s in decomp.straddle_by_comm[i]}
        ).evaluate(config)
        e0 = level.e0s[i]
        eta_bound = e0 + (result.eta - 1.0) * delta
        ratio_b = None
        if eta_bound != 0.0:
            ratio_b = (local_energy + interaction) / eta_bound
        out.append(
            ShiftDiagnostics(
                community=i,
                interaction_energy=interaction,
                local_energy=local_energy,
                delta=delta,
                e0=e0,
                eta_bound=eta_bound,
                ratio_a=interaction / delta,
                ratio_b=ratio_b,
            )
        )
    return out


def brute_force_reference(h: PolyHamiltonian) -> float:
    """Exhaustive ground energy; the oracle for approximation ratios."""
    _, energy = scan_minimum(as_objective(h))
    return energy
