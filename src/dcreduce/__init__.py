"""Divide-and-conquer reduction and solving of QUBO/PUBO problems."""

from .benchgen import FamilyConfig, GraphSpec, family_matrix, generate
from .clustering import (
    Partition,
    WeightedGraph,
    louvain,
    modularity,
)
from .driver import (
    RunConfig,
    RunResult,
    approximation_ratio,
    brute_force_reference,
    run,
    shift_diagnostics,
    should_recombine,
)
from .hamiltonian import PolyHamiltonian, SpinConfig, load_problem
from .optimizer import (
    LocalSpectrum,
    Window,
    enumerate_low_exhaustive,
    enumerate_low_sampled,
    window,
)
from .reduction import (
    DecodeChain,
    EncodedCommunity,
    ReducedProblem,
    build_reduced,
    decompose,
    delta_pubo,
    delta_two_body,
    encode_community,
)

__all__ = [
    "DecodeChain",
    "EncodedCommunity",
    "FamilyConfig",
    "GraphSpec",
    "LocalSpectrum",
    "Partition",
    "PolyHamiltonian",
    "ReducedProblem",
    "RunConfig",
    "RunResult",
    "SpinConfig",
    "WeightedGraph",
    "Window",
    "approximation_ratio",
    "brute_force_reference",
    "build_reduced",
    "decompose",
    "delta_pubo",
    "delta_two_body",
    "encode_community",
    "enumerate_low_exhaustive",
    "enumerate_low_sampled",
    "family_matrix",
    "generate",
    "load_problem",
    "louvain",
    "modularity",
    "run",
    "shift_diagnostics",
    "should_recombine",
    "window",
]

__version__ = "0.1.0"
