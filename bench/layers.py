"""Per-layer tracing of ``dcreduce.run()`` from outside the package.

The names the driver module bound at import time are replaced by timing
wrappers, so only the driver's own calls into each layer are counted (a
``scan_minimum`` inside ``enumerate_low_exhaustive`` is not counted twice).
No wrapped call runs inside another, so the layer times plus the driver's
self time add up to the traced ``run()`` time. A name that the package no
longer has is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Names bound in dcreduce.driver, by the layer they are counted under.
DRIVER_NAMES = {
    "louvain": "clustering.louvain",
    "decompose": "cutoff.decompose",
    "delta_two_body": "cutoff.delta",
    "delta_pubo": "cutoff.delta",
    "iteration_delta": "cutoff.delta",
    "enumerate_low_exhaustive": "optimizer.window_exhaustive",
    "enumerate_low_sampled": "optimizer.window_sampled",
    "scan_minimum": "optimizer.recombined_exhaustive",
    "solve_ground_objective": "optimizer.recombined_anneal",
    "encode_community": "reduction.encode",
    "build_reduced": "reduction.couplings",
    "build_reduced_iter": "reduction.couplings",
}

# Methods of dcreduce.reduction classes, by layer.
METHODS = {
    ("ReducedProblem", "contracted_graph"): "reduction.contracted_graph",
    ("DecodeChain", "decode_full"): "reduction.decode",
}

LAYERS = tuple(dict.fromkeys([*DRIVER_NAMES.values(), *METHODS.values()]))

# Counts the hooks add to; reported on every workload.
COUNTERS = (
    "optimizer.window_exhaustive.states_scanned",
    "optimizer.window_exhaustive.states_kept",
    "optimizer.window_sampled.states_kept",
    "optimizer.recombined_exhaustive.states_scanned",
    "reduction.couplings.chi_entries",
)


class LayerTrace:
    """Times and counts of the driver's calls into each layer.

    ``install`` swaps the wrappers in, ``uninstall`` restores the originals.
    Sampled windows found on a PolyHamiltonian are kept in ``windows`` as
    (hamiltonian, delta, eta, spectrum) for checking after the run.
    """

    def __init__(self, dc):
        self.dc = dc
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.max_anneal_vars = 0
        self.windows = []
        self.absent = []
        self._saved = []
        self._hooks = {
            "optimizer.window_exhaustive": self._window_exhaustive,
            "optimizer.window_sampled": self._window_sampled,
            "optimizer.recombined_exhaustive": self._recombined_exhaustive,
            "optimizer.recombined_anneal": self._recombined_anneal,
            "reduction.couplings": self._couplings,
        }

    def install(self) -> None:
        driver, reduction = self.dc.driver, self.dc.reduction
        self.absent = []
        targets = [(driver, name, layer) for name, layer in DRIVER_NAMES.items()]
        for (cls_name, name), layer in METHODS.items():
            cls = getattr(reduction, cls_name, None)
            if cls is None:
                self.absent.append(f"{cls_name}.{name}")
                continue
            targets.append((cls, name, layer))
        for owner, name, layer in targets:
            original = getattr(owner, name, None)
            if original is None:
                self.absent.append(name)
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, layer):
        hook = self._hooks.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            self.seconds[layer] += clock() - start
            self.calls[layer] += 1
            if hook is not None:
                hook(args, out)
            return out

        return traced

    # -- counters, read from the call's arguments and result ------------------

    def _window_exhaustive(self, args, spectrum):
        self.counts["optimizer.window_exhaustive.states_scanned"] += 2 ** spectrum.n_vars
        self.counts["optimizer.window_exhaustive.states_kept"] += spectrum.d

    def _window_sampled(self, args, spectrum):
        self.counts["optimizer.window_sampled.states_kept"] += spectrum.d
        h, delta, eta = args[:3]
        if isinstance(h, self.dc.PolyHamiltonian):
            self.windows.append((h, delta, eta, spectrum))

    def _recombined_exhaustive(self, args, out):
        self.counts["optimizer.recombined_exhaustive.states_scanned"] += 2 ** args[0].n_vars

    def _recombined_anneal(self, args, out):
        self.max_anneal_vars = max(self.max_anneal_vars, args[0].n_vars)

    def _couplings(self, args, rp):
        self.counts["reduction.couplings.chi_entries"] += rp.n_chi
