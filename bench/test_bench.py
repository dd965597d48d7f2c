"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402


def random_three_regular_terms(n, rng):
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), 3))
        pairs = {tuple(sorted((int(a), int(b)))) for a, b in stubs.reshape(-1, 2)}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            return {p: float(rng.uniform(-1, 1)) for p in pairs}


def random_pubo_terms(n, rng):
    terms = {(): float(rng.uniform(-1, 1))}
    for _ in range(2 * n):
        k = int(rng.integers(1, 5))
        subset = tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
        terms[subset] = float(rng.uniform(-1, 1))
    return terms


@pytest.mark.parametrize("seed", range(4))
def test_elimination_matches_brute_force_three_regular(seed):
    rng = np.random.default_rng(seed)
    terms = random_three_regular_terms(20, rng)
    expected = exact.brute_force_energies(20, terms).min()
    assert abs(exact.ground_energy(20, terms) - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("seed", range(4))
def test_elimination_matches_brute_force_pubo(seed):
    rng = np.random.default_rng(100 + seed)
    n = 18
    terms = random_pubo_terms(n, rng)
    expected = exact.brute_force_energies(n, terms).min()
    assert abs(exact.ground_energy(n, terms) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_evaluate_matches_brute_force_table():
    rng = np.random.default_rng(7)
    n = 10
    terms = random_pubo_terms(n, rng)
    table = exact.brute_force_energies(n, terms)
    for state in rng.integers(0, 1 << n, size=50):
        bits = [(int(state) >> j) & 1 for j in range(n)]
        assert abs(exact.evaluate(terms, bits) - table[state]) <= 1e-12


def test_variable_without_terms_is_free():
    assert exact.ground_energy(3, {(0,): 1.0, (): 0.5}) == -0.5


def test_pubo_workload_matches_its_description():
    import dcreduce
    from workloads import structured_pubo

    h = structured_pubo(dcreduce, 24, 5)
    degrees = {}
    for subset in h.terms:
        degrees[len(subset)] = degrees.get(len(subset), 0) + 1
    assert degrees[1] == 24 and degrees[2] == 36
    assert 0 < degrees[3] <= 24
    pairs = {s for s in h.terms if len(s) == 2}
    for subset in (s for s in h.terms if len(s) == 3):
        assert sum(p in pairs for p in [(subset[0], subset[1]), (subset[0], subset[2]), (subset[1], subset[2])]) >= 2


def test_trace_accounts_for_the_run_and_restores_the_package():
    import dcreduce
    from layers import LAYERS, LayerTrace

    h = dcreduce.benchgen.generate(dcreduce.GraphSpec("k_regular", 24, 3, k=3))
    originals = {name: getattr(dcreduce.driver, name) for name in ("louvain", "scan_minimum")}
    tracer = LayerTrace(dcreduce)
    tracer.install()
    try:
        result = dcreduce.run(h, dcreduce.RunConfig(eta=1.0, seed=3))
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.calls["clustering.louvain"] == result.iterations_used + 1
    assert tracer.calls["reduction.decode"] == 1
    assert sum(tracer.seconds[layer] for layer in LAYERS) > 0.0
    for name, fn in originals.items():
        assert getattr(dcreduce.driver, name) is fn
    assert "traced" not in dcreduce.reduction.ReducedProblem.contracted_graph.__qualname__


def test_missing_names_are_reported_absent():
    import types

    from layers import LayerTrace

    fake = types.SimpleNamespace(
        driver=types.SimpleNamespace(louvain=lambda *a: None),
        reduction=types.SimpleNamespace(),
        PolyHamiltonian=object,
    )
    tracer = LayerTrace(fake)
    tracer.install()
    tracer.uninstall()
    assert "decompose" in tracer.absent and "ReducedProblem.contracted_graph" in tracer.absent
    assert "louvain" not in tracer.absent


def test_host_speed_scale_and_sample_length():
    import time

    import hostspeed

    meter = hostspeed.Meter()
    start = time.perf_counter()
    meter.sample(busy_s=0.0, at_least_s=0.01)
    assert time.perf_counter() - start >= meter.seconds >= 0.01
    assert meter.loops >= 1
    # Scaled by the loop's own mean time, the samples read nominal speed.
    assert meter.scale(meter.seconds) == pytest.approx(meter.loops * hostspeed.REFERENCE_NOMINAL_S)
    # A host at half speed doubles both the loop and the call.
    slow = hostspeed.Meter()
    slow.seconds, slow.loops = 2 * meter.seconds, meter.loops
    assert slow.scale(2.0) == pytest.approx(meter.scale(1.0))
