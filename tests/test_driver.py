"""End-to-end run, recombination criteria, and metric tests."""

import dataclasses
import json
import math

import numpy as np
import pytest

from dcreduce.benchgen import GraphSpec, generate
from dcreduce.clustering import Partition
from dcreduce.driver import (
    RunConfig,
    approximation_ratio,
    run,
    shift_diagnostics,
    should_recombine,
    write_trace,
)
from dcreduce.errors import DomainError, ParameterError
from dcreduce.hamiltonian import MAX_TABLE_VARS, PolyHamiltonian, int_to_bits
from dcreduce.optimizer import SCAN_CEILING
import dcreduce.reduction as reduction_module
from helpers import brute_min, random_pubo, random_quadratic


PUBLIC_API = [
    "DecodeChain", "EncodedCommunity", "FamilyConfig", "GraphSpec", "LocalSpectrum",
    "Partition", "PolyHamiltonian", "ReducedProblem", "RunConfig",
    "RunResult", "SpinConfig", "WeightedGraph", "Window",
    "approximation_ratio", "brute_force_reference", "build_reduced", "decompose",
    "delta_pubo", "delta_two_body", "encode_community", "enumerate_low_exhaustive",
    "enumerate_low_sampled", "family_matrix", "generate", "load_problem", "louvain",
    "modularity", "run", "shift_diagnostics", "should_recombine",
    "window",
]


def test_public_names_resolve_sorted_and_unique():
    # the API is pinned: a name added to or dropped from it shows up as a diff here
    import dcreduce

    assert PUBLIC_API == sorted(set(PUBLIC_API))
    assert dcreduce.__all__ == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(dcreduce, name)] == []


class TestShouldRecombine:
    def test_fewer_qubits_fires_first(self):
        p = Partition.from_labels([0, 0, 1])
        assert should_recombine(5, 9, p) == 1

    def test_identical_partition(self):
        p = Partition.from_labels([0, 1, 2])
        assert should_recombine(9, 5, p) == 2

    def test_single_community(self):
        p = Partition.from_labels([0, 0, 0])
        assert should_recombine(9, 5, p) == 3

    def test_no_criterion(self):
        p = Partition.from_labels([0, 0, 1])
        assert should_recombine(9, 5, p) is None


class TestApproximationRatio:
    def test_identity(self):
        assert approximation_ratio(-10.0, -10.0) == 1.0

    def test_partial(self):
        assert approximation_ratio(-9.99, -10.0) == pytest.approx(0.999)

    def test_non_negative_reference(self):
        with pytest.raises(DomainError):
            approximation_ratio(-1.0, 0.0)
        with pytest.raises(DomainError):
            approximation_ratio(1.0, 2.0)


class TestRun:
    @pytest.mark.parametrize("seed", range(10))
    def test_eta_one_matches_brute_force_quadratic(self, seed):
        h = random_quadratic(12, 22, seed)
        result = run(h, RunConfig(eta=1.0, seed=seed))
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)
        assert h.evaluate(result.best_config) == pytest.approx(result.best_energy, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_eta_one_matches_brute_force_pubo(self, seed):
        h = random_pubo(11, 17, seed)
        result = run(h, RunConfig(eta=1.0, seed=seed))
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)

    def test_single_community_outcome(self):
        # a triangle clusters into one community: one solve on all variables
        h = PolyHamiltonian(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        result = run(h, RunConfig(eta=1.0, seed=0))
        assert result.criterion == 3
        assert result.n_q == 3
        assert result.iterations_used == 1
        assert result.best_energy == pytest.approx(-1.0)

    def test_one_community_past_62_variables(self):
        # a 64-vertex star is one Louvain community too wide for int64
        # states: its one solve anneals the level-0 objective on Python-int
        # keys and sets every leaf against the centre; like every level's,
        # its e0s leave out the constant
        leaves = {(0, v): 0.5 + (v % 50) / 100 for v in range(1, 64)}
        h = PolyHamiltonian(64, {(): 2.0, **leaves})
        result = run(h, RunConfig(eta=1.0, seed=0))
        assert (result.criterion, result.n_q, result.chain) == (3, 64, None)
        assert result.best_energy == pytest.approx(2.0 - sum(leaves.values()), abs=1e-9)
        assert result.trace.levels[0].e0s == (result.trace.final_reduced_energy,)
        assert result.trace.final_reduced_energy == pytest.approx(result.best_energy - 2.0, abs=1e-9)

    def test_metrics_ranges(self):
        for seed in range(8):
            h = random_quadratic(14, 26, seed)
            result = run(h, RunConfig(eta=0.5, seed=seed))
            assert result.n_q <= h.n_vars
            assert 0.0 <= result.r < 1.0
            assert result.iterations_used >= 1
            assert result.criterion in (0, 1, 2, 3)
            assert max(result.trace.invocations) == result.n_q

    def test_determinism(self):
        h = random_quadratic(14, 26, 3)
        cfg = RunConfig(eta=0.5, seed=42)
        a, b = run(h, cfg), run(h, cfg)
        assert a.best_config == b.best_config
        assert a.best_energy == b.best_energy
        assert a.trace == b.trace

    def test_constant_term_reported(self):
        h = PolyHamiltonian(4, {(): 2.0, (0, 1): 1.0, (2, 3): -0.5, (1, 2): 0.25})
        result = run(h, RunConfig(eta=1.0, seed=1))
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)

    def test_fields_and_couplings_match_brute_force(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 10
            terms = {(i,): float(rng.uniform(-1, 1)) or 0.2 for i in range(n)}
            for _ in range(2 * n):
                i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
                terms[(i, j)] = float(rng.uniform(-1, 1)) or 0.4
            h = PolyHamiltonian(n, terms)
            result = run(h, RunConfig(eta=1.0, seed=seed))
            assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)
            assert len(result.best_config) == n

    def test_term_at_the_truth_table_cap_runs(self):
        n = MAX_TABLE_VARS
        result = run(PolyHamiltonian(n, {tuple(range(n)): 0.7}), RunConfig(eta=1.0, seed=0))
        assert result.criterion == 3
        assert result.best_energy == pytest.approx(-0.7)

    @pytest.mark.parametrize(("extra", "energy"), [({}, -0.7), ({(0,): 0.5}, -1.2)], ids=["alone", "field"])
    def test_term_past_the_truth_table_cap_runs(self, extra, energy):
        # a level-0 coupling wider than the table cap stays lazy, so no
        # term width is refused
        n = MAX_TABLE_VARS + 1
        h = PolyHamiltonian(n, {tuple(range(n)): 0.7, **extra})
        result = run(h, RunConfig(eta=1.0, seed=0))
        assert result.best_energy == pytest.approx(energy)

    def test_annealing_backends(self):
        h = random_quadratic(12, 22, 5)
        cfg = RunConfig(eta=1.0, seed=5, optimizer_o1="annealing", optimizer_o2="annealing")
        result = run(h, cfg)
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)

    def test_chi_bound_run(self, monkeypatch):
        # a cap of 0 leaves every coupling entry-wise, weighed and cut off
        # by its bound sum |c_t|
        monkeypatch.setattr(reduction_module, "MATERIALIZE_ENTRIES", 0)
        h = random_quadratic(12, 22, 7)
        result = run(h, RunConfig(eta=1.0, seed=7))
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)

    @pytest.mark.parametrize("exponent", [-600, 520])
    def test_any_coefficient_scale_runs_as_unscaled(self, exponent):
        # window tolerances scale with the energies, with no absolute floor
        # that would dwarf them at 2^-600 and keep nearly every state
        h = generate(GraphSpec("k_regular", 40, 3, k=3))
        scaled = PolyHamiltonian(h.n_vars, {s: math.ldexp(c, exponent) for s, c in h.terms.items()})
        config = RunConfig(eta=1.0, seed=3)
        base, result = run(h, config), run(scaled, config)
        assert result.n_q == base.n_q == 10
        for got, want in zip(result.trace.levels, base.trace.levels, strict=True):
            assert (got.partition, got.d_list) == (want.partition, want.d_list)
        assert result.best_config == base.best_config
        assert result.best_energy == math.ldexp(base.best_energy, exponent)

    def test_disconnected_components(self):
        # two independent chains; decomposition must not couple them
        terms = {(0, 1): 0.8, (1, 2): -0.6, (3, 4): 0.5, (4, 5): 0.9}
        h = PolyHamiltonian(6, terms)
        result = run(h, RunConfig(eta=1.0, seed=2))
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)

    def test_no_terms_at_all(self):
        h = PolyHamiltonian(4, {})
        result = run(h, RunConfig(eta=1.0, seed=0))
        assert result.best_energy == 0.0
        assert len(result.best_config) == 4

    def test_config_validation(self):
        with pytest.raises(DomainError):
            RunConfig(eta=1.5)
        with pytest.raises(ParameterError):
            RunConfig(optimizer_o1="quantum")
        # the backend switch never asks a scan for more than SCAN_CEILING variables
        assert RunConfig.brute_force_ceiling <= SCAN_CEILING
        # run seeds are 32-bit: a seed outside [0, 2^32) would alias another
        for seed in (-1, 2**32):
            with pytest.raises(ParameterError, match=str(seed)):
                RunConfig(seed=seed)
        RunConfig(seed=2**32 - 1)
        # eta is a real number stored as a Python float, the switch a bool
        for fields in ({"eta": True}, {"eta": "0.5"}, {"eta": None},
                       {"prune_dominated": "no"}, {"prune_dominated": 0}):
            with pytest.raises(ParameterError):
                RunConfig(**fields)
        config = RunConfig(eta=np.float32(0.5), prune_dominated=np.False_)
        assert (type(config.eta), type(config.prune_dominated)) == (float, bool)
        assert config == RunConfig(eta=0.5, prune_dominated=False)
        json.dumps(run(random_quadratic(6, 8, 1), config).to_json_dict())

    def test_config_fields(self):
        # the scan ceiling is a class constant, not a setting
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert names == ["eta", "seed", "optimizer_o1", "optimizer_o2", "prune_dominated"]

    @pytest.mark.parametrize("field", ["seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.float64(3.0), "3"])
    def test_integer_fields_refuse_other_types(self, field, value):
        # a float or a bool is refused as a run setting, not truncated,
        # counted as 1 or left for numpy to reject
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["seed"])
    def test_integer_fields_take_numpy_integers(self, field):
        config = RunConfig(**{field: np.int64(3)})
        assert type(getattr(config, field)) is int and config == RunConfig(**{field: 3})
        # the run's JSON trace holds the seed
        json.dumps(run(random_quadratic(6, 8, 1), config).to_json_dict())


class TestTrace:
    def test_json_trace_schema(self, tmp_path):
        h = random_quadratic(12, 22, 11)
        result = run(h, RunConfig(eta=0.5, seed=11))
        path = tmp_path / "trace.json"
        write_trace(result, str(path))
        data = json.loads(path.read_text())
        assert set(data) == {
            "chain", "best_config", "best_energy", "n_q", "iterations_used", "r",
            "criterion", "eta", "seed", "n_vars", "trace",
        }
        assert set(data["trace"]) == {
            "n_original", "constant", "quadratic", "invocations", "final_reduced_energy", "levels",
        }
        assert data["n_q"] == result.n_q
        assert data["criterion"] == result.criterion
        levels = data["trace"]["levels"]
        assert len(levels) == result.iterations_used
        for level in levels:
            assert set(level) == {
                "partition", "membership", "deltas", "e0s", "d", "d_window", "m_tilde",
                "invocation_sizes", "complete",
            }
            assert isinstance(level["partition"], list)
            assert all(isinstance(x, int) for x in level["partition"])
            assert len(level["deltas"]) == len(level["m_tilde"])
            assert len(level["d_window"]) == len(level["d"])

    @pytest.mark.parametrize("kind", ["quadratic", "pubo"])
    def test_window_sizes_before_and_after_pruning(self, kind):
        pruned = 0
        for seed in range(6):
            h = random_quadratic(14, 26, seed) if kind == "quadratic" else random_pubo(12, 20, seed)
            on = run(h, RunConfig(eta=1.0, seed=seed)).trace.levels
            plain = run(h, RunConfig(eta=1.0, seed=seed, prune_dominated=False)).trace.levels
            for level in on:
                assert all(d <= window for d, window in zip(level.d_list, level.d_window))
                pruned += sum(level.d_window) - sum(level.d_list)
            for level in plain:
                assert level.d_list == level.d_window
            # the first level's windows do not depend on the field
            assert on[0].d_window == plain[0].d_window and on[0].e0s == plain[0].e0s
        assert pruned

    @pytest.mark.parametrize("kind", ["quadratic", "pubo"])
    def test_chain_section(self, kind):
        # both instances iterate once and pad some encoding, dead-end pruning on
        if kind == "quadratic":
            h, seed = random_quadratic(16, 30, 4), 4
        else:
            h, seed = random_pubo(14, 22, 2), 2
        result = run(h, RunConfig(eta=0.5, seed=seed))
        data = result.to_json_dict()
        json.dumps(data)
        chain = data["chain"]
        assert chain["n_vars"] == h.n_vars
        assert len(chain["levels"]) == len(result.chain.levels) == 2
        padded = 0
        for depth, (level, stored) in enumerate(zip(chain["levels"], result.chain.levels)):
            for c, enc in enumerate(stored.encodings):
                if depth == 0:
                    width = len(level["membership"][c])
                else:
                    below = chain["levels"][depth - 1]["m_tilde"]
                    width = sum(below[mid] for mid in level["membership"][c])
                decode = level["decode"][c]
                assert len(decode) == enc.d_tilde == 1 << level["m_tilde"][c]
                for mu, state in enumerate(enc.decode.tolist()):
                    assert decode[mu] == "".join(str(b) for b in int_to_bits(state, width))
                    assert decode[mu] == decode[mu % level["d"][c]]
                padded += enc.d_tilde - level["d"][c]
                energies = level["energies"][c]
                assert all(type(e) is float for e in energies)
                assert energies == [float(e) for e in enc.energies]
        assert padded

    def test_best_config_roundtrip(self):
        h = random_quadratic(10, 18, 12)
        result = run(h, RunConfig(eta=1.0, seed=12))
        bits = "".join(str(b) for b in result.best_config)
        assert len(bits) == 10
        assert h.evaluate(tuple(int(c) for c in bits)) == pytest.approx(result.best_energy)


class TestShiftDiagnostics:
    def test_quadratic_ratios_bounded(self):
        for seed in range(6):
            h = random_quadratic(16, 30, seed)
            result = run(h, RunConfig(eta=0.5, seed=seed))
            for diag in shift_diagnostics(h, result):
                assert abs(diag.ratio_a) <= 1.0 + 1e-9
                assert diag.delta > 0.0

    def test_no_interaction_community_excluded(self):
        # two disconnected cliques cluster apart; no straddling terms at all
        h = PolyHamiltonian(6, {(0, 1): 1.0, (1, 2): 0.5, (0, 2): 0.25,
                                (3, 4): 1.0, (4, 5): 0.5, (3, 5): 0.25})
        result = run(h, RunConfig(eta=1.0, seed=0))
        if result.iterations_used >= 1 and result.trace.levels[0].deltas:
            diags = shift_diagnostics(h, result)
            for diag in diags:
                assert diag.delta > 0.0

    def test_interaction_energy_definition(self):
        h = random_quadratic(12, 22, 13)
        result = run(h, RunConfig(eta=0.5, seed=13))
        diags = shift_diagnostics(h, result)
        # local + interaction energies over all communities recover the total
        # (each straddling pair is shared by exactly two communities)
        total_local = sum(d.local_energy for d in diags)
        total_inter = sum(d.interaction_energy for d in diags)
        level0 = result.trace.levels[0]
        # add locals of delta-0 communities that were excluded
        p = Partition.from_labels(level0.partition)
        for i, members in enumerate(p.communities):
            if level0.deltas[i] <= 0.0:
                restricted = tuple(result.best_config[v] for v in members)
                total_local += h.split([members])[0].evaluate(restricted)
        assert total_local + total_inter / 2.0 + h.constant == pytest.approx(
            result.best_energy, abs=1e-9
        )
