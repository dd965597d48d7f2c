"""End-to-end run, recombination criteria, and metric tests."""

import json

import numpy as np
import pytest

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
from dcreduce.hamiltonian import PolyHamiltonian, int_to_bits
from helpers import brute_min, random_pubo, random_quadratic


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

    def test_linear_terms_pubo_and_quadratize_agree(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 10
            terms = {(i,): float(rng.uniform(-1, 1)) or 0.2 for i in range(n)}
            for _ in range(2 * n):
                i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
                terms[(i, j)] = float(rng.uniform(-1, 1)) or 0.4
            h = PolyHamiltonian(n, terms)
            exact = brute_min(h)
            via_pubo = run(h, RunConfig(eta=1.0, seed=seed, linear_terms="pubo"))
            via_quad = run(h, RunConfig(eta=1.0, seed=seed, linear_terms="quadratize"))
            assert via_pubo.best_energy == pytest.approx(exact, abs=1e-9)
            assert via_quad.best_energy == pytest.approx(exact, abs=1e-9)
            assert len(via_quad.best_config) == n

    def test_annealing_backends(self):
        h = random_quadratic(12, 22, 5)
        cfg = RunConfig(eta=1.0, seed=5, optimizer_o1="annealing", optimizer_o2="annealing")
        result = run(h, cfg)
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)

    def test_penalty_padding_run(self):
        h = random_quadratic(12, 22, 6)
        result = run(h, RunConfig(eta=1.0, seed=6, padding_mode="penalty"))
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)

    def test_chi_bound_run(self):
        h = random_quadratic(12, 22, 7)
        result = run(h, RunConfig(eta=1.0, seed=7, compute_chi=False))
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)

    def test_max_iterations_backstop(self):
        h = random_quadratic(14, 26, 8)
        result = run(h, RunConfig(eta=1.0, seed=8, max_iterations=1))
        assert result.iterations_used == 1

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

    def test_community_cap(self):
        h = random_quadratic(12, 22, 9)
        result = run(h, RunConfig(eta=1.0, seed=9, max_community_size=4))
        level0 = result.trace.levels[0]
        assert all(len(m) <= 4 for m in level0.membership)
        assert result.best_energy == pytest.approx(brute_min(h), abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            RunConfig(eta=1.5)
        with pytest.raises(ParameterError):
            RunConfig(max_iterations=0)
        with pytest.raises(ParameterError):
            RunConfig(optimizer_o1="quantum")


class TestTrace:
    def test_json_trace_schema(self, tmp_path):
        h = random_quadratic(12, 22, 11)
        result = run(h, RunConfig(eta=0.5, seed=11))
        path = tmp_path / "trace.json"
        write_trace(result, str(path))
        data = json.loads(path.read_text())
        assert data["n_q"] == result.n_q
        assert data["criterion"] == result.criterion
        levels = data["trace"]["levels"]
        assert len(levels) == result.iterations_used
        for level in levels:
            assert isinstance(level["partition"], list)
            assert all(isinstance(x, int) for x in level["partition"])
            assert len(level["deltas"]) == len(level["m_tilde"])

    @pytest.mark.parametrize("padding", ["repeat", "penalty"])
    @pytest.mark.parametrize("kind", ["quadratic", "pubo"])
    def test_chain_section(self, kind, padding):
        # both instances iterate once and pad some encoding
        if kind == "quadratic":
            h, seed = random_quadratic(16, 30, 3), 3
        else:
            h, seed = random_pubo(14, 22, 2), 2
        result = run(h, RunConfig(eta=0.5, seed=seed, padding_mode=padding))
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
                assert level["padding_mode"][c] == padding
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
        from dcreduce.cutoff import decompose
        p = Partition.from_labels(level0.partition)
        dec = decompose(h, p)
        for i in range(p.n_communities):
            if level0.deltas[i] <= 0.0:
                local = dec.local_poly(i)
                restricted = tuple(result.best_config[v] for v in dec.community_vars[i])
                total_local += local.evaluate(restricted)
        assert total_local + total_inter / 2.0 + h.constant == pytest.approx(
            result.best_energy, abs=1e-9
        )
