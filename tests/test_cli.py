"""Command-line interface and sweep-harness tests."""

import csv
import io
import json

import numpy as np
import pytest

import dcreduce.cli as cli_module
from dcreduce.benchgen import family_by_label, generate
from dcreduce.cli import (
    EXIT_INPUT,
    EXIT_RESOURCE,
    SweepSpec,
    diagnostics_rows,
    main,
    run_sweep,
    write_rows,
)
from dcreduce.driver import RunConfig, run, shift_diagnostics
from dcreduce.errors import ParameterError
from dcreduce.hamiltonian import MAX_TABLE_VARS, PolyHamiltonian, load_problem
from helpers import brute_min


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def path_problem(tmp_path):
    # 6-vertex path with alternating couplings
    h = PolyHamiltonian(
        6, {(i, i + 1): [0.9, -0.7, 0.5, -0.8, 0.6][i] for i in range(5)}
    )
    payload = {"n": 6, "terms": [{"vars": list(s), "coeff": c} for s, c in sorted(h.terms.items())]}
    path = tmp_path / "path6.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return h, str(path)


class TestSolveCommand:
    def test_exact_on_path(self, path_problem, capsys, tmp_path):
        h, path = path_problem
        trace = tmp_path / "trace.json"
        code = main(["solve", path, "--eta", "1.0", "--out", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        energy = float(out.splitlines()[0].split()[1])
        assert energy == pytest.approx(brute_min(h), abs=1e-9)
        config_line = [line for line in out.splitlines() if line.startswith("config ")][0]
        bits = tuple(int(c) for c in config_line.split()[1])
        assert h.evaluate(bits) == pytest.approx(energy, abs=1e-12)
        data = json.loads(trace.read_text())
        assert data["criterion"] in (0, 1, 2, 3)

    def test_eta_zero_retains_flip_pairs(self, path_problem, capsys, tmp_path):
        _, path = path_problem
        trace = tmp_path / "trace.json"
        code = main(["solve", path, "--eta", "0.0", "--out", str(trace)])
        assert code == 0
        data = json.loads(trace.read_text())
        level0 = data["trace"]["levels"][0]
        # pure-quadratic locals are flip-degenerate: every retained set is even
        assert all(d % 2 == 0 for d in level0["d"])

    def test_malformed_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code = main(["solve", str(bad)])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_resource_ceiling_is_one_error_line(self, tmp_path, capsys):
        instance = tmp_path / "er.txt"
        assert main(["gen", "--spec", "er:m=160:n=40:seed=1", "--out", str(instance)]) == 0
        code = main(["solve", str(instance), "--optimizer", "exhaustive"])
        assert code == EXIT_RESOURCE
        assert code not in (0, EXIT_INPUT)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_overflowing_input_is_one_error_line(self, tmp_path, capsys):
        instance = tmp_path / "triangle.txt"
        instance.write_text("0 1 1e308\n1 2 1e308\n0 2 1e308\n", encoding="utf-8")
        assert main(["solve", str(instance)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_isolated_top_vertices_survive_gen_and_solve(self, tmp_path, capsys):
        # 8 random edges on 16 vertices leave the top two without an edge
        instance = tmp_path / "er.txt"
        assert main(["gen", "--spec", "er:n=16:m=8:seed=6", "--out", str(instance)]) == 0
        assert load_problem(str(instance)).n_vars == 16
        capsys.readouterr()
        assert main(["solve", str(instance)]) == 0
        config_line = [line for line in capsys.readouterr().out.splitlines() if line.startswith("config ")][0]
        assert len(config_line.split()[1]) == 16

    def test_term_past_the_truth_table_cap_solves(self, tmp_path, capsys):
        n = MAX_TABLE_VARS + 1
        problem = tmp_path / "wide.json"
        problem.write_text(json.dumps({"n": n, "terms": [{"vars": list(range(n)), "coeff": 0.7}]}))
        assert main(["solve", str(problem)]) == 0
        energy = float(capsys.readouterr().out.splitlines()[0].split()[1])
        assert energy == pytest.approx(-0.7)

    def test_solve_edge_list_input(self, tmp_path, capsys):
        instance = tmp_path / "ring.txt"
        main(["gen", "--spec", "ring:k=2:n=8:seed=4", "--out", str(instance)])
        code = main(["solve", str(instance), "--eta", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        energy = float(out.splitlines()[0].split()[1])
        assert energy == pytest.approx(brute_min(load_problem(str(instance))), abs=1e-9)


@pytest.mark.parametrize("command", ["solve", "sweep", "diagnostics"])
def test_run_flags_reach_run_config(command, path_problem, monkeypatch):
    seen = []

    def fake_run(h, cfg):
        seen.append(cfg)
        raise ParameterError("stopped once the config was read")

    monkeypatch.setattr(cli_module, "run", fake_run)
    monkeypatch.delenv("DC_REDUCE_THREADS", raising=False)
    argv = {
        "solve": ["solve", path_problem[1]],
        "sweep": ["sweep", "--family", "ring_k2", "--n", "8", "--instances", "1"],
        "diagnostics": ["diagnostics", "--n", "8", "--instances", "1"],
    }[command]
    main(argv + ["--optimizer", "annealing", "--prune", "off"])
    assert len(seen) == 1
    cfg = seen[0]
    assert (cfg.optimizer_o1, cfg.optimizer_o2, cfg.prune_dominated) == ("annealing", "annealing", False)


@pytest.mark.parametrize("command", ["solve", "sweep", "diagnostics"])
def test_padding_flag_is_refused(command, path_problem):
    # every padded index repeats a retained state; there is no flag to choose
    argv = {
        "solve": ["solve", path_problem[1]],
        "sweep": ["sweep", "--family", "ring_k2", "--n", "8"],
        "diagnostics": ["diagnostics"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--padding", "penalty"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["sweep", "diagnostics"])
def test_unwritable_out_is_refused_before_any_run(command, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli_module, "run", lambda *args: calls.append(args))
    argv = {
        "sweep": ["sweep", "--family", "3reg", "--n", "8", "--instances", "2"],
        "diagnostics": ["diagnostics", "--n", "8", "--instances", "2"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert calls == []


class TestGenCommand:
    def test_writes_edge_list(self, tmp_path):
        out = tmp_path / "instance.txt"
        code = main(["gen", "--spec", "3reg:n=10:seed=7", "--out", str(out)])
        assert code == 0
        h = load_problem(str(out))
        assert h.n_vars == 10
        assert len(h.terms) == 15

    def test_bad_spec(self, capsys):
        assert main(["gen", "--spec", "nope:n=4"]) != 0

    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        code = main(["gen", "--spec", "3reg:n=10:seed=7", "--out", str(tmp_path / "missing" / "x.txt")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestSweep:
    def test_rows_and_aggregates(self, tmp_path):
        out = tmp_path / "sweep.csv"
        spec = SweepSpec(families=("3reg",), sizes=(10,), etas=(1.0, 0.5), instances=4, seed0=0)
        rows = run_sweep(spec)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_rows(rows, fh)
        data_rows = [r for r in rows if r["kind"] == "row"]
        assert len(data_rows) == 8
        mean_rows = [r for r in rows if r["kind"] == "mean"]
        assert len(mean_rows) == 2

        # aggregate means must be recomputable from the persisted rows
        persisted = read_csv(out)
        for eta in ("1.0", "0.5"):
            rs = [float(r["r"]) for r in persisted if r["kind"] == "row" and r["eta"] == eta]
            mean = [float(r["r"]) for r in persisted if r["kind"] == "mean" and r["eta"] == eta]
            assert np.mean(rs) == pytest.approx(mean[0], abs=1e-12)

    def test_alpha_against_oracle(self):
        spec = SweepSpec(families=("ring_k2",), sizes=(8,), etas=(1.0,), instances=3)
        rows = run_sweep(spec)
        for row in rows:
            if row["kind"] == "row":
                assert row["alpha"] == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self):
        spec = SweepSpec(families=("3reg",), sizes=(10,), etas=(0.5,), instances=3)
        a = run_sweep(spec)
        b = run_sweep(spec)
        for ra, rb in zip(a, b):
            wa = {k: v for k, v in ra.items() if k != "wall_ms"}
            wb = {k: v for k, v in rb.items() if k != "wall_ms"}
            assert wa == wb

    def test_partial_failure_logged_and_continues(self):
        # ring k=4 is infeasible at n=4 (k >= n): that point fails, others survive
        spec = SweepSpec(families=("ring_k4", "ring_k2"), sizes=(4,), etas=(1.0,), instances=2)
        messages = []
        rows = run_sweep(spec, log=messages.append)
        assert len(messages) == 2
        assert all("ring_k4" in m for m in messages)
        data = [r for r in rows if r["kind"] == "row"]
        assert {r["family"] for r in data} == {"ring_k2"}

    def test_failed_points_become_error_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        spec = SweepSpec(families=("ring_k4", "ring_k2"), sizes=(4,), etas=(1.0, 0.5), instances=2)
        rows = run_sweep(spec, log=lambda msg: None)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_rows(rows, fh)
        errors = [r for r in rows if r["kind"] == "error"]
        assert [(r["family"], r["n"], r["seed"], r["eta"]) for r in errors] == [
            ("ring_k4", 4, seed, eta) for seed in (0, 1) for eta in (1.0, 0.5)
        ]
        assert all(r["error"] for r in errors)
        # aggregates are over the ring_k2 rows only
        assert {r["family"] for r in rows if r["kind"] == "mean"} == {"ring_k2"}
        persisted = [r for r in read_csv(out) if r["kind"] == "error"]
        assert [(r["family"], r["seed"], r["eta"]) for r in persisted] == [
            ("ring_k4", str(seed), repr(eta)) for seed in (0, 1) for eta in (1.0, 0.5)
        ]
        assert all(r["error"] == e["error"] and r["r"] == "" for r, e in zip(persisted, errors))

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_thread_count_is_one_error_line(self, value, monkeypatch, capsys):
        monkeypatch.setenv("DC_REDUCE_THREADS", value)
        code = main([
            "sweep", "--family", "ring_k2", "--n", "8", "--eta", "1.0", "--instances", "1",
        ])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "DC_REDUCE_THREADS" in err[0]
        assert captured.out == ""

    def test_worker_pool_matches_serial(self, monkeypatch):
        # ring_k4 fails at n = 4, so the error rows are compared as well
        spec = SweepSpec(families=("ring_k4", "ring_k2"), sizes=(4,), etas=(1.0,), instances=3)
        serial = run_sweep(spec, log=lambda msg: None)
        monkeypatch.setenv("DC_REDUCE_THREADS", "2")
        pooled = run_sweep(spec, log=lambda msg: None)
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "wall_ms"} for r in rows
        ]
        assert {r["kind"] for r in serial} == {"row", "error", "mean", "std"}
        assert strip(serial) == strip(pooled)

    def test_alpha_past_the_scan_ceiling_is_against_eta_one(self):
        spec = SweepSpec(families=("3reg",), sizes=(32,), etas=(0.5,), instances=2)
        rows = [r for r in run_sweep(spec) if r["kind"] == "row"]
        assert [r["seed"] for r in rows] == [0, 1]
        for row in rows:
            h = generate(family_by_label("3reg").spec_for(32, row["seed"]))
            reference = run(h, RunConfig(eta=1.0, seed=row["seed"])).best_energy
            assert row["alpha"] == row["energy"] / reference

    def test_cli_sweep_stdout(self, capsys):
        code = main([
            "sweep", "--family", "ring_k2", "--n", "8", "--eta", "1.0",
            "--instances", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.split(",") == [
            "kind", "family", "n", "eta", "seed", "r", "alpha",
            "n_it", "n_q", "energy", "wall_ms", "error",
        ]

    def test_prune_off_sweeps_the_plain_windows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--family", "3reg,ring_k2", "--n", "12", "--eta", "1.0,0.5",
            "--instances", "2", "--prune", "off", "--out", str(out),
        ]) == 0
        spec = SweepSpec(
            families=("3reg", "ring_k2"), sizes=(12,), etas=(1.0, 0.5), instances=2,
            config=RunConfig(prune_dominated=False),
        )
        expected = io.StringIO()
        write_rows(run_sweep(spec), expected)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert strip(read_csv(out)) == strip(csv.DictReader(io.StringIO(expected.getvalue())))


def test_comma_lists_strip_every_item():
    # --family, --n and --eta share one rule: items stripped, empty ones skipped
    assert cli_module._parse_list(" 3reg , ring_k2,", str, "--family") == ("3reg", "ring_k2")
    assert cli_module._parse_list(" 8, 12 ,", int, "--n") == (8, 12)
    assert cli_module._parse_list("1.0 , 0.5", float, "--eta") == (1.0, 0.5)


# Problem files the bad-input cases read, written under tmp_path.
_BAD_FILES = {
    "not-utf8.txt": b"\xff\xfe",
    "terms-int.json": b'{"n": 3, "terms": 5}',
    "terms-null.json": b'{"n": 3, "terms": null}',
}


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "ring_k2", "--n", "abc", "--instances", "1"],
    ["sweep", "--family", "ring_k2", "--n", "8", "--eta", "x", "--instances", "1"],
    ["diagnostics", "--n", "1", "--instances", "1"],
    ["diagnostics", "--family", "3reg", "--n", "5", "--instances", "1"],
    ["diagnostics", "--n", "8", "--instances", "1", "--bins", "0"],
    ["sweep", "--family", "nope", "--n", "8", "--instances", "1"],
    ["sweep", "--family", ",", "--n", "8", "--instances", "1"],
    ["sweep", "--family", "ring_k2", "--n", ",", "--instances", "1"],
    ["sweep", "--family", "ring_k2", "--n", "8", "--eta", "2", "--instances", "1"],
    ["sweep", "--family", "ring_k2", "--n", "8", "--eta", ",", "--instances", "1"],
    ["diagnostics", "--n", "8", "--eta", "1.5", "--instances", "1"],
    ["gen", "--spec", "3reg:n=40:sede=7"],
    ["gen", "--spec", "3reg:n=40.9"],
    ["gen", "--spec", "er:n=10:m=8.7"],
    ["gen", "--spec", "3reg:n=8:seed=1:p=5:m=3"],
    ["gen", "--spec", "3reg:n=8:seed=1:k=4"],
    ["solve", "not-utf8.txt"],
    ["solve", "terms-int.json"],
    ["solve", "terms-null.json"],
])
def test_bad_input_is_one_error_line(argv, tmp_path, capsys):
    for name, data in _BAD_FILES.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in _BAD_FILES else a for a in argv]
    out = tmp_path / "out.csv"
    out.write_text("kept\n", encoding="utf-8")
    assert main(argv + ["--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""
    # refused before --out was opened
    assert out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("argv", [
    ["gen", "--spec", "3reg:n=8:seed=-1"],
    ["diagnostics", "--n", "8", "--instances", "1", "--seeds", "-1"],
    ["sweep", "--family", "ring_k2", "--n", "8", "--instances", "2", "--seeds", "-1"],
    ["solve", "g.txt", "--seed", "-1"],
    # only the first of the two instance seeds is negative
    ["diagnostics", "--n", "8", "--instances", "2", "--seeds", "-1"],
])
def test_negative_seed_is_refused_before_any_run(argv, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a run started")

    problem = tmp_path / "g.txt"
    problem.write_text("0 1 1.0\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    out.write_text("kept\n", encoding="utf-8")
    argv = [str(problem) if a == "g.txt" else a for a in argv]
    monkeypatch.setattr(cli_module, "run", fail)
    assert main(argv + ["--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "-1" in err[0]
    assert captured.out == ""
    assert out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "ring_k2", "--n", "8", "--instances", "2", "--seeds", str(2**32 - 1)],
    ["diagnostics", "--n", "8", "--instances", "2", "--seeds", str(2**32 - 1)],
])
def test_last_seed_past_32_bits_is_refused_before_any_run(argv, monkeypatch, capsys):
    # run seeds are 32-bit, so the last instance's seed 2^32 is refused up front
    def fail(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli_module, "run", fail)
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: seed must lie in [0, 2^32), got {2**32}"]
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sweep", "diagnostics"])
def test_instances_below_one_is_one_error_line(command, capsys):
    argv = {
        "sweep": ["sweep", "--family", "ring_k2", "--n", "8"],
        "diagnostics": ["diagnostics", "--n", "8"],
    }[command]
    assert main(argv + ["--instances", "0"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: --instances must be at least 1, got 0"]
    assert captured.out == ""


class TestDiagnostics:
    def test_rows_schema_and_medians(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = main([
            "diagnostics", "--family", "3reg", "--n", "16", "--eta", "0.5",
            "--instances", "3", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("#")
        reader = list(csv.reader(text[1:]))
        kinds = {row[0] for row in reader[1:]}
        assert "community" in kinds
        assert "median_neg_ratio_a" in kinds
        community_rows = [row for row in reader[1:] if row[0] == "community"]
        for row in community_rows:
            ratio_a = float(row[10])
            assert abs(ratio_a) <= 1.0 + 1e-9
            assert float(row[6]) > 0.0  # delta > 0: interaction-free excluded

    def test_prune_off_diagnoses_the_plain_windows(self, tmp_path):
        out = tmp_path / "diag.csv"
        assert main([
            "diagnostics", "--n", "12", "--eta", "0.5", "--instances", "2", "--seeds", "3",
            "--bins", "5", "--prune", "off", "--out", str(out),
        ]) == 0
        records = []
        for seed in (3, 4):
            h = generate(family_by_label("3reg").spec_for(12, seed))
            result = run(h, RunConfig(eta=0.5, seed=seed, prune_dominated=False))
            records.extend((seed, diag) for diag in shift_diagnostics(h, result))
        expected = io.StringIO()
        cli_module._write_diagnostics(diagnostics_rows(records, "3reg", 12, 0.5, bins=5), expected)
        assert out.read_bytes() == expected.getvalue().encode()

    def test_run_errors_are_one_error_line(self, capsys):
        code = main(["diagnostics", "--n", "8", "--eta", "1.5", "--instances", "1"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        # a recombined problem of 51 qubits, beyond the 30-variable scan ceiling
        code = main([
            "diagnostics", "--family", "ws_k4", "--n", "120", "--instances", "1",
            "--optimizer", "exhaustive",
        ])
        assert code == EXIT_RESOURCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_diagnostics_rows_function(self):
        from dcreduce.driver import ShiftDiagnostics

        records = [
            (0, ShiftDiagnostics(0, -0.4, -1.0, 0.5, -1.2, -1.45, -0.8, 0.9655)),
            (0, ShiftDiagnostics(1, 0.2, -0.9, 0.4, -1.0, -1.2, 0.5, 0.5833)),
        ]
        rows = diagnostics_rows(records, "3reg", 16, 0.5, bins=4)
        kinds = [row[0] for row in rows[1:]]
        assert kinds.count("community") == 2
        assert "median_neg_ratio_a" in kinds
        assert "median_ratio_b" in kinds
