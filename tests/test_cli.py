import json
import math
import tracemalloc

import pytest

from pwdual.cli import COMMANDS, SYSTEM_DEFAULTS, ConfigError, \
    load_config, main


def run(tmp_path, command, *overrides, out="run"):
    args = [command, "--out", str(tmp_path / out)]
    for item in overrides:
        args += ["--set", item]
    return main(args)


def read_report(tmp_path, name, out="run"):
    return json.loads((tmp_path / out / name).read_text())


SMALL = ("system.modes_per_axis=2", "system.volume=4.0")


class TestConfig:
    def test_unknown_system_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["system.mystery=3"])

    def test_unknown_block_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["other.x=1"])

    def test_file_and_override_precedence(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"system": {"modes_per_axis": 2}, "seed": 3}))
        cfg = load_config(str(cfg_file), ["system.modes_per_axis=4"])
        assert cfg["system"]["modes_per_axis"] == 4
        assert cfg["seed"] == 3

    def test_r_s_requires_3d(self, tmp_path):
        code = run(tmp_path, "build", "system.r_s=2.0",
                   "system.dimension=1")
        assert code == 2

    def test_output_keys_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="'output'"):
            load_config(None, ["output.format=csv"])
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"output": {"dir": "x"}}))
        assert main(["build", "--config", str(cfg_file),
                     "--out", str(tmp_path / "run")]) == 2
        assert "'output'" in capsys.readouterr().err

    @pytest.mark.parametrize("item,message", [
        ("system.spinful=False", "spinful in system block must be true"),
        ("task.shots=many", "shots in task block"),
        ("seed=null", "seed in config root"),
    ])
    def test_malformed_value_exit_2(self, tmp_path, capsys, item, message):
        # "False" is not JSON, so it arrives as a string
        assert run(tmp_path, "measure", item) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,item,message", [
        ("measure", "task.shots=2.7", "shots in task block must be an "
                                      "integer, got 2.7"),
        ("measure", "seed=1.5", "seed in config root must be an integer"),
        ("build", "system.modes_per_axis=4.5", "modes_per_axis in system "
                                               "block must be an integer"),
        ("trotter-sweep", "task.r_list=[2, 4.5, 8]",
         "each r_list entry in task block must be an integer, got 4.5"),
        ("lcu-check", "task.orders=[2, 3.5]",
         "each orders entry in task block must be an integer, got 3.5"),
    ])
    def test_non_integral_integer_exit_2(self, tmp_path, capsys, command,
                                         item, message):
        """int() would truncate these without a word."""
        assert run(tmp_path, command, *SMALL, item) == 2
        assert message in capsys.readouterr().err

    def test_integral_float_is_an_integer(self, tmp_path):
        assert run(tmp_path, "measure", *SMALL, "system.eta=1",
                   "task.shots=40.0") == 0
        report = read_report(tmp_path, "measure_report.json")
        assert report["config"]["task"]["shots"] == 40
        assert report["result"]["shots"] == 40
        assert run(tmp_path, "trotter-sweep", *SMALL, "system.eta=1",
                   "task.r_list=[2.0, 4.0]", "task.slope_tolerance=100.0",
                   out="sweep") == 0
        rows = read_report(tmp_path, "trotter_report.json", out="sweep")[
            "result"]["rows"]
        assert [r for r, _ in rows] == [2, 4]

    def test_r_s_sets_volume(self, tmp_path):
        code = run(tmp_path, "build", "system.dimension=3",
                   "system.modes_per_axis=2", "system.r_s=1.0",
                   "system.eta=2")
        assert code == 0


class TestExitCodes:
    def test_odd_modes_exit_2(self, tmp_path):
        assert run(tmp_path, "build", "system.modes_per_axis=3") == 2

    def test_validation_error_names_constraint(self, tmp_path, capsys):
        run(tmp_path, "build", "system.modes_per_axis=3")
        err = capsys.readouterr().err
        assert "radix-2" in err

    def test_budget_only_strategy_exit_2(self, tmp_path, capsys):
        assert run(tmp_path, "measure", *SMALL,
                   "task.strategy=phase_estimation") == 2
        assert "unknown strategy 'phase_estimation'" in capsys.readouterr().err

    def test_oversized_statevector_exit_2(self, tmp_path, capsys):
        # 40 qubits: the reference state alone would need 16 TiB
        tracemalloc.start()
        try:
            code = run(tmp_path, "measure", "system.modes_per_axis=20",
                       "system.volume=20.0", "system.spinful=true",
                       "system.eta=2")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "limited to" in capsys.readouterr().err
        assert peak < 16 * 2 ** 20

    def test_ffft_check_past_matrix_cap_exit_2(self, tmp_path, capsys):
        # FFFT registers have power-of-two qubit counts, so past 8 qubits
        # the next is 16, where circuit_matrix refuses before allocating
        tracemalloc.start()
        try:
            code = run(tmp_path, "ffft-check", "system.modes_per_axis=8",
                       "system.volume=8.0", "system.spinful=true")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "16-qubit circuit matrix needs" in err
        assert "limited to DENSE_BYTES_LIMIT" in err
        assert peak < 16 * 2 ** 20

    def test_oversized_vqe_sector_exit_2(self, tmp_path, capsys):
        # 16 qubits, 8 electrons: the sector Fourier matrix needs 2.65 GB
        code = run(tmp_path, "vqe-jellium", "system.modes_per_axis=8",
                   "system.volume=8.0", "system.spinful=true",
                   "system.eta=8")
        assert code == 2
        assert "DENSE_BYTES_LIMIT" in capsys.readouterr().err

    def test_failed_assertion_exit_1(self, tmp_path):
        # an impossible slope expectation forces an embedded check failure
        code = run(tmp_path, "trotter-sweep", *SMALL, "system.spinful=true",
                   "task.r_list=[2,4,8]", "task.expected_slope=-7.0",
                   "task.slope_tolerance=0.01")
        assert code == 1


def run_traced(tmp_path, command, *overrides):
    """(exit code, tracemalloc peak in bytes) of one CLI run."""
    tracemalloc.start()
    try:
        code = run(tmp_path, command, *overrides)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


SPINFUL_12 = ("system.modes_per_axis=6", "system.volume=6.0",
              "system.spinful=true")


class TestDenseBudget:
    """Mandatory dense work exits 2 before allocating; optional
    verification stages are skipped and named under meta.caps."""

    def test_diagonalize_past_budget_exit_2(self, tmp_path, capsys):
        # 40 qubits: the sparse build alone would hold 2^40-entry vectors
        code, peak = run_traced(tmp_path, "diagonalize",
                                "system.modes_per_axis=20",
                                "system.volume=20.0", "system.spinful=true")
        assert code == 2
        assert "limited to DENSE_BYTES_LIMIT" in capsys.readouterr().err
        assert peak < 16 * 2 ** 20

    def test_trotter_sweep_past_budget_exit_2(self, tmp_path, capsys):
        # 16 qubits: the step builds, the exact propagator is refused
        code, peak = run_traced(tmp_path, "trotter-sweep",
                                "system.modes_per_axis=8",
                                "system.volume=8.0", "system.spinful=true")
        assert code == 2
        assert "16-qubit propagator needs" in capsys.readouterr().err
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("overrides,message", [
        (SPINFUL_12, "modes per axis must be a power of two"),
        (SPINFUL_12 + ("task.strategy=bogus",), "unknown strategy"),
    ])
    def test_trotter_sweep_rejects_config_before_dense_work(
            self, tmp_path, capsys, overrides, message):
        # on 12 qubits H and its propagator alone would take 537 MB
        code, peak = run_traced(tmp_path, "trotter-sweep", *overrides)
        assert code == 2
        assert message in capsys.readouterr().err
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("command,overrides,report,stage,kept", [
        ("build", ("task.representations=[\"dual\",\"plane_wave\"]",),
         "build_report.json", "isospectrality", "isospectrality_max_gap"),
        ("lcu-check", ("task.t=0.01",), "lcu_report.json", "taylor", None),
        ("vqe-jellium", ("system.eta=1", "task.restarts=1",
                         "task.maxiter=20"),
         "vqe_report.json", "exact_energy", "exact_energy"),
    ])
    def test_optional_stage_skipped_past_budget(
            self, tmp_path, monkeypatch, command, overrides, report, stage,
            kept):
        cell = ("system.modes_per_axis=2", "system.volume=4.0",
                "system.spinful=true", *overrides)
        assert run(tmp_path, command, *cell, out="full") in (0, 1)
        full = read_report(tmp_path, report, out="full")
        assert "caps" not in full["meta"]
        # 4 KiB admits the 4-state sector and the 4-qubit basis state,
        # not the sparse Hamiltonian or exact evolution
        monkeypatch.setattr("pwdual.pauli.DENSE_BYTES_LIMIT", 4096)
        assert run(tmp_path, command, *cell, out="capped") == 0
        capped = read_report(tmp_path, report, out="capped")
        assert "limited to" in capped["meta"]["caps"][stage]
        # the result is the full run's without the skipped stage's key;
        # the Taylor table stays, empty
        want = {k: v for k, v in full["result"].items() if k != kept}
        if kept is None:
            assert full["result"]["taylor"]
            want["taylor"] = {}
        else:
            assert kept in full["result"]
        assert capped["result"] == want


class TestCommands:
    def test_build_writes_hamiltonians_and_isospectrality(self, tmp_path):
        code = run(tmp_path, "build", *SMALL,
                   'task.representations=["dual","plane_wave"]')
        assert code == 0
        report = read_report(tmp_path, "build_report.json")
        assert report["result"]["isospectrality_max_gap"] < 1e-9
        assert (tmp_path / "run" / "hamiltonian_dual.txt").exists()
        assert (tmp_path / "run" / "hamiltonian_plane_wave.txt").exists()
        assert set(report["meta"]["stages"]) == {"build", "compile", "verify"}

    def test_build_dual_pair_count(self, tmp_path):
        run(tmp_path, "build", *SMALL)
        report = read_report(tmp_path, "build_report.json")
        assert report["result"]["dual"]["interaction_terms"] == 1  # C(2,2)

    def test_build_reports_qubit_lambda(self, tmp_path):
        from pwdual.geometry import build_grid
        from pwdual.hamiltonian import build_dual, build_qubit
        assert run(tmp_path, "build", "system.modes_per_axis=4",
                   "system.volume=4.0") == 0
        report = read_report(tmp_path, "build_report.json")
        hs = build_dual(build_grid(1, 4, 4.0))
        qubit = build_qubit(hs)
        assert report["result"]["norm_bounds"]["lam"] == \
            qubit.coefficient_norm(include_identity=True)
        assert report["meta"]["counts"] == {
            "qubits": 4, "fermion_terms": len(hs.total().terms),
            "pauli_terms": len(qubit.terms)}
        assert set(report["meta"]["stages"]) == {"build", "compile"}

    def test_diagonalize(self, tmp_path):
        code = run(tmp_path, "diagonalize", *SMALL)
        assert code == 0
        text = (tmp_path / "run" / "spectrum.csv").read_text()
        assert text.startswith("index,energy")
        meta = read_report(tmp_path, "diagonalize_report.json")["meta"]
        # 2 spinless orbitals: blocks of 0, 1 and 2 electrons
        assert meta["counts"] == {"qubits": 2, "blocks": 3,
                                  "largest_block": 2}
        assert set(meta["stages"]) == {"build", "spectrum"}

    def test_ffft_check(self, tmp_path):
        code = run(tmp_path, "ffft-check", "system.modes_per_axis=4",
                   "system.volume=4.0")
        assert code == 0
        report = read_report(tmp_path, "ffft_report.json")
        assert report["result"]["conjugation_max_error"] < 1e-9
        meta = report["meta"]
        assert meta["counts"] == {"qubits": 4,
                                  "gates": report["result"]["gates"],
                                  "matrix_bytes": 16 * 4 ** 4}
        assert set(meta["stages"]) == {"build", "matrix", "verify"}

    def test_swapnet_coverage(self, tmp_path):
        code = run(tmp_path, "swapnet", "task.rows=4", "task.cols=4")
        assert code == 0
        report = read_report(tmp_path, "swapnet_report.json")
        assert report["result"]["pairs_covered"] == 120
        assert report["result"]["first_level_layers"] == 18
        meta = report["meta"]
        assert meta["counts"] == {"qubits": 16,
                                  "layers": report["result"]["depth"]}
        assert set(meta["stages"]) == {"build", "verify"}

    def test_trotter_sweep_slope(self, tmp_path):
        code = run(tmp_path, "trotter-sweep", *SMALL, "system.spinful=true",
                   "task.r_list=[2,4,8,16,32]")
        assert code == 0
        report = read_report(tmp_path, "trotter_report.json")
        assert abs(report["result"]["slope"] + 2.0) < 0.1
        meta = report["meta"]
        assert set(meta["counts"]) == {"qubits", "gates", "matrix_bytes",
                                       "blocks", "largest_block", "leak"}
        assert meta["counts"]["qubits"] == 4
        assert meta["counts"]["blocks"] == 5
        assert meta["counts"]["largest_block"] == 6
        assert meta["counts"]["leak"] == 0.0
        assert meta["counts"]["gates"] > 0
        assert meta["counts"]["matrix_bytes"] == 16 * 4 ** 4
        assert set(meta["stages"]) == {"build", "matrix", "verify"}

    # the 8-qubit spinful cell: its r=2 error (1.447) is saturated
    EIGHT = ("system.modes_per_axis=4", "system.volume=4.0",
             "system.spinful=true")

    def test_trotter_fit_leaves_out_saturated_points(self, tmp_path):
        assert run(tmp_path, "trotter-sweep", *self.EIGHT) == 0
        result = read_report(tmp_path, "trotter_report.json")["result"]
        # the fit over every row is reported unchanged
        assert result["slope"] == -2.112922384739501
        assert result["asymptotic_slope"] == pytest.approx(-2.042, abs=5e-4)
        assert result["local_slopes"] == pytest.approx(
            [-2.368, -2.103, -2.024, -2.006], abs=5e-4)
        assert result["rows"][0][1] > 1.0
        assert result["failures"] == []

    def test_trotter_first_order_against_second_order_fails(self, tmp_path):
        assert run(tmp_path, "trotter-sweep", *self.EIGHT, "task.order=1",
                   "task.expected_slope=-2") == 1
        result = read_report(tmp_path, "trotter_report.json")["result"]
        assert abs(result["asymptotic_slope"] + 1.0) < 0.1

    def test_trotter_fit_needs_two_unsaturated_points(self, tmp_path):
        assert run(tmp_path, "trotter-sweep", *self.EIGHT,
                   "task.r_list=[2,4]") == 1
        result = read_report(tmp_path, "trotter_report.json")["result"]
        assert len(result["rows"]) == 2
        assert math.isnan(result["asymptotic_slope"])
        assert "saturated points (error >= 1)" in result["failures"][0]
        assert "needs two" in result["failures"][0]

    def test_lcu_check(self, tmp_path):
        code = run(tmp_path, "lcu-check", *SMALL)
        assert code == 0
        report = read_report(tmp_path, "lcu_report.json")
        assert report["result"]["reconstruction_max_gap"] < 1e-12
        assert (tmp_path / "run" / "lcu_weights.csv").exists()
        meta = report["meta"]
        assert set(meta["counts"]) == {"qubits", "fermion_terms",
                                       "pauli_terms", "weights"}
        assert meta["counts"]["qubits"] == 2
        assert meta["counts"]["weights"] == report["result"]["term_count"]
        assert set(meta["stages"]) == {"build", "compile", "verify"}

    def test_measure(self, tmp_path):
        code = run(tmp_path, "measure", "system.modes_per_axis=4",
                   "system.volume=4.0", "system.eta=2", "task.shots=400")
        assert code == 0
        report = read_report(tmp_path, "measure_report.json")
        assert {"estimate", "stderr", "shots", "strategy",
                "analytic_budget"} <= set(report["result"])
        meta = report["meta"]
        assert set(meta["stages"]) == {"build", "prepare", "estimate",
                                       "budget"}
        # diagonal groups: the computational and the mode basis. The
        # reference holds the 6 two-electron states, so the computational
        # draw runs on them; on 4 qubits a two-qubit gate meets more than
        # half of the 4 blocks, so the rotated state drops its support and
        # that draw runs over 2^4 states
        assert meta["counts"] == {"qubits": 4, "pauli_terms": 0, "bases": 2,
                                  "shots_drawn": 800, "support": 16,
                                  "dense_draws": 1}
        assert "fast_paths" not in meta

    def test_measure_per_term_bases(self, tmp_path):
        # the 16-qubit 2D cell of the variational benchmark: 232 Pauli
        # terms measured in 97 distinct bases
        code = run(tmp_path, "measure", "system.dimension=2",
                   "system.modes_per_axis=4", "system.volume=16.0",
                   "system.eta=4", "task.strategy=per_term",
                   "task.shots=100")
        assert code == 0
        meta = read_report(tmp_path, "measure_report.json")["meta"]
        # every basis rotation keeps its state's support; the largest
        # holds 5416 of the 2^16 basis states
        assert meta["counts"] == {"qubits": 16, "pauli_terms": 232,
                                  "bases": 97, "shots_drawn": 23200,
                                  "support": 5416, "dense_draws": 0}
        assert meta["fast_paths"] == ["support"]
        # eta = 4 stops inside the |k| = 1 shell of the 4 x 4 grid
        assert read_report(tmp_path, "measure_report.json")["meta"][
            "warnings"] == ["degenerate mode shell at the boundary; "
                            "filling by lexicographic tiebreak"]

    def test_vqe_jellium(self, tmp_path):
        code = run(tmp_path, "vqe-jellium", *SMALL, "system.eta=1",
                   "task.maxiter=80", "task.restarts=2")
        assert code == 0
        report = read_report(tmp_path, "vqe_report.json")
        res = report["result"]
        assert res["optimized_energy"] <= res["reference_energy"] + 1e-9
        meta = report["meta"]
        assert meta["counts"] == {"qubits": 2, "sector_dimension": 2,
                                  "parameters": 5,
                                  "evaluations": res["evaluations"]}
        assert set(meta["stages"]) == {"build", "optimize", "verify",
                                       "exact"}
        assert meta["checks"]["circuit_energy_gap"] < 1e-12
        assert "warnings" not in meta  # one electron: a closed shell


# one small cell per command; swapnet reads no system block
CELLS = [
    ("build", ()),
    ("measure", ("system.modes_per_axis=4", "system.eta=2",
                 "task.shots=300")),
    ("lcu-check", ()),
    ("swapnet", ("task.rows=2", "task.cols=2")),
    ("diagonalize", ()),
    ("trotter-sweep", ("task.r_list=[2,4,8]",)),
    ("ffft-check", ()),
    ("vqe-jellium", ("task.maxiter=80", "task.restarts=2")),
]


def assert_same_outputs(dir_a, dir_b):
    """Every artifact byte for byte and every report's config and result;
    ``meta`` holds timings and may differ."""
    assert sorted(p.name for p in dir_a.iterdir()) == \
        sorted(p.name for p in dir_b.iterdir())
    for path_a in dir_a.iterdir():
        path_b = dir_b / path_a.name
        if path_a.suffix == ".json":
            doc_a = json.loads(path_a.read_text())
            doc_b = json.loads(path_b.read_text())
            doc_a.pop("meta")
            doc_b.pop("meta")
            assert json.dumps(doc_a, sort_keys=True) == \
                json.dumps(doc_b, sort_keys=True)
        else:
            assert path_a.read_bytes() == path_b.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("command,extra", CELLS)
    def test_identical_payload_for_same_seed(self, tmp_path, command, extra):
        overrides = SMALL + extra if command != "swapnet" else extra
        run(tmp_path, command, *overrides, out="a")
        run(tmp_path, command, *overrides, out="b")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")


class TestResolvedEcho:
    """The report's config holds every key the command read, with the
    value it used; fed back through --config it reproduces the run."""

    @pytest.mark.parametrize("command,overrides", [
        (command, SMALL + extra if command != "swapnet" else extra)
        for command, extra in CELLS] + [
        ("build", ("system.dimension=3", "system.modes_per_axis=2",
                   "system.r_s=1.0", "system.eta=2"))],
        ids=[command for command, _ in CELLS] + ["build-r_s"])
    def test_echo_reproduces_itself(self, tmp_path, command, overrides):
        code = run(tmp_path, command, *overrides, out="a")
        (report,) = (tmp_path / "a").glob("*_report.json")
        echo = json.loads(report.read_text())["config"]
        assert set(echo["task"]) == set(COMMANDS[command].task)
        if COMMANDS[command].system:
            # r_s is input only; the echo carries the volume it gives
            assert set(echo["system"]) == set(SYSTEM_DEFAULTS) - {"r_s"}
        else:
            assert set(echo) == {"task", "seed"}
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(echo))
        assert main([command, "--config", str(cfg_file),
                     "--out", str(tmp_path / "b")]) == code
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    def test_r_s_echoed_as_volume(self, tmp_path):
        run(tmp_path, "build", "system.dimension=3",
            "system.modes_per_axis=2", "system.r_s=1.0", "system.eta=2")
        system = read_report(tmp_path, "build_report.json")["config"][
            "system"]
        assert system["volume"] == (4.0 * math.pi / 3.0) * 2

    def test_defaults_filled(self, tmp_path):
        run(tmp_path, "trotter-sweep", *SMALL, "system.spinful=true",
            "task.order=1", "task.r_list=[2,4]")
        config = read_report(tmp_path, "trotter_report.json")["config"]
        assert config["task"] == {
            "r_list": [2, 4], "t": 1.0, "strategy": "split_operator",
            "order": 1, "expected_slope": -1.0, "slope_tolerance": 0.1,
            "epsilon": 1e-3}
        assert config["system"] == {
            "dimension": 1, "modes_per_axis": 2, "volume": 4.0,
            "spinful": True, "eta": 1, "nuclei": [], "truncated_D": None,
            "constant": 0.0}
        assert config["seed"] == 0

    def test_swapnet_rejects_system_keys(self, tmp_path, capsys):
        assert run(tmp_path, "swapnet", "system.modes_per_axis=2") == 2
        assert "swapnet reads no system block" in capsys.readouterr().err
