import json
import tracemalloc

import pytest

from pwdual.cli import main, load_config, ConfigError


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
        with pytest.raises(ConfigError, match="output block"):
            load_config(None, ["output.format=csv"])
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"output": {"dir": "x"}}))
        assert main(["build", "--config", str(cfg_file),
                     "--out", str(tmp_path / "run")]) == 2
        assert "output block" in capsys.readouterr().err

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
        assert "circuit matrix limited to 14 qubits" in capsys.readouterr().err
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


class TestCommands:
    def test_build_writes_hamiltonians_and_isospectrality(self, tmp_path):
        code = run(tmp_path, "build", *SMALL,
                   'task.representations=["dual","plane_wave"]')
        assert code == 0
        report = read_report(tmp_path, "build_report.json")
        assert report["result"]["isospectrality_max_gap"] < 1e-9
        assert (tmp_path / "run" / "hamiltonian_dual.txt").exists()
        assert (tmp_path / "run" / "hamiltonian_plane_wave.txt").exists()

    def test_build_dual_pair_count(self, tmp_path):
        run(tmp_path, "build", *SMALL)
        report = read_report(tmp_path, "build_report.json")
        assert report["result"]["dual"]["interaction_terms"] == 1  # C(2,2)

    def test_build_reports_qubit_lambda(self, tmp_path):
        from pwdual.geometry import build_grid
        from pwdual.hamiltonian import build_dual, build_qubit
        assert run(tmp_path, "build", "system.modes_per_axis=4",
                   "system.volume=4.0") == 0
        bounds = read_report(tmp_path, "build_report.json")["result"][
            "norm_bounds"]
        qubit = build_qubit(build_dual(build_grid(1, 4, 4.0)))
        assert bounds["lam"] == qubit.coefficient_norm(include_identity=True)

    def test_diagonalize(self, tmp_path):
        code = run(tmp_path, "diagonalize", *SMALL)
        assert code == 0
        text = (tmp_path / "run" / "spectrum.csv").read_text()
        assert text.startswith("index,energy")

    def test_ffft_check(self, tmp_path):
        code = run(tmp_path, "ffft-check", "system.modes_per_axis=4",
                   "system.volume=4.0")
        assert code == 0
        report = read_report(tmp_path, "ffft_report.json")
        assert report["result"]["conjugation_max_error"] < 1e-9

    def test_swapnet_coverage(self, tmp_path):
        code = run(tmp_path, "swapnet", "task.rows=4", "task.cols=4")
        assert code == 0
        report = read_report(tmp_path, "swapnet_report.json")
        assert report["result"]["pairs_covered"] == 120
        assert report["result"]["first_level_layers"] == 18

    def test_trotter_sweep_slope(self, tmp_path):
        code = run(tmp_path, "trotter-sweep", *SMALL, "system.spinful=true",
                   "task.r_list=[2,4,8,16,32]")
        assert code == 0
        report = read_report(tmp_path, "trotter_report.json")
        assert abs(report["result"]["slope"] + 2.0) < 0.1

    def test_lcu_check(self, tmp_path):
        code = run(tmp_path, "lcu-check", *SMALL)
        assert code == 0
        report = read_report(tmp_path, "lcu_report.json")
        assert report["result"]["reconstruction_max_gap"] < 1e-12
        assert (tmp_path / "run" / "lcu_weights.csv").exists()

    def test_measure(self, tmp_path):
        code = run(tmp_path, "measure", "system.modes_per_axis=4",
                   "system.volume=4.0", "system.eta=2", "task.shots=400")
        assert code == 0
        report = read_report(tmp_path, "measure_report.json")
        assert {"estimate", "stderr", "shots", "strategy",
                "analytic_budget"} <= set(report["result"])

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


class TestDeterminism:
    @pytest.mark.parametrize("command,extra", [
        ("build", ()),
        ("measure", ("system.modes_per_axis=4", "system.eta=2",
                     "task.shots=300")),
        ("lcu-check", ()),
        ("swapnet", ("task.rows=2", "task.cols=2")),
        ("diagonalize", ()),
        ("trotter-sweep", ("task.r_list=[2,4,8]",)),
        ("ffft-check", ()),
        ("vqe-jellium", ("task.maxiter=80", "task.restarts=2")),
    ])
    def test_identical_payload_for_same_seed(self, tmp_path, command, extra):
        overrides = SMALL + extra if command != "swapnet" else extra
        run(tmp_path, command, *overrides, out="a")
        run(tmp_path, command, *overrides, out="b")
        for path_a in (tmp_path / "a").iterdir():
            path_b = tmp_path / "b" / path_a.name
            if path_a.suffix == ".json":
                doc_a = json.loads(path_a.read_text())
                doc_b = json.loads(path_b.read_text())
                doc_a.pop("meta")
                doc_b.pop("meta")
                assert doc_a == doc_b
            else:
                assert path_a.read_bytes() == path_b.read_bytes()
