import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pwdual.cli import COMMANDS, SYSTEM_DEFAULTS, ConfigError, \
    load_config, main
from pwdual.hamiltonian import build_qubit
from pwdual.measurement import estimate_energy
from pwdual.serialize import fmt
from pwdual.statevector import Circuit, circuit_matrix
from pwdual.trotter import ROUNDOFF_ERROR, fit_slope, trotter_step


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
        # numpy refused it, naming no key
        ("seed=-1", "seed in config root must be non-negative, got -1"),
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

    @pytest.mark.parametrize("command,item,message", [
        ("trotter-sweep", "task.r_list=[null, 2]",
         "each r_list entry in task block must be an integer, got None"),
        ("trotter-sweep", "task.r_list=[true, 2]",
         "each r_list entry in task block must be an integer, got True"),
        ("trotter-sweep", 'task.r_list=[2, "4"]',
         "each r_list entry in task block must be an integer, got '4'"),
        ("lcu-check", "task.orders=[null]",
         "each orders entry in task block must be an integer, got None"),
        ("measure", "task.shots=true",
         "shots in task block must be an integer, got True"),
        ("trotter-sweep", "task.r_list=5",
         "r_list in task block must be a list of integers, got 5"),
        ("lcu-check", "task.orders=null",
         "orders in task block must be a list of integers, got None"),
        ("build", "system.volume=[1]",
         "volume in system block must be null or a finite number, got [1]"),
        ("diagonalize", 'system.truncated_D="x"',
         "truncated_D in system block must be null or a finite number"),
        ("build", "system.volume=true", "got True"),
        ("measure", "task.precision=true",
         "precision in task block must be a finite number, got True"),
        ("lcu-check", "task.t=NaN", "t in task block must be a finite number"),
        ("build", "task.representations=null",
         "representations in task block must be a list of strings, got None"),
        ("build", "task.representations=dual",
         "representations in task block must be a list of strings, got "
         "'dual'"),
        ("build", "task.representations=[1]",
         "each representations entry in task block must be a string, got 1"),
        ("diagonalize", "task.representation=[1]",
         "representation in task block must be a string, got [1]"),
        ("trotter-sweep", 'task.expected_slope="x"',
         "expected_slope in task block must be null or a finite number"),
        ("build", "seed=-1", "seed in config root must be non-negative"),
        ("vqe-jellium", "task.restarts=-1", "restarts and maxiter must be"),
        ("vqe-jellium", "task.restarts=0", "restarts and maxiter must be"),
        ("vqe-jellium", "task.maxiter=0", "restarts and maxiter must be"),
        ("vqe-jellium", "task.maxiter=-3", "restarts and maxiter must be"),
    ])
    def test_non_integer_exit_2(self, tmp_path, capsys, command, item,
                                message):
        """A key's type is its default's. These ended in a TypeError
        traceback, ran a bool as a number, read "dual" as the list of its
        letters, or ran: a negative seed, and counts below one that the
        optimizer clamped without a word."""
        assert run(tmp_path, command, *SMALL, item) == 2
        assert message in capsys.readouterr().err

    def test_none_default_keeps_the_number_given(self, tmp_path):
        assert run(tmp_path, "build", "system.truncated_D=2",
                   "system.volume=4") == 0
        system = read_report(tmp_path, "build_report.json")["config"][
            "system"]
        assert system["truncated_D"] == 2
        assert type(system["truncated_D"]) is int
        assert type(system["volume"]) is int

    @pytest.mark.parametrize("command,nuclei,message", [
        ("diagonalize", "null", "must be a list of [position, charge] pairs"),
        ("diagonalize", "[[[0.5], null]]", "got [[0.5], None]"),
        ("build", "[[1]]", "got [1]"),
        ("build", "[[[0.5], true]]", "got [[0.5], True]"),
        ("build", '[[["0.5"], 1.0]]', "got [['0.5'], 1.0]"),
        ("build", "[[[0.5], 1.0, 2.0]]", "got [[0.5], 1.0, 2.0]"),
        ("build", "[[[0.5], -1.0]]", "nuclear charge must be positive"),
        ("build", "[[[0.5, 0.5], 1.0]]", "position has wrong dimension"),
        ("build", "[[[9.0], 1.0]]", "outside cell"),
    ])
    def test_malformed_nuclei_exit_2(self, tmp_path, capsys, command, nuclei,
                                     message):
        """The first three ended in a TypeError traceback or an unpacking
        message that named no key."""
        assert run(tmp_path, command, *SMALL,
                   f"system.nuclei={nuclei}") == 2
        err = capsys.readouterr().err
        assert "nuclei in system block" in err
        assert message in err

    @pytest.mark.parametrize("r_list,got", [("[0, 2]", "0"),
                                            ("[-2, 4]", "-2"),
                                            ("[2, -1.0]", "-1"),
                                            ("[]", "[]"),
                                            ("[4, 4]", "[4, 4]"),
                                            ("[4, 4, 8, 16]",
                                             "[4, 4, 8, 16]")])
    def test_r_list_entry_below_one_exit_2(self, tmp_path, capsys, r_list,
                                           got):
        """r = 0 divided by zero and r < 0 failed in a logarithm; an empty
        list failed as a sweep with 0 of 0 points (exit 1), and a repeated
        r was fitted twice, or alone, and passed."""
        assert run(tmp_path, "trotter-sweep", *SMALL,
                   f"task.r_list={r_list}") == 2
        rule = ("r_list in task block must be a non-empty list of distinct "
                "entries" if got.startswith("[") else
                "each r_list entry in task block must be at least 1")
        assert f"{rule}, got {got}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,item,got", [
        ("build", "task.representations=[]", "[]"),
        ("build", 'task.representations=["dual","dual"]',
         "['dual', 'dual']"),
        ("lcu-check", "task.orders=[]", "[]"),
        ("lcu-check", "task.orders=[2,2]", "[2, 2]"),
        ("lcu-check", "task.orders=[4, 2, 4.0]", "[4, 2, 4]"),
    ])
    def test_empty_or_repeated_list_exit_2(self, tmp_path, capsys, command,
                                           item, got):
        """An empty list built or checked nothing and passed; a repeated
        representation was built twice and a repeated order reported
        once."""
        assert run(tmp_path, command, *SMALL, item) == 2
        key = item.split("=")[0].split(".")[1]
        assert f"{key} in task block must be a non-empty list of distinct " \
            f"entries, got {got}" in capsys.readouterr().err

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
        assert run(tmp_path, "lcu-check", *SMALL, "task.t=0.01",
                   "task.orders=[2.0, 4]", out="lcu") == 0
        taylor = read_report(tmp_path, "lcu_report.json", out="lcu")[
            "result"]["taylor"]
        assert list(taylor) == ["2", "4"]

    def test_r_s_sets_volume(self, tmp_path):
        code = run(tmp_path, "build", "system.dimension=3",
                   "system.modes_per_axis=2", "system.r_s=1.0",
                   "system.eta=2")
        assert code == 0

    @pytest.mark.parametrize("overrides,key", [
        # (4 pi / 3) r_s^3 raised OverflowError
        (("system.r_s=1e200",), "system.r_s"),
        # finite r_s^3, but the product with eta overflows to inf
        (("system.r_s=1e100", "system.eta=1000000000000"), "system.r_s"),
        # float(M ** d) raised OverflowError
        (("system.modes_per_axis=1e200",), "system.modes_per_axis"),
    ])
    def test_volume_past_float_range_exit_2(self, tmp_path, capsys,
                                            overrides, key):
        assert run(tmp_path, "build", "system.dimension=3", *overrides) == 2
        err = capsys.readouterr().err
        assert key in err and "not a finite number" in err


# a fast run of each command, under the override being tried
FAST = {"task.r_list": "[2,4]", "task.restarts": "1", "task.maxiter": "20",
        "task.shots": "50", "task.rows": "2", "task.cols": "2"}
# one value of every JSON kind, signs, a fraction and nesting
MALFORMED = ["null", "true", '"x"', "[]", "[null]", "{}", "-1", "0", "-1.5",
             "1.5", "[[1]]", '{"a":1}', "[-1]", '["x"]']
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2)
    | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_override_raises(tmp_path, command):
    """Every key of the command, set to each malformed value and to drawn
    JSON values, gives an exit code: a verified result, a failed check or
    a config error, never an exception."""
    spec = COMMANDS[command]
    keys = [f"task.{key}" for key in spec.task] + ["seed"]
    if spec.system:
        keys += [f"system.{key}" for key in SYSTEM_DEFAULTS]
    base = {k: v for k, v in FAST.items() if k[len("task."):] in spec.task}
    if spec.system:
        base.update(dict(item.split("=") for item in SMALL))

    def exit_code(key, raw):
        return run(tmp_path, command,
                   *(f"{k}={v}" for k, v in {**base, key: raw}.items()))

    for key in keys:
        for raw in MALFORMED:
            assert exit_code(key, raw) in (0, 1, 2), (key, raw)

    # derandomized: the same 40 draws on every run, so a defect they reach
    # fails every run
    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True)
    @given(st.sampled_from(keys), JSON_VALUES)
    def drawn(key, value):
        assert exit_code(key, json.dumps(value)) in (0, 1, 2)

    drawn()


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

    @pytest.mark.parametrize("command", sorted(
        name for name, spec in COMMANDS.items() if spec.system))
    @pytest.mark.parametrize("eta", [0, 3])
    def test_eta_outside_the_register_exit_2(self, tmp_path, capsys,
                                             command, eta):
        """On the default 2-qubit grid, 3 electrons were built, checked and
        swept (trotter-sweep suggested an r for them) and 0 electrons were
        optimized as the vacuum, all with exit 0."""
        assert run(tmp_path, command, f"system.eta={eta}") == 2
        assert f"system.eta must be from 1 to 2 (the qubit count), got " \
            f"{eta}" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["diagonal_groups", "per_term",
                                          "diagonal_uv_only"])
    def test_oversized_shot_count_exit_2(self, tmp_path, capsys, strategy):
        # one draw's 3e9 random keys alone would need 22.4 GiB
        tracemalloc.start()
        try:
            code = run(tmp_path, "measure", *SMALL, "task.shots=3000000000",
                       f"task.strategy={strategy}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"3000000000 shots of {strategy} needs" in err
        assert "limited to DENSE_BYTES_LIMIT" in err
        assert peak < 16 * 2 ** 20

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
SPINFUL_16 = ("system.modes_per_axis=8", "system.volume=8.0",
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
        # the propagator budget refused this one before epsilon was read
        (SPINFUL_16 + ("task.epsilon=0",), "epsilon must be positive"),
        (SPINFUL_16 + ("task.t=-1",), "t must be positive"),
        (SPINFUL_16 + ("task.order=3",), "order must be 1 or 2"),
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

    @pytest.mark.parametrize("cell", [
        ("system.modes_per_axis=4", "system.volume=4.0",
         "system.spinful=true", "system.truncated_D=1.5"),
        ("system.modes_per_axis=8", "system.volume=8.0",
         "system.truncated_D=2.5"),
        ("system.modes_per_axis=4", "system.volume=4.0",
         "system.spinful=true", "system.truncated_D=1.5",
         "system.nuclei=[[[1.3], 1.0]]"),
    ])
    def test_build_isospectral_under_truncation(self, tmp_path, cell):
        """Both bases cut the same pair table; with a 1 - cos(|k| D)
        plane-wave kernel these cells disagreed by 7.867, 23.97 and
        7.563."""
        assert run(tmp_path, "build", *cell,
                   'task.representations=["dual","plane_wave"]') == 0
        result = read_report(tmp_path, "build_report.json")["result"]
        assert result["isospectrality_max_gap"] < 1e-9
        assert result["failures"] == []

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

    def test_swapnet_one_qubit(self, tmp_path):
        """A 1x1 lattice has an empty schedule with no levels; reading the
        first level's layer count raised IndexError."""
        assert run(tmp_path, "swapnet", "task.rows=1", "task.cols=1") == 0
        result = read_report(tmp_path, "swapnet_report.json")["result"]
        assert (result["pairs_covered"], result["pairs_total"],
                result["depth"], result["first_level_layers"]) == (0, 0, 0, 0)
        assert result["provenance"] == [] and result["failures"] == []

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
        # the fit over every row is reported unchanged; its last digit
        # follows the BLAS thread count, so the value itself is approximate
        assert result["slope"] == fit_slope(result["rows"])
        assert result["slope"] == pytest.approx(-2.112922384739501, rel=1e-9)
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

    def test_trotter_sweep_checks_compiled_step_once(self, tmp_path,
                                                     monkeypatch):
        """A split-operator sweep forms one full matrix whatever the r
        list: the compiled step's, checked once; direct_jw forms one step
        matrix per r."""
        import pwdual.cli
        calls = []

        def counted(circuit):
            calls.append(len(circuit.gates))
            return circuit_matrix(circuit)

        monkeypatch.setattr(pwdual.cli, "circuit_matrix", counted)
        r_list = "task.r_list=[2,4,8,16,32]"
        assert run(tmp_path, "trotter-sweep", *SMALL, "system.spinful=true",
                   r_list) == 0
        assert len(calls) == 1
        meta = read_report(tmp_path, "trotter_report.json")["meta"]
        assert meta["checks"]["compiled_step_gap"] <= 1e-12
        calls.clear()
        assert run(tmp_path, "trotter-sweep", *SMALL, "system.spinful=true",
                   r_list, "task.strategy=direct_jw", out="jw") == 0
        assert len(calls) == 5
        assert "checks" not in read_report(tmp_path, "trotter_report.json",
                                           out="jw")["meta"]

    def test_direct_jw_sweep_compiles_the_pauli_form_once(
            self, tmp_path, monkeypatch):
        """Every r builds its step from one compile of the Pauli form,
        whatever the r list."""
        import pwdual.cli
        import pwdual.trotter
        calls = []

        def counted(hs):
            calls.append(hs.n_qubits)
            return build_qubit(hs)

        monkeypatch.setattr(pwdual.cli, "build_qubit", counted)
        monkeypatch.setattr(pwdual.trotter, "build_qubit", counted)
        assert run(tmp_path, "trotter-sweep", *SMALL, "system.spinful=true",
                   "task.r_list=[2,4,8,16,32]",
                   "task.strategy=direct_jw") == 0
        assert calls == [4]

    def test_trotter_sweep_reports_corrupted_compiled_step(
            self, tmp_path, monkeypatch):
        import pwdual.cli

        def corrupted(hs, strategy, order):
            step = trotter_step(hs, strategy, order)

            def corrupted_step(tau):
                gates = list(step(tau).gates)
                at = next(i for i, g in enumerate(gates)
                          if g.kind == "CPHASE")
                gates[at] = gates[at]._replace(angle=2 * gates[at].angle)
                return Circuit(hs.n_qubits, gates)
            return corrupted_step

        monkeypatch.setattr(pwdual.cli, "trotter_step", corrupted)
        assert run(tmp_path, "trotter-sweep", *SMALL,
                   "system.spinful=true") == 1
        report = read_report(tmp_path, "trotter_report.json")
        gap = report["meta"]["checks"]["compiled_step_gap"]
        assert gap > 1e-3
        assert report["result"]["failures"] == [
            f"compiled step differs from the block algebra by {gap:.3e}, "
            f"above 1e-12"]
        # the rows come from the algebra, which the corruption misses
        assert len(report["result"]["rows"]) == 5

    def test_ffft_check_counts_off_block_entries(self, tmp_path,
                                                 monkeypatch):
        """An entry of U joining 0 and 1 particles leaves every (k + 1, k)
        block of U^dag a^dag U as it was; the check still fails."""
        import pwdual.cli

        def leaking(circuit):
            u = circuit_matrix(circuit)
            u[0, 1] += 1e-6
            return u

        monkeypatch.setattr(pwdual.cli, "circuit_matrix", leaking)
        assert run(tmp_path, "ffft-check", "system.modes_per_axis=4",
                   "system.volume=4.0") == 1
        result = read_report(tmp_path, "ffft_report.json")["result"]
        assert result["conjugation_max_error"] > 1e-9  # the tolerance

    def test_trotter_fit_needs_two_unsaturated_points(self, tmp_path):
        assert run(tmp_path, "trotter-sweep", *self.EIGHT,
                   "task.r_list=[2,4]") == 1
        result = read_report(tmp_path, "trotter_report.json")["result"]
        assert len(result["rows"]) == 2
        assert math.isnan(result["asymptotic_slope"])
        assert "saturated points (error >= 1)" in result["failures"][0]
        assert "needs two" in result["failures"][0]

    def test_trotter_sweep_exact_to_roundoff_passes(self, tmp_path):
        # the command's own cell (1D M=2 spinless, one electron) has no
        # Trotter error: every row is roundoff, and there is no slope to fit
        assert run(tmp_path, "trotter-sweep") == 0
        result = read_report(tmp_path, "trotter_report.json")["result"]
        assert len(result["rows"]) >= 2
        assert all(e <= ROUNDOFF_ERROR for _, e in result["rows"])
        assert math.isnan(result["asymptotic_slope"])
        assert result["failures"] == []

    def test_trotter_fit_leaves_out_roundoff_points(self, tmp_path,
                                                    monkeypatch):
        import pwdual.cli
        rows = [(2, 4e-3), (4, 1e-3), (8, 2.5e-4), (16, 9e-13), (32, 3e-16)]
        monkeypatch.setattr(pwdual.cli, "measure_error_scaling",
                            lambda *args: (rows, fit_slope(rows)))
        assert run(tmp_path, "trotter-sweep", *SMALL, "system.spinful=true",
                   "task.r_list=[2,4,8,16,32]") == 0
        result = read_report(tmp_path, "trotter_report.json")["result"]
        assert result["slope"] == fit_slope(rows)
        assert result["asymptotic_slope"] == fit_slope(rows[:3])
        assert result["asymptotic_slope"] == pytest.approx(-2.0, abs=1e-12)
        assert result["failures"] == []

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

    @pytest.mark.parametrize("cell", [
        ("system.modes_per_axis=8", "system.volume=8.0",
         "system.truncated_D=2.5"),
        ("system.modes_per_axis=4", "system.volume=4.0",
         "system.spinful=true", "system.truncated_D=1.5"),
        ("system.dimension=2", "system.modes_per_axis=4",
         "system.volume=16.0", "system.truncated_D=1.5"),
    ])
    def test_lcu_check_honours_the_truncation(self, tmp_path, cell):
        """The weights read the pair table that build_dual cuts off; on the
        uncut table these cells failed by 2.737, 1.114 and 0.941."""
        assert run(tmp_path, "lcu-check", *cell) == 0
        result = read_report(tmp_path, "lcu_report.json")["result"]
        assert result["reconstruction_max_gap"] <= 1e-12
        assert result["failures"] == []

    def test_lcu_check_negative_t_past_segment_limit(self, tmp_path):
        """Lambda*t = -4.8 passed the single-segment guard; Lambda*|t|
        does not."""
        assert run(tmp_path, "lcu-check", *SMALL, "task.t=-1") == 0
        result = read_report(tmp_path, "lcu_report.json")["result"]
        assert result["lam"] > math.log(2.0)
        assert result["taylor"] == {}

    def test_lcu_check_names_why_the_taylor_table_is_empty(self, tmp_path):
        """At the default t = 0.1, Lambda ~ 11 puts Lambda*|t| past ln 2:
        the Taylor table is empty and meta.caps.taylor gives both values."""
        assert run(tmp_path, "lcu-check", *SMALL, "system.spinful=true") == 0
        report = read_report(tmp_path, "lcu_report.json")
        assert report["result"]["taylor"] == {}
        lam_t = report["result"]["lam"] * 0.1
        assert lam_t > math.log(2.0)
        assert report["meta"]["caps"] == {"taylor": (
            f"Lambda*|t| = {fmt(lam_t)} is past the single-segment limit "
            f"ln 2 = {fmt(math.log(2.0))}")}

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

    @pytest.mark.parametrize("strategy", ["diagonal_groups", "per_term"])
    @pytest.mark.parametrize("item,message", [
        ("task.precision=0", "precision must be positive"),
        ("task.precision=2.2250738585072014e-308", "past the float range"),
        ("task.mode=\"x\"", "unknown mode 'x'"),
    ])
    def test_measure_refuses_budget_before_sampling(
            self, tmp_path, capsys, monkeypatch, strategy, item, message):
        import pwdual.cli
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return estimate_energy(*args, **kwargs)

        monkeypatch.setattr(pwdual.cli, "estimate_energy", counted)
        assert run(tmp_path, "measure", "system.modes_per_axis=4",
                   "system.volume=4.0", "system.eta=2",
                   f"task.strategy={strategy}", item) == 2
        assert message in capsys.readouterr().err
        assert calls == []

    def test_measure_per_term_compiles_once(self, tmp_path, monkeypatch):
        """The estimate samples the compiled operator and the budget reads
        its coefficient norm; one compile serves both."""
        import pwdual.cli
        import pwdual.measurement
        from pwdual.hamiltonian import build_qubit
        calls = []

        def counted(hs):
            calls.append(hs)
            return build_qubit(hs)

        monkeypatch.setattr(pwdual.cli, "build_qubit", counted)
        monkeypatch.setattr(pwdual.measurement, "build_qubit", counted)
        code = run(tmp_path, "measure", "system.modes_per_axis=4",
                   "system.volume=4.0", "system.eta=2",
                   "task.strategy=per_term", "task.shots=400")
        assert code == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("maxiter,exhausted", [(2, True), (2000, False)])
    def test_vqe_jellium_reports_exhausted_budget(self, tmp_path, maxiter,
                                                  exhausted):
        code = run(tmp_path, "vqe-jellium", *SMALL, "system.eta=1",
                   f"task.maxiter={maxiter}", "task.restarts=2")
        assert code == 0
        meta = read_report(tmp_path, "vqe_report.json")["meta"]
        assert meta["checks"]["optimizer_budget_exhausted"] is exhausted


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


# each command at its defaults, and build's isospectrality check
SCIPY_CASES = {**{command: [command] for command in COMMANDS},
               "build-dual-and-plane-wave": [
                   "build", "--set",
                   'task.representations=["dual","plane_wave"]']}


@pytest.mark.parametrize("command", ["import pwdual", "import pwdual.cli",
                                     *SCIPY_CASES])
def test_commands_load_only_the_scipy_they_run(tmp_path, command):
    """Each case in a fresh interpreter: the package, its CLI and every
    command, ``vqe-jellium`` included, load no scipy module, not even the
    bare ``scipy`` package (the exact spectra, the FFFT check and the
    simplex search are numpy alone); every command exits 0."""
    if command.startswith("import "):
        body = f"{command}\ncode = 0"
    else:
        argv = SCIPY_CASES[command] + ["--out", str(tmp_path)]
        body = f"from pwdual.cli import main\ncode = main({argv!r})"
    script = (f"import json, sys\n{body}\n"
              f"print(json.dumps([code, sorted(m for m in sys.modules "
              f"if m.split('.')[0] == 'scipy')]))")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == [], f"{command} loads {loaded}"
