"""Command-line surface: builders, checkers, sweeps, and the variational
run, all driven by one JSON config.

Config layout: {"system": {...}, "task": {...}, "seed": n}. ``COMMANDS``
declares, for each command, every task key it reads with its default and
whether it reads the system block (keys and defaults in
``SYSTEM_DEFAULTS``); unknown keys are rejected. ``--set block.key=value``
flags override file values (flag wins). Every command writes
``<name>_report.json``, which echoes the resolved config (every key the
command read, defaults filled in) under "config" and segregates volatile
fields (timestamp, stage times, sizes, warnings) under "meta", so the
payload is byte-stable for a fixed config and seed and the echo, fed back
through ``--config``, reproduces it.

Exit codes: 0 all embedded assertions pass, 1 an assertion failed,
2 invalid configuration or arguments, or dense work past the memory
budget (``pauli.DENSE_BYTES_LIMIT``).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .ffft import build_ffft_nd, mode_ladder_operator, stage_listing
from .fermion import fermion_matrix, FermionOperator, _entries
from .geometry import build_grid
from .hamiltonian import build_dual, build_plane_wave, build_qubit, \
    norm_bounds, NucleiSpec, DUAL, PLANE_WAVE
from .lcu import build_weights, prepare_state, taylor_errors, \
    dump_weights, SEGMENT_LIMIT
from .measurement import MeasurementPlan, estimate_energy, shot_budget, \
    DIAGONAL_GROUPS, PER_TERM
from .pauli import DenseLimitError, coefficient_gap
from .serialize import fmt, dumps_hamiltonian
from .statevector import apply_circuit, circuit_matrix, dumps_circuit, \
    expectation
from .swapnet import build_full_schedule, dumps_schedule
from .trotter import LEAK_TOL, ROUNDOFF_ERROR, SATURATED_ERROR, \
    SPLIT_OPERATOR, fit_slope, measure_error_scaling, \
    estimate_r, number_block_propagator, number_block_view, \
    number_blocks, split_operator_blocks, trotter_step
from .vqe import AnsatzSpec, Ansatz, optimize, prepare_reference, \
    sector_ground_energy


class ConfigError(Exception):
    pass


# None marks a derived default: volume is modes_per_axis ** dimension, or
# comes from r_s, which is accepted as input and echoed as the volume
SYSTEM_DEFAULTS = {"dimension": 1, "modes_per_axis": 2, "volume": None,
                   "r_s": None, "spinful": False, "eta": 1, "nuclei": [],
                   "truncated_D": None, "constant": 0.0}


def _check_keys(block: dict, allowed, where: str):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown keys {sorted(unknown)} in {where}; allowed: "
            f"{sorted(allowed)}")


def load_config(path, overrides):
    """The config as given: file values, then ``--set`` overrides."""
    cfg = {"system": {}, "task": {}, "seed": 0}
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("the config must be a JSON object")
        _check_keys(data, cfg, "config root")
        cfg.update(data)
    if not all(isinstance(cfg[block], dict) for block in ("system", "task")):
        raise ConfigError("the system and task blocks must be JSON objects")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not block.key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if dotted == "seed":
            cfg["seed"] = value
            continue
        if "." not in dotted:
            raise ConfigError(f"override {item!r} is not block.key=value")
        block, key = dotted.split(".", 1)
        if block not in ("system", "task"):
            raise ConfigError(f"unknown config block {block!r}")
        cfg[block][key] = value
    _check_keys(cfg["system"], SYSTEM_DEFAULTS, "system block")
    return cfg


# what a value must be, by the type of its key's default
_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string", type(None): "null or a finite number"}


def _typed(value, default, key: str, where: str):
    """``value`` read as the type of ``default`` (an int from an integral
    number, a None default from null or a number, kept as given, a list's
    entries as its first entry); ConfigError names the key otherwise."""
    if isinstance(default, list) and default:
        if not isinstance(value, list):
            plural = _KINDS[type(default[0])].split()[-1] + "s"
            raise ConfigError(f"{key} in {where} must be a list of {plural}, "
                              f"got {value!r}")
        return [_typed(entry, default[0], f"each {key} entry", where)
                for entry in value]
    # not a bool, nan, inf or an integer past the float range
    number = isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max
    if not {bool: isinstance(value, bool),
            int: number and (isinstance(value, int) or value.is_integer()),
            float: number, str: isinstance(value, str),
            type(None): value is None or number,
            list: True}[type(default)]:  # nuclei: parsed by their reader
        raise ConfigError(f"{key} in {where} must be {_KINDS[type(default)]}"
                          f", got {value!r}")
    return type(default)(value) if type(default) in (int, float) else value


def _fill(block: dict, defaults: dict, where: str) -> dict:
    """``block`` over ``defaults``, each value typed by ``_typed``."""
    _check_keys(block, defaults, where)
    out = copy.deepcopy(defaults)
    for key, value in block.items():
        out[key] = _typed(value, defaults[key], key, where)
    return out


def _derived_volume(formula: Callable, what: str) -> float:
    """The volume ``formula()`` derives; ConfigError says ``what`` it
    came from when it overflows a float or is not finite."""
    try:
        volume = formula()
    except (OverflowError, ZeroDivisionError):
        volume = math.inf
    if not math.isfinite(volume):
        raise ConfigError(f"{what} is not a finite number")
    return volume


def _resolve_system(block: dict) -> dict:
    system = _fill(block, SYSTEM_DEFAULTS, "system block")
    r_s = system.pop("r_s")
    if r_s is not None:
        if system["volume"] is not None:
            raise ConfigError("give either volume or r_s, not both")
        if system["dimension"] != 3:
            raise ConfigError("the density parameter r_s is defined for "
                              "dimension 3 only; give volume directly")
        system["volume"] = _derived_volume(
            lambda: (4.0 * math.pi / 3.0) * r_s ** 3 * system["eta"],
            f"the volume from system.r_s = {r_s!r}")
    elif system["volume"] is None:
        system["volume"] = _derived_volume(
            lambda: float(system["modes_per_axis"]) ** system["dimension"],
            f"the volume system.modes_per_axis ** system.dimension = "
            f"{system['modes_per_axis']} ** {system['dimension']}")
    return system


def resolve(cfg: dict, name: str) -> dict:
    """The config command ``name`` runs: every key it reads, with its
    value or its default."""
    command = COMMANDS[name]
    task = _fill(cfg["task"], command.task, "task block")
    if "expected_slope" in task and task["expected_slope"] is None:
        task["expected_slope"] = -float(task["order"])
    for key, value in task.items():  # a list key lists distinct runs
        if isinstance(value, list) and (
                not value or len(set(value)) < len(value)):
            raise ConfigError(f"{key} in task block must be a non-empty "
                              f"list of distinct entries, got {value}")
    if "r_list" in task and min(task["r_list"]) < 1:
        raise ConfigError(f"each r_list entry in task block must be at "
                          f"least 1, got {min(task['r_list'])}")
    resolved = _fill({"seed": cfg["seed"]}, {"seed": 0}, "config root")
    if resolved["seed"] < 0:
        raise ConfigError(f"seed in config root must be non-negative, got "
                          f"{resolved['seed']}")
    resolved["task"] = task
    if command.system:
        resolved["system"] = _resolve_system(cfg["system"])
    elif cfg["system"]:
        raise ConfigError(f"{name} reads no system block; got keys "
                          f"{sorted(cfg['system'])}")
    return resolved


def _parse_nuclei(nuclei, grid) -> NucleiSpec:
    """The system block's nuclei, a list of [position, charge] pairs, each
    inside the cell of ``grid``."""
    if not isinstance(nuclei, list):
        raise ConfigError(f"nuclei in system block must be a list of "
                          f"[position, charge] pairs, got {nuclei!r}")
    try:
        spec = NucleiSpec.build(nuclei)
        spec.validate_inside(grid)
        return spec
    except ValueError as exc:
        raise ConfigError(f"nuclei in system block: {exc}") from None


class Run:
    """One command run: the resolved config, the system it describes,
    and what goes under the report's ``meta``: wall seconds per stage,
    sizes, and why each optional stage that did not run was skipped."""

    def __init__(self, cfg: dict, out_dir: Path):
        self.cfg, self.out_dir = cfg, out_dir
        self.task, self.seed = cfg["task"], cfg["seed"]
        self.stages, self.counts = {}, {}
        self.meta = {"stages": self.stages, "counts": self.counts}
        if "system" in cfg:
            system = cfg["system"]
            self.eta = system["eta"]
            self.grid = build_grid(system["dimension"],
                                   system["modes_per_axis"],
                                   system["volume"], system["spinful"])
            if not 1 <= self.eta <= self.grid.n_qubits:
                raise ConfigError(f"system.eta must be from 1 to "
                                  f"{self.grid.n_qubits} (the qubit count), "
                                  f"got {self.eta}")
            self.nuclei = _parse_nuclei(system["nuclei"], self.grid)
            self.counts["qubits"] = self.grid.n_qubits

    def hamiltonian(self, rep: str = DUAL):
        # the builders are looked up at each call, so that a profiler that
        # rebinds them sees the calls
        builders = {DUAL: build_dual, PLANE_WAVE: build_plane_wave}
        if rep not in builders:
            raise ConfigError(f"unknown representation {rep!r}")
        system = self.cfg["system"]
        return builders[rep](self.grid, self.nuclei, system["truncated_D"],
                             system["constant"])

    @contextmanager
    def stage(self, name: str):
        """Time the block in wall seconds as ``meta.stages[name]``."""
        start = time.perf_counter()
        yield
        self.stages[name] = time.perf_counter() - start

    @contextmanager
    def caps(self, name: str):
        """Skip the rest of an optional stage that the dense budget
        refuses, keeping the refusal as ``meta.caps[name]``."""
        try:
            yield
        except DenseLimitError as exc:
            self.meta.setdefault("caps", {})[name] = str(exc)

    def write(self, name: str, text: str):
        (self.out_dir / name).write_text(text)

    def report(self, name: str, result: dict, warned: list):
        meta = {"created": time.strftime("%Y-%m-%dT%H:%M:%S"), **self.meta}
        if warned:
            meta["warnings"] = warned
        doc = {"meta": meta, "config": self.cfg, "result": result}
        self.write(f"{name}_report.json",
                   json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_build(run: Run) -> dict:
    reps = run.task["representations"]
    with run.stage("build"):
        sets = {}
        for rep in reps:
            sets[rep] = run.hamiltonian(rep)
            run.write(f"hamiltonian_{rep}.txt", dumps_hamiltonian(sets[rep]))
    result = {"n_qubits": run.grid.n_qubits, "failures": []}
    for rep, hs in sets.items():
        result[rep] = {
            "kinetic_terms": len(hs.kinetic.terms),
            "external_terms": len(hs.external.terms),
            "interaction_terms": len(hs.interaction.terms),
        }
    if DUAL in sets:
        with run.stage("compile"):
            qub = build_qubit(sets[DUAL])
        run.counts["fermion_terms"] = len(sets[DUAL].total().terms)
        run.counts["pauli_terms"] = len(qub)
        result["norm_bounds"] = {
            **norm_bounds(sets[DUAL], run.eta),
            "lam": qub.coefficient_norm(include_identity=True)}
    if set(reps) >= {DUAL, PLANE_WAVE}:
        with run.caps("isospectrality"), run.stage("verify"):
            gap = float(np.max(np.abs(sets[DUAL].spectrum()
                                      - sets[PLANE_WAVE].spectrum())))
            result["isospectrality_max_gap"] = gap
            if gap > 1e-9:
                result["failures"].append(f"spectra disagree by {gap:.3e}")
    return result


def cmd_diagonalize(run: Run) -> dict:
    rep = run.task["representation"]
    with run.stage("build"):
        hs = run.hamiltonian(rep)
    with run.stage("spectrum"):
        spectrum = hs.spectrum(run.counts)
    lines = ["index,energy"] + [
        f"{i},{fmt(e)}" for i, e in enumerate(spectrum)]
    run.write("spectrum.csv", "\n".join(lines) + "\n")
    return {"representation": rep, "ground_energy": float(spectrum[0]),
            "levels": len(spectrum), "failures": []}


def cmd_trotter_sweep(run: Run) -> dict:
    task = run.task
    t, order, strategy = task["t"], task["order"], task["strategy"]
    suggested_r = estimate_r(run.eta, run.grid.n_spatial,
                             run.grid.cell.volume, t, task["epsilon"])
    with run.stage("build"):
        hs = run.hamiltonian()
        # the strategy, the order and the grid are checked, and the step
        # at the first r built, before any dense work
        step = trotter_step(hs, strategy, order)
        tau = t / task["r_list"][0]
        first = step(tau)
    run.counts["gates"] = len(first.gates)  # the same for every r
    with run.stage("matrix"):
        exact = number_block_propagator(hs, t)
    failures = []
    with run.stage("verify"):
        compiled, off = number_block_view(circuit_matrix(first))
        run.counts["matrix_bytes"] = 16 * 4 ** hs.n_qubits
        if strategy == SPLIT_OPERATOR:
            # the compiled step is checked once; every r reads the algebra
            algebra = split_operator_blocks(hs, order)
            gap = max(float(np.max(np.abs(a - c)))
                      for a, c in zip(algebra(tau), compiled))
            run.meta["checks"] = {"compiled_step_gap": gap}
            if gap > LEAK_TOL:
                failures.append(f"compiled step differs from the block "
                                f"algebra by {gap:.3e}, above {LEAK_TOL:g}")

            def step_fn(s):
                return algebra(s), off
        else:
            # CNOT and H templates leave the number blocks between gates,
            # so every r forms its own step matrix
            def step_fn(s):
                if s == tau:
                    return compiled, off
                return number_block_view(circuit_matrix(step(s)))
        rows, slope = measure_error_scaling(step_fn, exact, task["r_list"], t,
                                            run.counts)
    lines = ["r,error"] + [f"{r},{fmt(e)}" for r, e in rows]
    run.write("trotter_sweep.csv", "\n".join(lines) + "\n")
    expected, tolerance = task["expected_slope"], task["slope_tolerance"]
    # the pass/fail fit leaves out points at roundoff and saturated points,
    # whatever the outcome; a sweep exact to roundoff has nothing to fit
    fitted = [(r, e) for r, e in rows if ROUNDOFF_ERROR < e < SATURATED_ERROR]
    asymptotic = fit_slope(fitted)
    exact = all(e <= ROUNDOFF_ERROR for _, e in rows)
    if len(fitted) < 2 and not exact:
        failures.append(
            f"{len(fitted)} of {len(rows)} points have error between "
            f"{ROUNDOFF_ERROR:g} and {SATURATED_ERROR:g}; the slope fit "
            f"leaves out roundoff points (error <= {ROUNDOFF_ERROR:g}) and "
            f"saturated points (error >= {SATURATED_ERROR:g}) and needs two")
    elif len(fitted) >= 2 and abs(asymptotic - expected) > tolerance:
        failures.append(
            f"asymptotic slope {asymptotic:.3f} outside {expected} +- "
            f"{tolerance}")
    return {
        "rows": [[r, e] for r, e in rows],
        "slope": slope,
        "local_slopes": [fit_slope(pair) for pair in zip(rows, rows[1:])],
        "asymptotic_slope": asymptotic,
        "suggested_r": suggested_r,
        "failures": failures,
    }


def cmd_ffft_check(run: Run) -> dict:
    grid, tolerance = run.grid, run.task["tolerance"]
    with run.stage("build"):
        circ = build_ffft_nd(grid)
    with run.stage("matrix"):
        u = circuit_matrix(circ)
    run.counts.update(gates=len(circ.gates), matrix_bytes=u.nbytes)
    with run.stage("verify"):
        n = grid.n_qubits
        # U keeps particle number and a^dag adds one, so U^dag a^dag U
        # lives on the (k + 1, k) blocks; entries of U or of the right-hand
        # side outside their blocks count as error
        u_blocks, worst = number_block_view(u)
        blocks = number_blocks(n)
        # U, its blocks and the last operator's two (k + 1, k) block lists
        held = u.nbytes + 16 * math.comb(2 * n, n) \
            + 32 * math.comb(2 * n, n + 1)
        spins = ("up", "down") if grid.cell.spinful else (None,)
        for nu in grid.nu_list:
            for spin in spins:
                q = grid.qubit_index(grid.index_site(grid.mode_slot(nu)), spin)
                # a^dag U on block k: each row a^dag reaches, its sign
                # times U's row
                rows, cols, signs = _entries(FermionOperator.raising(q), n,
                                             held, f"a^dag_{q} U")
                numbers, moved = np.bitwise_count(cols), []
                for k, u_block in enumerate(u_blocks[:-1]):
                    at = numbers == k
                    block = np.zeros((len(blocks[k + 1]), len(blocks[k])),
                                     dtype=complex)
                    # blocks list their states ascending
                    block[np.searchsorted(blocks[k + 1], rows[at])] += \
                        signs[at, None] * u_block[
                            np.searchsorted(blocks[k], cols[at])]
                    moved.append(block)
                rhs, off = number_block_view(
                    fermion_matrix(mode_ladder_operator(grid, nu, spin), n),
                    shift=1)
                err = max(float(np.max(np.abs(b.conj().T @ m - r)))
                          for b, m, r in zip(u_blocks[1:], moved, rhs))
                worst = max(worst, err, off)
    run.write("ffft_circuit.txt", dumps_circuit(circ))
    failures = [] if worst < tolerance else [
        f"conjugation error {worst:.3e} above {tolerance}"]
    return {"conjugation_max_error": worst, "gates": len(circ.gates),
            "depth": circ.depth(), "plan": stage_listing(circ),
            "failures": failures}


def cmd_swapnet(run: Run) -> dict:
    rows, cols = run.task["rows"], run.task["cols"]
    with run.stage("build"):
        sched = build_full_schedule(rows, cols)
    n = rows * cols
    with run.stage("verify"):
        covered = sched.interact_pairs()
    want = n * (n - 1) // 2
    run.write("swap_schedule.txt", dumps_schedule(sched))
    run.counts.update(qubits=n, layers=sched.depth())
    failures = []
    if len(covered) != want:
        failures.append(f"coverage {len(covered)}/{want}")
    return {
        "pairs_covered": len(covered),
        "pairs_total": want,
        "depth": sched.depth(),
        "depth_per_qubit": sched.depth() / n,
        "first_level_layers": sched.first_level_layer_count(),
        "provenance": sched.provenance,
        "failures": failures,
    }


def cmd_lcu_check(run: Run) -> dict:
    task = run.task
    with run.stage("build"):
        hs = run.hamiltonian()
        model = build_weights(hs, include_noop=task["include_noop"])
        run.write("lcu_weights.csv", dump_weights(model))
    with run.stage("compile"):
        qub = build_qubit(hs)
    with run.stage("verify"):
        rec = model.reconstruction()
        worst = coefficient_gap(rec, qub)
        prep = prepare_state(model)
        lam = model.lam
        indices, weights = model.selection_table()
        prep_err = float(np.max(np.abs(
            np.abs(prep.amplitudes[indices]) ** 2 - np.abs(weights) / lam)))
        bounds = norm_bounds(hs, run.eta)
        failures = []
        if worst > 1e-12:
            failures.append(f"reconstruction gap {worst:.3e}")
        if prep_err > 1e-12:
            failures.append(f"preparation amplitude gap {prep_err:.3e}")
        taylor, lam_t = {}, lam * abs(task["t"])
        if lam_t <= SEGMENT_LIMIT:
            with run.caps("taylor"):
                taylor = taylor_errors(model, rec, task["t"], task["orders"],
                                       run.seed)
        else:
            run.meta.setdefault("caps", {})["taylor"] = (
                f"Lambda*|t| = {fmt(lam_t)} is past the single-segment "
                f"limit ln 2 = {fmt(SEGMENT_LIMIT)}")
    run.counts.update(fermion_terms=len(hs.total().terms),
                      pauli_terms=len(qub), weights=len(model.weights))
    return {
        "lam": lam,
        "term_count": len(model.weights),
        "reconstruction_max_gap": worst,
        "triangle_h_bound": bounds["triangle_h"],
        "lam_to_triangle_ratio": lam / bounds["triangle_h"],
        "taylor": taylor,
        "failures": failures,
    }


def cmd_measure(run: Run) -> dict:
    task = run.task
    strategy = task["strategy"]
    plan = MeasurementPlan(strategy, task["shots"], run.seed)
    with run.stage("build"):
        hs = run.hamiltonian()
        # per_term samples the compiled operator and its budget reads its
        # coefficient norm: compile it once for both
        qubit = build_qubit(hs) if strategy == PER_TERM else None
    # the budget refuses a bad precision or mode before any sampling
    with run.stage("budget"):
        budget = shot_budget(hs, run.eta, task["precision"], task["mode"],
                             strategy, qubit)
    with run.stage("prepare"):
        state = prepare_reference(run.grid, run.eta)
    with run.stage("estimate"):
        estimate, stderr = estimate_energy(state, hs, plan, run.counts, qubit)
    if not run.counts.get("dense_draws"):
        run.meta["fast_paths"] = ["support"]
    return {
        "estimate": estimate,
        "stderr": stderr,
        "shots": task["shots"],
        "strategy": strategy,
        "analytic_budget": budget,
        "failures": [],
    }


def cmd_vqe_jellium(run: Run) -> dict:
    task, grid, eta = run.task, run.grid, run.eta
    with run.stage("build"):
        hs = run.hamiltonian()
        spec = AnsatzSpec(layers=task["layers"], sharing=task["sharing"],
                          minimal=task["minimal"])
    with run.stage("optimize"):
        res = optimize(spec, hs, eta, seed=run.seed,
                       restarts=task["restarts"], maxiter=task["maxiter"])
    # the optimizer runs on the eta-electron sector; the gate-by-gate
    # circuit and the Pauli-term energy check its best point
    with run.stage("verify"):
        prepared = apply_circuit(prepare_reference(grid, eta),
                                 Ansatz(spec, grid).circuit(res.theta))
        circuit_gap = abs(expectation(prepared, build_qubit(hs)) - res.energy)
    result = {
        "reference_energy": res.reference_energy,
        "optimized_energy": res.energy,
        "evaluations": res.evaluations,
        "trace": res.trace[:: max(1, len(res.trace) // 200)],
        "failures": [],
    }
    if circuit_gap > 1e-9 * max(1.0, abs(res.energy)):
        result["failures"].append(
            f"sector energy differs from the circuit path by "
            f"{circuit_gap:.3e}")
    run.counts.update(sector_dimension=math.comb(grid.n_qubits, eta),
                      parameters=len(res.names), evaluations=res.evaluations)
    run.meta["checks"] = {"circuit_energy_gap": circuit_gap,
                          "optimizer_budget_exhausted": res.budget_exhausted}
    with run.caps("exact_energy"), run.stage("exact"):
        exact = sector_ground_energy(hs, eta)
        result["exact_energy"] = exact
        if not (exact - 1e-9 <= res.energy
                <= res.reference_energy + 1e-9):
            result["failures"].append("variational ordering violated")
    return result


class Command(NamedTuple):
    fn: Callable  # (Run) -> result dict
    task: dict  # every task key it reads, with its default (None: derived)
    system: bool = True  # whether it reads the system block


COMMANDS = {
    "build": Command(cmd_build, {"representations": [DUAL]}),
    "diagonalize": Command(cmd_diagonalize, {"representation": DUAL}),
    "trotter-sweep": Command(cmd_trotter_sweep, {
        "r_list": [2, 4, 8, 16, 32], "t": 1.0, "strategy": "split_operator",
        "order": 2, "expected_slope": None, "slope_tolerance": 0.1,
        "epsilon": 1e-3}),
    "ffft-check": Command(cmd_ffft_check, {"tolerance": 1e-9}),
    "swapnet": Command(cmd_swapnet, {"rows": 4, "cols": 4}, system=False),
    "lcu-check": Command(cmd_lcu_check, {
        "t": 0.1, "orders": [2, 4], "include_noop": True}),
    "measure": Command(cmd_measure, {
        "strategy": DIAGONAL_GROUPS, "shots": 2000, "precision": 0.1,
        "mode": "absolute"}),
    "vqe-jellium": Command(cmd_vqe_jellium, {
        "layers": 1, "sharing": "full", "minimal": False, "restarts": 4,
        "maxiter": 600}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwdual",
        description="plane-wave / dual-basis simulation toolkit")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", dest="overrides",
                        metavar="BLOCK.KEY=VALUE",
                        help="override a config entry (repeatable)")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(resolve(load_config(args.config, args.overrides),
                          args.command), out_dir)
        # warnings (an open-shell reference, say) go to the report
        with warnings.catch_warnings(record=True) as caught:
            result = COMMANDS[args.command].fn(run)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    run.report(args.command.split("-")[0], result,
               list(dict.fromkeys(str(w.message) for w in caught)))
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
