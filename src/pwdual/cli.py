"""Command-line surface: builders, checkers, sweeps, and the variational
run, all driven by one JSON config.

Config layout: {"system": {...}, "task": {...}, "output": {...}, "seed": n}.
Unknown keys are rejected. ``--set block.key=value`` flags override file
values (flag wins). Every emitted JSON document echoes the fully resolved
config under "config" and segregates volatile fields (timestamp) under
"meta" so the payload is byte-stable for a fixed config and seed.

Exit codes: 0 all embedded assertions pass, 1 an assertion failed,
2 invalid configuration or arguments, or dense work past the memory
budget (``pauli.DENSE_BYTES_LIMIT``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .ffft import build_ffft_nd, mode_ladder_operator, stage_listing
from .fermion import fermion_matrix, fermion_sparse, FermionOperator
from .geometry import build_grid
from .hamiltonian import build_dual, build_plane_wave, build_qubit, \
    norm_bounds, NucleiSpec, DUAL, PLANE_WAVE
from .lcu import build_weights, prepare_state, taylor_errors, dump_weights
from .measurement import MeasurementPlan, estimate_energy, shot_budget, \
    STRATEGIES, DIAGONAL_GROUPS
from .pauli import DenseLimitError
from .serialize import fmt, dumps_hamiltonian
from .statevector import apply_circuit, circuit_matrix, dumps_circuit, \
    expectation
from .swapnet import build_full_schedule, dumps_schedule
from .trotter import TrotterConfig, measure_error_scaling, estimate_r, \
    number_block_propagator, trotter_circuit
from .vqe import AnsatzSpec, Ansatz, optimize, prepare_reference, \
    sector_ground_energy


class ConfigError(Exception):
    pass


SYSTEM_KEYS = {"dimension", "modes_per_axis", "volume", "r_s", "spinful",
               "eta", "nuclei", "truncated_D", "constant"}
OUTPUT_KEYS = set()  # no command reads an output setting yet
TOP_KEYS = {"system", "task", "output", "seed"}


def _check_keys(block: dict, allowed, where: str):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown keys {sorted(unknown)} in {where}; allowed: "
            f"{sorted(allowed)}")


def load_config(path, overrides):
    cfg = {"system": {}, "task": {}, "output": {}, "seed": 0}
    if path:
        with open(path) as fh:
            data = json.load(fh)
        _check_keys(data, TOP_KEYS, "config root")
        for key in ("system", "task", "output"):
            cfg[key].update(data.get(key, {}))
        cfg["seed"] = data.get("seed", 0)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not block.key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if dotted == "seed":
            cfg["seed"] = int(value)
            continue
        if "." not in dotted:
            raise ConfigError(f"override {item!r} is not block.key=value")
        block, key = dotted.split(".", 1)
        if block not in ("system", "task", "output"):
            raise ConfigError(f"unknown config block {block!r}")
        cfg[block][key] = value
    _check_keys(cfg["system"], SYSTEM_KEYS, "system block")
    _check_keys(cfg["output"], OUTPUT_KEYS, "output block")
    return cfg


def resolve_system(cfg):
    """Grid, nuclei, truncation, constant, eta from the system block."""
    sysblock = dict(cfg["system"])
    d = int(sysblock.get("dimension", 1))
    m = int(sysblock.get("modes_per_axis", 2))
    eta = int(sysblock.get("eta", 1))
    if "volume" in sysblock and "r_s" in sysblock:
        raise ConfigError("give either volume or r_s, not both")
    if "r_s" in sysblock:
        if d != 3:
            raise ConfigError("the density parameter r_s is defined for "
                              "dimension 3 only; give volume directly")
        r_s = float(sysblock["r_s"])
        volume = (4.0 * math.pi / 3.0) * r_s ** 3 * eta
    else:
        volume = float(sysblock.get("volume", float(m ** d)))
    spinful = bool(sysblock.get("spinful", False))
    grid = build_grid(d, m, volume, spinful)
    nuclei = NucleiSpec.build(
        [(tuple(pos), charge) for pos, charge in sysblock.get("nuclei", [])])
    truncated = sysblock.get("truncated_D")
    constant = float(sysblock.get("constant", 0.0))
    return grid, nuclei, truncated, constant, eta


@contextmanager
def _stage(stages: dict, name: str):
    """Time the block in wall seconds as ``stages[name]``."""
    start = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - start


def _emit(out_dir: Path, name: str, payload: dict, cfg: dict,
          meta: dict = None) -> Path:
    doc = {
        "meta": {"created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                 **(meta or {})},
        "config": cfg,
        "result": payload,
    }
    path = out_dir / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _write(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    path.write_text(text)
    return path


def _build_representation(rep, grid, nuclei, truncated, constant):
    if rep == DUAL:
        return build_dual(grid, nuclei, truncated, constant)
    if rep == PLANE_WAVE:
        return build_plane_wave(grid, nuclei, truncated, constant)
    raise ConfigError(f"unknown representation {rep!r}")


def cmd_build(cfg, out_dir):
    grid, nuclei, truncated, constant, eta = resolve_system(cfg)
    task = cfg["task"]
    _check_keys(task, {"representations"}, "task block")
    reps = task.get("representations", [DUAL])
    stages = {}
    with _stage(stages, "build"):
        sets = {}
        for rep in reps:
            hs = _build_representation(rep, grid, nuclei, truncated, constant)
            sets[rep] = hs
            _write(out_dir, f"hamiltonian_{rep}.txt", dumps_hamiltonian(hs))
    counts = {"qubits": grid.n_qubits}
    report = {"n_qubits": grid.n_qubits}
    for rep, hs in sets.items():
        report[rep] = {
            "kinetic_terms": len(hs.kinetic.terms),
            "external_terms": len(hs.external.terms),
            "interaction_terms": len(hs.interaction.terms),
        }
    if DUAL in sets:
        with _stage(stages, "compile"):
            qub = build_qubit(sets[DUAL])
        counts["fermion_terms"] = len(sets[DUAL].total().terms)
        counts["pauli_terms"] = len(qub.terms)
        report["norm_bounds"] = {
            **norm_bounds(sets[DUAL], eta),
            "lam": qub.coefficient_norm(include_identity=True)}
    failures = []
    meta = {"counts": counts, "stages": stages}
    if set(reps) >= {DUAL, PLANE_WAVE}:
        try:
            with _stage(stages, "verify"):
                gap = float(np.max(np.abs(sets[DUAL].spectrum()
                                          - sets[PLANE_WAVE].spectrum())))
        except DenseLimitError as exc:
            meta["caps"] = {"isospectrality": str(exc)}
        else:
            report["isospectrality_max_gap"] = gap
            if gap > 1e-9:
                failures.append(f"spectra disagree by {gap:.3e}")
    report["failures"] = failures
    _emit(out_dir, "build_report.json", report, cfg, meta)
    return 1 if failures else 0


def cmd_diagonalize(cfg, out_dir):
    grid, nuclei, truncated, constant, _ = resolve_system(cfg)
    task = cfg["task"]
    _check_keys(task, {"representation"}, "task block")
    rep = task.get("representation", DUAL)
    stages, counts = {}, {"qubits": grid.n_qubits}
    with _stage(stages, "build"):
        hs = _build_representation(rep, grid, nuclei, truncated, constant)
    with _stage(stages, "spectrum"):
        spectrum = hs.spectrum(counts)
    lines = ["index,energy"] + [
        f"{i},{fmt(e)}" for i, e in enumerate(spectrum)]
    _write(out_dir, "spectrum.csv", "\n".join(lines) + "\n")
    _emit(out_dir, "diagonalize_report.json",
          {"representation": rep, "ground_energy": float(spectrum[0]),
           "levels": len(spectrum), "failures": []}, cfg,
          {"counts": counts, "stages": stages})
    return 0


def cmd_trotter_sweep(cfg, out_dir):
    grid, nuclei, truncated, constant, eta = resolve_system(cfg)
    task = cfg["task"]
    _check_keys(task, {"r_list", "t", "strategy", "order", "expected_slope",
                       "slope_tolerance", "epsilon"}, "task block")
    r_list = [int(r) for r in task.get("r_list", [2, 4, 8, 16, 32])]
    t = float(task.get("t", 1.0))
    order = int(task.get("order", 2))
    strategy = task.get("strategy", "split_operator")
    stages = {}
    with _stage(stages, "build"):
        hs = build_dual(grid, nuclei, truncated, constant)
        # the first r's step checks the strategy and the grid before any
        # dense work, and serves that r
        pending = [trotter_circuit(hs, TrotterConfig(strategy, order, 1,
                                                     t / r))
                   for r in r_list[:1]]
    with _stage(stages, "matrix"):
        exact = number_block_propagator(hs, t)
    counts = {"qubits": grid.n_qubits, "matrix_bytes": exact.nbytes}

    def step_fn(tau):
        step = pending.pop() if pending else \
            trotter_circuit(hs, TrotterConfig(strategy, order, 1, tau))
        counts["gates"] = step.gate_count()  # the same for every r
        return circuit_matrix(step)

    with _stage(stages, "verify"):
        rows, slope = measure_error_scaling(step_fn, exact, r_list, t,
                                            counts)
    lines = ["r,error"] + [f"{r},{fmt(e)}" for r, e in rows]
    _write(out_dir, "trotter_sweep.csv", "\n".join(lines) + "\n")
    expected = task.get("expected_slope", -float(order))
    tolerance = float(task.get("slope_tolerance", 0.1))
    failures = []
    if abs(slope - expected) > tolerance:
        failures.append(
            f"slope {slope:.3f} outside {expected} +- {tolerance}")
    report = {
        "rows": [[r, e] for r, e in rows],
        "slope": slope,
        "suggested_r": estimate_r(eta, grid.n_spatial,
                                  grid.cell.volume, t,
                                  float(task.get("epsilon", 1e-3))),
        "failures": failures,
    }
    _emit(out_dir, "trotter_report.json", report, cfg,
          {"counts": counts, "stages": stages})
    return 1 if failures else 0


def cmd_ffft_check(cfg, out_dir):
    grid, _, _, _, _ = resolve_system(cfg)
    task = cfg["task"]
    _check_keys(task, {"tolerance"}, "task block")
    tolerance = float(task.get("tolerance", 1e-9))
    stages = {}
    with _stage(stages, "build"):
        circ = build_ffft_nd(grid)
    with _stage(stages, "matrix"):
        u = circuit_matrix(circ)
    counts = {"qubits": grid.n_qubits, "gates": circ.gate_count(),
              "matrix_bytes": u.nbytes}
    with _stage(stages, "verify"):
        worst, n = 0.0, grid.n_qubits
        u_dag = u.conj().T
        spins = ("up", "down") if grid.cell.spinful else (None,)
        for nu in grid.nu_list:
            for spin in spins:
                q = grid.qubit_index(grid.index_site(grid.mode_slot(nu)), spin)
                adag = fermion_sparse(FermionOperator.raising(q), n)
                rhs = fermion_matrix(mode_ladder_operator(grid, nu, spin), n)
                err = float(np.max(np.abs(u_dag @ (adag @ u) - rhs)))
                worst = max(worst, err)
    _write(out_dir, "ffft_circuit.txt", dumps_circuit(circ))
    failures = [] if worst < tolerance else [
        f"conjugation error {worst:.3e} above {tolerance}"]
    _emit(out_dir, "ffft_report.json",
          {"conjugation_max_error": worst, "gates": circ.gate_count(),
           "depth": circ.depth(), "plan": stage_listing(circ),
           "failures": failures}, cfg, {"counts": counts, "stages": stages})
    return 1 if failures else 0


def cmd_swapnet(cfg, out_dir):
    task = cfg["task"]
    _check_keys(task, {"rows", "cols"}, "task block")
    rows = int(task.get("rows", 4))
    cols = int(task.get("cols", 4))
    stages = {}
    with _stage(stages, "build"):
        sched = build_full_schedule(rows, cols)
    n = rows * cols
    with _stage(stages, "verify"):
        covered = sched.interact_pairs()
    want = n * (n - 1) // 2
    _write(out_dir, "swap_schedule.txt", dumps_schedule(sched))
    failures = []
    if len(covered) != want:
        failures.append(f"coverage {len(covered)}/{want}")
    report = {
        "pairs_covered": len(covered),
        "pairs_total": want,
        "depth": sched.depth(),
        "depth_per_qubit": sched.depth() / n,
        "first_level_layers": sched.first_level_layer_count(),
        "provenance": sched.provenance,
        "failures": failures,
    }
    _emit(out_dir, "swapnet_report.json", report, cfg,
          {"counts": {"qubits": n, "layers": sched.depth()},
           "stages": stages})
    return 1 if failures else 0


def cmd_lcu_check(cfg, out_dir):
    grid, nuclei, truncated, constant, eta = resolve_system(cfg)
    task = cfg["task"]
    _check_keys(task, {"t", "orders", "include_noop"}, "task block")
    stages = {}
    meta = {"stages": stages}
    with _stage(stages, "build"):
        hs = build_dual(grid, nuclei, truncated, constant)
        model = build_weights(hs, include_noop=bool(task.get("include_noop",
                                                             True)))
        _write(out_dir, "lcu_weights.csv", dump_weights(model))
    with _stage(stages, "compile"):
        qub = build_qubit(hs)
    with _stage(stages, "verify"):
        rec = model.reconstruction()
        worst = 0.0
        for key in set(rec.terms) | set(qub.terms):
            if key == ():
                continue
            worst = max(worst, abs(rec.terms.get(key, 0)
                                   - qub.terms.get(key, 0)))
        prep = prepare_state(model)
        lam = model.lam
        width = model.index_width
        prep_err = float(max(
            abs(abs(prep.amplitudes[idx.encode(width)]) ** 2 - abs(w) / lam)
            for idx, w in model.weights.items()))
        bounds = norm_bounds(hs, eta)
        failures = []
        if worst > 1e-12:
            failures.append(f"reconstruction gap {worst:.3e}")
        if prep_err > 1e-12:
            failures.append(f"preparation amplitude gap {prep_err:.3e}")
        t = float(task.get("t", 0.1))
        taylor = {}
        if lam * t <= math.log(2.0):
            try:
                taylor = taylor_errors(model, rec, t,
                                       task.get("orders", [2, 4]),
                                       cfg["seed"])
            except DenseLimitError as exc:
                meta["caps"] = {"taylor": str(exc)}
    report = {
        "lam": lam,
        "term_count": len(model.weights),
        "reconstruction_max_gap": worst,
        "triangle_h_bound": bounds["triangle_h"],
        "lam_to_triangle_ratio": lam / bounds["triangle_h"],
        "taylor": taylor,
        "failures": failures,
    }
    counts = {"qubits": grid.n_qubits, "fermion_terms": len(hs.total().terms),
              "pauli_terms": len(qub.terms), "weights": len(model.weights)}
    _emit(out_dir, "lcu_report.json", report, cfg, {**meta, "counts": counts})
    return 1 if failures else 0


def cmd_measure(cfg, out_dir):
    grid, nuclei, truncated, constant, eta = resolve_system(cfg)
    task = cfg["task"]
    _check_keys(task, {"strategy", "shots", "precision", "mode"},
                "task block")
    strategy = task.get("strategy", DIAGONAL_GROUPS)
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; "
                          f"choose from {STRATEGIES}")
    shots = int(task.get("shots", 2000))
    stages = {}
    with _stage(stages, "build"):
        hs = build_dual(grid, nuclei, truncated, constant)
    with _stage(stages, "prepare"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = prepare_reference(grid, eta)
    with _stage(stages, "estimate"):
        plan = MeasurementPlan(strategy, shots, cfg["seed"])
        counts = {"qubits": grid.n_qubits}
        estimate, stderr = estimate_energy(state, hs, plan, counts)
    with _stage(stages, "budget"):
        budget = shot_budget(hs, eta, float(task.get("precision", 0.1)),
                             task.get("mode", "absolute"), strategy)
    report = {
        "estimate": estimate,
        "stderr": stderr,
        "shots": shots,
        "strategy": strategy,
        "analytic_budget": budget,
        "failures": [],
    }
    _emit(out_dir, "measure_report.json", report, cfg,
          {"counts": counts, "stages": stages})
    return 0


def cmd_vqe_jellium(cfg, out_dir):
    grid, nuclei, truncated, constant, eta = resolve_system(cfg)
    task = cfg["task"]
    _check_keys(task, {"layers", "sharing", "minimal", "restarts", "maxiter"},
                "task block")
    stages = {}
    with _stage(stages, "build"):
        hs = build_dual(grid, nuclei, truncated, constant)
        spec = AnsatzSpec(layers=int(task.get("layers", 1)),
                          sharing=task.get("sharing", "full"),
                          minimal=bool(task.get("minimal", False)))
    with warnings.catch_warnings(), _stage(stages, "optimize"):
        warnings.simplefilter("ignore")
        res = optimize(spec, hs, eta, seed=cfg["seed"],
                       restarts=int(task.get("restarts", 4)),
                       maxiter=int(task.get("maxiter", 600)))
    # the optimizer runs on the eta-electron sector; the gate-by-gate
    # circuit and the Pauli-term energy check its best point
    with _stage(stages, "verify"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prepared = apply_circuit(prepare_reference(grid, eta),
                                 Ansatz(spec, grid).circuit(res.theta))
        circuit_gap = abs(expectation(prepared, build_qubit(hs)) - res.energy)
    report = {
        "reference_energy": res.reference_energy,
        "optimized_energy": res.energy,
        "evaluations": res.evaluations,
        "trace": res.trace[:: max(1, len(res.trace) // 200)],
        "failures": [],
    }
    if circuit_gap > 1e-9 * max(1.0, abs(res.energy)):
        report["failures"].append(
            f"sector energy differs from the circuit path by "
            f"{circuit_gap:.3e}")
    meta = {"counts": {"qubits": grid.n_qubits,
                       "sector_dimension": math.comb(grid.n_qubits, eta),
                       "parameters": len(res.names),
                       "evaluations": res.evaluations},
            "stages": stages,
            "checks": {"circuit_energy_gap": circuit_gap}}
    try:
        with _stage(stages, "exact"):
            exact = sector_ground_energy(hs, eta)
    except DenseLimitError as exc:
        meta["caps"] = {"exact_energy": str(exc)}
    else:
        report["exact_energy"] = exact
        if not (exact - 1e-9 <= res.energy
                <= res.reference_energy + 1e-9):
            report["failures"].append("variational ordering violated")
    _emit(out_dir, "vqe_report.json", report, cfg, meta)
    return 1 if report["failures"] else 0


COMMANDS = {
    "build": cmd_build,
    "diagonalize": cmd_diagonalize,
    "trotter-sweep": cmd_trotter_sweep,
    "ffft-check": cmd_ffft_check,
    "swapnet": cmd_swapnet,
    "lcu-check": cmd_lcu_check,
    "measure": cmd_measure,
    "vqe-jellium": cmd_vqe_jellium,
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
        cfg = load_config(args.config, args.overrides)
        return COMMANDS[args.command](cfg, out_dir)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
