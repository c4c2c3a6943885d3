"""Workload mixes of pwdual jobs and the benchmark's own output checks.

A job is one CLI command (``pwdual.cli.main``) or, where the CLI has no
command for the work, one public-API call. Each job has a check that reads
its output after the timed window and compares it with an independent
path: the benchmark's own recount of circuit depth and lattice adjacency,
its own replay of a swap schedule, its own sum over a weight table, and so
on. A check returns a list of problems (empty when the output is right)
and a dict of exact-repeat counts that later changes can cite.

The workload seed sets nuclei positions, the CLI ``seed`` (which seeds the
random states and shot streams inside the program) and nothing else; qubit
counts and the job mix are fixed. ``tiny=True`` gives the same job kinds at
4 qubits, used for the untimed warm-up and the harness self-test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# API jobs call through the modules so that the tracer's wrappers apply
from pwdual import cli, ffft, hamiltonian, trotter
from pwdual.geometry import build_grid
from pwdual.hamiltonian import NucleiSpec, build_dual, build_qubit
from pwdual.statevector import expectation
from pwdual.vqe import prepare_reference

@dataclass
class Outcome:
    """What a job returned: an exit code for CLI jobs, a value for API jobs."""

    rc: int = 0
    value: object = None
    error: str = ""


@dataclass
class Job:
    kind: str
    run: Callable[[Path], Outcome]
    check: Callable[[Outcome, Path], tuple]
    cli: bool = True
    known_defect: str = ""


# -- job builders --------------------------------------------------------------


def _sets(system: dict, task: dict, seed: int) -> list:
    argv = [f"--set=system.{k}={json.dumps(v)}" for k, v in system.items()]
    argv += [f"--set=task.{k}={json.dumps(v)}" for k, v in task.items()]
    return argv + [f"--set=seed={seed}"]


def cli_job(command: str, system: dict, task: dict, seed: int, check,
            known_defect: str = "") -> Job:
    argv = [command] + _sets(system, task, seed)

    def run(out: Path) -> Outcome:
        return Outcome(rc=cli.main(argv + [f"--out={out}"]))

    return Job(command, run, check, cli=True, known_defect=known_defect)


def api_job(kind: str, fn, check) -> Job:
    def run(out: Path) -> Outcome:
        return Outcome(value=fn())

    return Job(kind, run, check, cli=False)


def _report(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())["result"]


def _nuclei(rng, dimension: int, length: float):
    """One unit charge at a seeded position inside the cell."""
    return [[[round(float(x), 6) for x in rng.uniform(0.0, length, dimension)],
             1.0]]


# -- independent checks ----------------------------------------------------------


def _snake(rows: int, cols: int):
    """Own boustrophedon map qubit -> (row, col), written apart from the
    program's two copies."""
    pos = {}
    for r in range(rows):
        order = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
        for i, c in enumerate(order):
            pos[r * cols + i] = (r, c)
    return pos


def circuit_counts(circ, rows: int = 0, cols: int = 0) -> tuple:
    """Recount depth by greedy layering and, on a lattice, check that every
    two-qubit gate joins neighbours. Returns (problems, counts)."""
    problems = []
    level = [0] * circ.n_qubits
    for g in circ.gates:
        layer = 1 + max(level[t] for t in g.targets)
        for t in g.targets:
            level[t] = layer
    depth = max(level, default=0)
    if depth != circ.depth():
        problems.append(f"depth {circ.depth()} but recount gives {depth}")
    if rows:
        pos = _snake(rows, cols)
        for g in circ.gates:
            if len(g.targets) > 2:
                problems.append(f"{len(g.targets)}-qubit gate on a lattice")
                break
            if len(g.targets) == 2:
                (r1, c1), (r2, c2) = (pos[t] for t in g.targets)
                if abs(r1 - r2) + abs(c1 - c2) != 1:
                    problems.append(f"gate on non-adjacent {g.targets}")
                    break
    if not circ.gates:
        problems.append("empty circuit")
    return problems, {"gates": len(circ.gates), "depth": depth}


def check_circuit(rows: int, cols: int):
    def check(outcome: Outcome, out: Path):
        return circuit_counts(outcome.value, rows, cols)
    return check


def _section_terms(text: str) -> dict:
    counts, section = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
            counts[section] = 0
        elif section and line and not line.startswith("#"):
            counts[section] += 1
    return counts


def check_build(n_qubits: int, isospectral: bool):
    def check(outcome: Outcome, out: Path):
        rep = _report(out, "build_report.json")
        problems = []
        if rep["n_qubits"] != n_qubits:
            problems.append(f"n_qubits {rep['n_qubits']} != {n_qubits}")
        terms = 0
        for name in ("dual", "plane_wave"):
            if name not in rep:
                continue
            dumped = _section_terms(
                (out / f"hamiltonian_{name}.txt").read_text())
            for part in ("kinetic", "external", "interaction"):
                if dumped.get(part) != rep[name][f"{part}_terms"]:
                    problems.append(f"{name} {part}: dump has "
                                    f"{dumped.get(part)} terms, report "
                                    f"{rep[name][f'{part}_terms']}")
                terms += dumped.get(part, 0)
        if isospectral and not rep.get("isospectrality_max_gap", 1.0) <= 1e-9:
            problems.append("dual and plane-wave spectra differ")
        return problems, {"terms": terms}
    return check


def _weights_lambda(out: Path):
    lines = (out / "lcu_weights.csv").read_text().splitlines()
    header = float(lines[0].split(",")[1])
    weights = [float(row.split(",")[3]) for row in lines[2:]]
    return header, math.fsum(abs(w) for w in weights), len(weights)


def check_lcu(expect_taylor: bool):
    def check(outcome: Outcome, out: Path):
        rep = _report(out, "lcu_report.json")
        header, total, rows = _weights_lambda(out)
        problems = []
        if not math.isclose(total, rep["lam"], rel_tol=1e-12) \
                or not math.isclose(header, rep["lam"], rel_tol=1e-15):
            problems.append(f"lambda {rep['lam']} but table sums to {total}")
        if rows != rep["term_count"]:
            problems.append(f"{rows} table rows, {rep['term_count']} terms")
        if rep["reconstruction_max_gap"] > 1e-12:
            problems.append("weights do not rebuild the operator")
        taylor = rep["taylor"]
        if expect_taylor:
            errs = [taylor.get(k, {}).get("error") for k in ("2", "4")]
            if None in errs or not errs[1] < errs[0] < 1e-2:
                problems.append(f"taylor errors {errs} not falling")
        elif taylor:
            problems.append("taylor block ran past the dense cap")
        return problems, {"terms": rep["term_count"]}
    return check


def check_swapnet(rows: int, cols: int):
    def check(outcome: Outcome, out: Path):
        rep = _report(out, "swapnet_report.json")
        n = rows * cols
        label = list(range(n))
        covered = set()
        layers = (out / "swap_schedule.txt").read_text().splitlines()
        for line in layers:
            for entry in line.split():
                pair, _, tag = entry.partition(":")
                a, b = (int(x) for x in pair.strip("()").split(","))
                if tag:
                    covered.add(frozenset((label[a], label[b])))
                label[a], label[b] = label[b], label[a]
        problems = []
        if len(covered) != n * (n - 1) // 2:
            problems.append(f"replay covers {len(covered)} of "
                            f"{n * (n - 1) // 2} pairs")
        if len(layers) != rep["depth"]:
            problems.append(f"{len(layers)} layers, depth {rep['depth']}")
        return problems, {"depth": rep["depth"]}
    return check


def check_trotter(r_list):
    def check(outcome: Outcome, out: Path):
        rep = _report(out, "trotter_report.json")
        rows = [line.split(",") for line in
                (out / "trotter_sweep.csv").read_text().splitlines()[1:]]
        rs = [int(r) for r, _ in rows]
        errs = [float(e) for _, e in rows]
        problems = []
        if rs != r_list or not all(0 < e <= 2.0 for e in errs):
            problems.append(f"rows {rows} off the r list or out of (0, 2]")
        else:
            slope = float(np.polyfit(np.log(rs), np.log(errs), 1)[0])
            if abs(slope - rep["slope"]) > 1e-9:
                problems.append(f"refit slope {slope} != {rep['slope']}")
        return problems, {"points": len(rows)}
    return check


def check_ffft(n_qubits: int):
    def check(outcome: Outcome, out: Path):
        rep = _report(out, "ffft_report.json")
        lines = (out / "ffft_circuit.txt").read_text().splitlines()
        problems = []
        if rep["conjugation_max_error"] >= 1e-9:
            problems.append("FFFT does not conjugate ladder operators")
        if len(lines) != rep["gates"]:
            problems.append(f"{len(lines)} dumped gates, {rep['gates']} "
                            f"reported")
        if max(int(q) for line in lines
               for q in line.split()[1].split(",")) >= n_qubits:
            problems.append("gate outside the register")
        return problems, {"gates": rep["gates"], "depth": rep["depth"]}
    return check


def check_diagonalize(levels: int):
    def check(outcome: Outcome, out: Path):
        rep = _report(out, "diagonalize_report.json")
        energies = [float(line.split(",")[1]) for line in
                    (out / "spectrum.csv").read_text().splitlines()[1:]]
        problems = []
        if len(energies) != levels or rep["levels"] != levels:
            problems.append(f"{len(energies)} levels, want {levels}")
        if any(b < a for a, b in zip(energies, energies[1:])):
            problems.append("spectrum not ascending")
        if energies and energies[0] != rep["ground_energy"]:
            problems.append("ground energy is not the lowest level")
        return problems, {"levels": len(energies)}
    return check


def check_vqe(outcome: Outcome, out: Path):
    rep = _report(out, "vqe_report.json")
    problems = []
    exact, best, ref = (rep["exact_energy"], rep["optimized_energy"],
                        rep["reference_energy"])
    if not exact - 1e-9 <= best <= ref + 1e-9:
        problems.append(f"energies out of order: {exact}, {best}, {ref}")
    if any(b > a for a, b in zip(rep["trace"], rep["trace"][1:])):
        problems.append("best-so-far trace rises")
    if rep["evaluations"] < 1:
        problems.append("no objective evaluations")
    return problems, {"evaluations": rep["evaluations"]}


def check_measure(system: dict):
    """The sampled estimate must sit within six standard errors of the
    exact reference energy, which the check computes once per run."""
    exact = {}

    def check(outcome: Outcome, out: Path):
        rep = _report(out, "measure_report.json")
        if "e" not in exact:
            grid = build_grid(system["dimension"], system["modes_per_axis"],
                              system["volume"])
            hs = build_dual(grid)
            exact["e"] = expectation(prepare_reference(grid, system["eta"]),
                                     build_qubit(hs))
        gap = abs(rep["estimate"] - exact["e"])
        problems = []
        if not gap <= 6.0 * rep["stderr"] + 1e-9:
            problems.append(f"estimate {rep['estimate']} is {gap:.3g} from "
                            f"{exact['e']} (stderr {rep['stderr']:.3g})")
        return problems, {"shots": rep["shots"]}
    return check


# -- workloads -------------------------------------------------------------------

SPINFUL_CELL = {"modes_per_axis": 4, "volume": 4.0, "spinful": True}
DEFAULT_R_LIST = [2, 4, 8, 16, 32]


def construct_jobs(seed: int, tiny: bool) -> list:
    rng = np.random.default_rng(seed)
    if tiny:
        cube = {"dimension": 1, "modes_per_axis": 4, "volume": 4.0}
        chain_m, rows, cols, plane_m, swap = 4, 2, 2, 2, 2
    else:
        cube = {"dimension": 3, "modes_per_axis": 4, "volume": 64.0}
        chain_m, rows, cols, plane_m, swap = 64, 8, 8, 16, 16
    length = cube["volume"] ** (1.0 / cube["dimension"])
    n_cube = cube["modes_per_axis"] ** cube["dimension"]
    chain_nucleus = NucleiSpec.build(
        [((float(rng.uniform(0.0, chain_m)),), 1.0)])

    def planar_step():
        hs = hamiltonian.build_dual(build_grid(1, chain_m, float(chain_m)),
                                    chain_nucleus)
        return trotter.split_operator_step(
            hs, 0.1, connectivity=("planar", rows, cols))

    def planar_ffft():
        grid = build_grid(2, plane_m, float(plane_m ** 2))
        return ffft.build_ffft_nd(grid,
                                  connectivity=("planar", plane_m, plane_m))

    return [
        cli_job("build", {**cube, "nuclei": _nuclei(rng, cube["dimension"],
                                                    length)},
                {}, seed, check_build(n_cube, isospectral=False)),
        cli_job("lcu-check", {**cube, "nuclei": _nuclei(
            rng, cube["dimension"], length)}, {}, seed,
            check_lcu(expect_taylor=False)),
        api_job("split_operator_step", planar_step, check_circuit(rows, cols)),
        cli_job("swapnet", {}, {"rows": swap, "cols": swap}, seed,
                check_swapnet(swap, swap)),
        api_job("build_ffft_nd", planar_ffft,
                check_circuit(plane_m, plane_m)),
    ]


def dense_verify_jobs(seed: int, tiny: bool) -> list:
    rng = np.random.default_rng(seed)
    # the 8-qubit spinful cell with the default r list exits 1 at the
    # commit that introduced this benchmark (fitted slope -2.113 against
    # -2 +- 0.1); it stays in the mix so the defect shows in fail_frac
    cell = {"modes_per_axis": 2, "volume": 4.0, "spinful": True} if tiny \
        else SPINFUL_CELL
    diag_m = 2 if tiny else 6
    chain_m = 4 if tiny else 8
    n_cell = 2 * cell["modes_per_axis"]
    return [
        cli_job("trotter-sweep", cell, {}, seed,
                check_trotter(DEFAULT_R_LIST),
                known_defect="" if tiny else "default r_list slope fit"),
        cli_job("ffft-check", cell, {}, seed, check_ffft(n_cell)),
        cli_job("diagonalize",
                {"modes_per_axis": diag_m, "volume": float(diag_m),
                 "spinful": True, "nuclei": _nuclei(rng, 1, diag_m)},
                {}, seed, check_diagonalize(4 ** diag_m)),
        cli_job("lcu-check",
                {"modes_per_axis": chain_m, "volume": float(chain_m),
                 "nuclei": _nuclei(rng, 1, chain_m)},
                {"t": 0.01}, seed, check_lcu(expect_taylor=True)),
        cli_job("build", {**cell, "nuclei": _nuclei(rng, 1, cell["volume"])},
                {"representations": ["dual", "plane_wave"]}, seed,
                check_build(n_cell, isospectral=True)),
    ]


def variational_jobs(seed: int, tiny: bool) -> list:
    if tiny:
        cell = {"modes_per_axis": 2, "volume": 4.0, "spinful": True}
        vqe_task = {"restarts": 1, "maxiter": 20}
        plane = {"dimension": 1, "modes_per_axis": 4, "volume": 4.0, "eta": 2}
        many = 2000
    else:
        cell = SPINFUL_CELL
        vqe_task = {"restarts": 2, "maxiter": 200}
        plane = {"dimension": 2, "modes_per_axis": 4, "volume": 16.0, "eta": 4}
        many = 100000
    jobs = [cli_job("vqe-jellium", {**cell, "eta": 2}, vqe_task, seed,
                    check_vqe)]
    check = check_measure(plane)
    for strategy, shots in (("per_term", 2000), ("diagonal_groups", many),
                            ("diagonal_uv_only", 2000)):
        jobs.append(cli_job("measure", plane,
                            {"strategy": strategy, "shots": shots}, seed,
                            check))
    return jobs


GENERATORS = {
    "construct": construct_jobs,
    "dense-verify": dense_verify_jobs,
    "variational": variational_jobs,
}


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list:
    return GENERATORS[workload](seed, tiny)
