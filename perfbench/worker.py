"""One workload process: warm up, run the job mix in a closed loop, check.

Started by run.py with the thread environment and hash seed already pinned.
It prints one JSON line with everything run.py reports. The process start
time comes from run.py through PERFBENCH_T0 (a CLOCK_MONOTONIC reading,
shared by all processes on the host), so set-up time covers interpreter
start, imports and the untimed warm-up.

Timed window: the sum of the jobs' wall times. One client sends the next
job only after the previous one returned; each job is timed alone and its
check runs after its window closes. Whole cycles of the mix run until the
window reaches the requested seconds, so every run weighs the job kinds
the same way.
"""

import os
import time

T0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402
import scipy  # noqa: E402
import pwdual.cli  # noqa: E402

from jobs import GENERATORS, Outcome, make_jobs  # noqa: E402
from spans import Tracer  # noqa: E402

# Which end-to-end metric on which workload each traced function should
# move. A function with a workload here must record calls on that workload,
# or the traced run fails: a binding the tracer missed would otherwise read
# as a layer that costs nothing.
TARGETS = {
    "hamiltonian.build_dual": ("jobs_per_s,job_s_p50", "construct"),
    "hamiltonian.build_plane_wave": ("jobs_per_s", "dense-verify"),
    "hamiltonian.norm_bounds": ("jobs_per_s,job_s_p50", "construct"),
    "hamiltonian.mode_energies": ("jobs_per_s,job_s_p50", "construct"),
    "hamiltonian.build_qubit": ("jobs_per_s,job_s_p50", "construct"),
    "hamiltonian.HamiltonianSet.spectrum": ("jobs_per_s", "dense-verify"),
    "fermion.jordan_wigner": ("jobs_per_s", "construct"),
    "fermion.fermion_matrix": ("jobs_per_s,peak_rss_mb", "dense-verify"),
    "pauli.apply_string": ("evals_per_s", "variational"),
    "pauli.expectation_value": ("evals_per_s", "variational"),
    "pauli.qubit_operator_matrix": ("jobs_per_s", "dense-verify"),
    "statevector.circuit_matrix": ("jobs_per_s", "dense-verify"),
    "statevector.apply_circuit": ("evals_per_s", "variational"),
    "statevector.apply_gate": ("evals_per_s", "variational"),
    "statevector.expectation": ("evals_per_s", "variational"),
    "statevector.exact_evolve": ("jobs_per_s", "dense-verify"),
    "statevector.sample_bitstrings": ("jobs_per_s", "variational"),
    "ffft.build_ffft_nd": ("jobs_per_s", "construct"),
    "trotter.split_operator_step": ("jobs_per_s", "construct"),
    "trotter.measure_error_scaling": ("jobs_per_s", "dense-verify"),
    "swapnet.build_full_schedule": ("jobs_per_s", "construct"),
    "swapnet.lower_diagonal_layer": ("jobs_per_s", "construct"),
    "lcu.build_weights": ("jobs_per_s", "construct"),
    "lcu.LcuModel.reconstruction": ("jobs_per_s", "construct"),
    "lcu.prepare_state": ("jobs_per_s", "construct"),
    "lcu.taylor_segment": ("jobs_per_s", "dense-verify"),
    "measurement.estimate_energy": ("jobs_per_s", "variational"),
    "measurement.shot_budget": ("jobs_per_s", "variational"),
    "vqe.optimize": ("evals_per_s", "variational"),
    "vqe.Ansatz.circuit": ("evals_per_s", "variational"),
    "vqe.prepare_reference": ("evals_per_s", "variational"),
    "vqe.sector_ground_energy": ("evals_per_s", "variational"),
    "serialize.dumps_hamiltonian": ("job_s_p50", "construct"),
    "cli.build": ("job_s_p50", "construct"),
    "cli.lcu-check": ("job_s_p50", "construct"),
    "cli.swapnet": ("job_s_p50", "construct"),
    "cli.trotter-sweep": ("jobs_per_s", "dense-verify"),
    "cli.ffft-check": ("jobs_per_s", "dense-verify"),
    "cli.diagonalize": ("jobs_per_s", "dense-verify"),
    "cli.measure": ("jobs_per_s", "variational"),
    "cli.vqe-jellium": ("evals_per_s", "variational"),
}


@dataclass
class JobResult:
    kind: str
    wall: float
    failed: bool
    problems: list
    counts: dict = field(default_factory=dict)
    out_bytes: int = 0
    note: str = ""


def _report_failures(out: Path) -> list:
    for path in out.glob("*_report.json"):
        return json.loads(path.read_text())["result"].get("failures", [])
    return ["no report written"]


def run_job(job, out: Path, tracer=None, job_id=0) -> JobResult:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    root = f"cli.{job.kind}" if job.cli else f"api.{job.kind}"
    frame = tracer.begin_job(job_id, root) if tracer else None
    start = time.perf_counter()
    try:
        outcome = job.run(out)
    except Exception as exc:  # a job that raises is counted, not fatal
        outcome = Outcome(rc=-1, error=repr(exc))
    wall = time.perf_counter() - start
    if tracer:
        tracer.end_job(frame, not outcome.error)

    if outcome.error:
        return JobResult(job.kind, wall, True, [outcome.error])
    try:
        problems, counts = job.check(outcome, out)
        failures = _report_failures(out) if job.cli else []
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems, counts, failures = [f"unreadable output: {exc!r}"], {}, []
    failed = bool(outcome.rc or failures or problems)
    note = ""
    if outcome.rc or failures:
        note = f"exit {outcome.rc} failures {failures}"
        if job.known_defect:
            note += f" (known defect: {job.known_defect})"
    out_bytes = sum(p.stat().st_size for p in out.iterdir())
    return JobResult(job.kind, wall, failed, problems, counts, out_bytes, note)


def run_phase(jobs, seconds, out_root: Path, tracer=None):
    results, window, cycles = [], 0.0, 0
    while cycles == 0 or window < seconds:
        for i, job in enumerate(jobs):
            res = run_job(job, out_root / f"job{i}", tracer, len(results))
            window += res.wall
            results.append(res)
        cycles += 1
    return results, window, cycles


def end_to_end(results, window) -> dict:
    walls = [r.wall for r in results]
    vqe = [r for r in results if r.kind == "vqe-jellium"]
    metrics = {
        "jobs_per_s": len(results) / window,
        "job_s_p50": statistics.median(walls),
        "job_samples": len(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fail_frac": sum(r.failed for r in results) / len(results),
    }
    if vqe:
        metrics["evals"] = sum(r.counts.get("evaluations", 0) for r in vqe)
        metrics["evals_jobs"] = len(vqe)
        metrics["evals_per_s"] = metrics["evals"] / sum(r.wall for r in vqe)
    return metrics


def cycle_counts(results, cycles) -> dict:
    """Exact-repeat counts from the checks, summed over one cycle."""
    counts = {"cli.out_bytes": sum(r.out_bytes for r in results)}
    for r in results:
        for key, value in r.counts.items():
            name = f"{r.kind}.{key}"
            counts[name] = counts.get(name, 0) + value
    return {name: total / cycles for name, total in counts.items()}


def layer_metrics(tracer, workload, results, cycles, window,
                  untraced) -> tuple:
    values = {f"cli.{cmd}.{stat}": 0.0 for cmd in pwdual.cli.COMMANDS
              for stat in ("self_s", "total_s")}
    values.update({k: v / cycles for k, v in tracer.values().items()})
    roots = [k[:-len(".self_s")] for k in values
             if k.endswith(".self_s") and k.startswith(("cli.", "api."))]
    unattributed = sum(values[f"{r}.self_s"] for r in roots)
    values["cli.self_s"] = sum(values[f"{r}.self_s"] for r in roots
                               if r.startswith("cli."))
    traced_rate = len(results) / window
    per_cycle = len(results) / cycles
    values.update({
        "trace.unattributed_s": unattributed / per_cycle,
        "trace.unattributed_frac": unattributed * cycles / window,
        "trace.jobs_per_s_traced": traced_rate,
        "trace.jobs_per_s_untraced": untraced["jobs_per_s"],
        "trace.overhead_frac": untraced["jobs_per_s"] / traced_rate - 1.0,
        "job_s_p50": untraced["job_s_p50"],
        "fail_frac": untraced["fail_frac"],
        "evals_per_s": untraced.get("evals_per_s", 0.0),
    })
    values.update(cycle_counts(results, cycles))
    missing = sorted(name for name, (_, where) in TARGETS.items()
                     if where == workload
                     and not values.get(f"{name}.calls", 0)
                     and not values.get(f"{name}.total_s", 0))
    return values, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(GENERATORS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="time the 4-qubit warm-up mix (self-test)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out_root = Path(args.out)

    problems = []
    for res in run_phase(make_jobs(args.workload, args.seed, tiny=True), 0,
                         out_root / "warmup")[0]:
        problems += [f"warm-up {res.kind}: {p}" for p in res.problems]
    setup_s = time.monotonic() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "problems": problems}))
        return 0

    jobs = make_jobs(args.workload, args.seed, tiny=args.tiny)
    seconds = args.seconds / 2 if args.trace else args.seconds
    results, window, cycles = run_phase(jobs, seconds, out_root / "timed")
    metrics = end_to_end(results, window)
    walls = {}
    for r in results:
        walls.setdefault(r.kind, []).append(r.wall)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {"setup_s": setup_s, "window_s": window, "cycles": cycles,
           "versions": {"numpy": numpy.__version__,
                        "scipy": scipy.__version__,
                        "blas": f"{blas.get('name')} {blas.get('version')}"},
           "walls": [[r.kind, r.wall] for r in results],
           "median_wall_s": {k: statistics.median(v)
                             for k, v in walls.items()},
           "metrics": metrics, "counts": cycle_counts(results, cycles),
           "notes": sorted({f"{r.kind}: {r.note}" for r in results
                            if r.note})}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced, t_window, t_cycles = run_phase(jobs, seconds,
                                               out_root / "traced", tracer)
        tracer.uninstall()
        layers, missing = layer_metrics(tracer, args.workload, traced,
                                        t_cycles, t_window, metrics)
        if missing:
            print(f"traced run recorded no calls to {missing}",
                  file=sys.stderr)
            return 1
        results += traced
        spans, folded = tracer.span_records()
        (out_root / "spans.json").write_text(json.dumps(
            {"spans": spans, "folded": folded}))
        doc.update(layers=layers, traced_cycles=t_cycles,
                   targets={k: list(v) for k, v in TARGETS.items()})
    for r in results:
        problems += [f"{r.kind}: {p}" for p in r.problems]
    doc.update(attempted=len(results), failed=sum(r.failed for r in results),
               problems=problems)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
