"""Benchmark of pwdual jobs: construct, dense-verify and variational.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout; the program is imported from
``src``. Each run starts fresh workload processes (worker.py) with
BLAS/OpenMP threads and PYTHONHASHSEED pinned before numpy loads. Each
times its own set-up; one of them then runs the job mix. ``setup_s`` is
the median of all the set-ups, taken half before and half after the
measuring process so that they sample the host's speed at different times.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with every pwdual public function wrapped, and
reports the per-layer metrics with each one's target metric and workload,
the unattributed share and the tracing overhead. The metric names and
units come from BENCHMARK.json. Human-readable lines go first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Results, with the machine and environment
they ran on, are also written under ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUPS_AROUND = 2  # set-up-only processes before and after
THREADS = 1  # fixed, no higher than nproc on any host
HASH_SEED = "0"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PROCESS_TIMEOUT = 170.0


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(THREADS) for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, extra, deadline) -> dict:
    env = worker_env()
    env["PERFBENCH_T0"] = repr(time.monotonic())
    cmd = [sys.executable, str(HERE / "worker.py"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={OUT / 'work' / args.workload}"] + extra
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out: {exc}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(args, versions: dict) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "threads": THREADS, "hash_seed": HASH_SEED,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def spec() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"workloads": [w["name"] for w in doc["workloads"]],
            "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]}}


def select(values: dict, wanted: dict) -> dict:
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise BenchError(f"benchmark produced no value for {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in wanted.items()}


def main(argv=None) -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=bench["workloads"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="time the 4-qubit warm-up mix (self-test only)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + PROCESS_TIMEOUT
    if not (ROOT / "src" / "pwdual" / "__init__.py").is_file():
        raise BenchError(f"no pwdual sources under {ROOT / 'src'}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    extra = ["--tiny"] if args.tiny else []

    # set-up time is an end-to-end metric only; a traced run skips the
    # extra processes to stay well inside its time limit
    around = 0 if args.trace else SETUPS_AROUND
    setups = [run_worker(args, ["--setup-only"], deadline)
              for _ in range(around)]
    doc = run_worker(args, extra, deadline)
    setups += [doc] + [run_worker(args, ["--setup-only"], deadline)
                       for _ in range(around)]
    m = doc["metrics"]
    values = dict(m, setup_s=statistics.median(s["setup_s"]
                                               for s in setups))
    problems = [p for s in setups for p in s["problems"]]
    env = machine(args, doc["versions"])

    print(f"# {json.dumps(env)}")
    print(f"setup_s      {values['setup_s']:.4f} s  (median of "
          f"{len(setups)} fresh processes)")
    print(f"jobs_per_s   {m['jobs_per_s']:.5f} 1/s  ({m['job_samples']} "
          f"jobs, {doc['cycles']} cycles, {doc['window_s']:.2f} s window)")
    print(f"job_s_p50    {m['job_s_p50']:.4f} s  (n={m['job_samples']})")
    print(f"peak_rss_mb  {m['peak_rss_mb']:.1f} MB  (ru_maxrss of the "
          f"measuring process)")
    print(f"fail_frac    {m['fail_frac']:.4f} ratio  "
          f"({round(m['fail_frac'] * m['job_samples'])} of "
          f"{m['job_samples']} jobs)")
    if "evals_per_s" in m:
        print(f"evals_per_s  {m['evals_per_s']:.2f} 1/s  ({m['evals']} "
              f"evaluations in {m['evals_jobs']} vqe jobs)")
    print("median job wall by kind: " + ", ".join(
        f"{k} {v:.4f} s" for k, v in doc["median_wall_s"].items()))
    for note in doc["notes"]:
        print(f"note: {note}")
    print(f"counts per cycle: {json.dumps(doc['counts'], sort_keys=True)}")
    if args.trace:
        values = doc["layers"]
        targets = doc["targets"]
        for name in sorted(wanted):
            base = name.rsplit(".", 1)[0]
            target = "/".join(targets.get(base, targets.get(name, ["-",
                                                                   "-"])))
            print(f"layer {name:48s} {values.get(name, float('nan')):>14.6g}"
                  f" {wanted[name]:6s} -> {target}")
        print(f"tracing overhead {values['trace.overhead_frac']:+.3f} "
              f"(jobs_per_s untraced {values['trace.jobs_per_s_untraced']:.5f}"
              f", traced {values['trace.jobs_per_s_traced']:.5f}); "
              f"unattributed {values['trace.unattributed_frac']:.4f} of "
              f"traced job time")
    for problem in sorted(set(problems)):
        print(f"problem: {problem}")

    result = {"correct": not problems,
              "attempted": doc["attempted"], "failed": doc["failed"],
              "metrics": select(values, wanted)}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_{args.seed}_{args.trace}.json").write_text(
        json.dumps({"machine": env, "result": result, "worker": doc},
                   indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
