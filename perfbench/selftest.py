"""Smoke test of the benchmark harness at 4 qubits; asserts no timings.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it runs the 4-qubit warm-up mix
as the timed mix and checks that the last output line is the result object
with exactly the metric names and units BENCHMARK.json lists. It then runs
the benchmark in a directory holding only BENCHMARK.json and the benchmark
files, where it must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         f"--workload={workload}", "--seed=1", "--seconds=0.01",
         f"--trace={trace}", "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}\n"
                              f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if got != want:
                errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()):
                errors.append(f"{tag}: non-numeric metric value")
            if not result["correct"] or result["attempted"] < 1:
                errors.append(f"{tag}: correct={result['correct']} "
                              f"attempted={result['attempted']}\n"
                              f"{proc.stdout[-2000:]}")
            print(f"ok {tag}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} jobs failed")

    bare = ROOT / ".bench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append("benchmark without program sources did not fail")
    else:
        print(f"ok without sources: exit {proc.returncode}")
    shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
