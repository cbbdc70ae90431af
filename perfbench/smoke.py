"""Smoke test of the benchmark itself, at reduced size.

    python3 perfbench/smoke.py

For every workload, untraced and traced, at a small fraction of the
reference sizing: the run exits 0, prints every metric named in
BENCHMARK.json with its declared unit, reports no failed task, and the
traced pass writes the same result bytes as the untraced one.  Last, the
benchmark must refuse to run, with a non-zero exit and no result line, in
a directory that holds only BENCHMARK.json and the benchmark's files.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCALE = "0.02"


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n"
                                f"{done.stderr[-2000:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{label}: metrics {units} != declared "
                                f"{declared[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: error_rate "
                                f"{result['failed']}/{result['attempted']}"
                                "\n" + "\n".join(lines[-25:-1]))
            if trace and ("traced outputs identical to untraced: yes"
                          not in lines):
                problems.append(f"{label}: traced outputs differ")
            print(f"{label}: ok, {result['attempted']} tasks", flush=True)

    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], 0)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    if done.returncode == 0 or last.startswith("{"):
        problems.append("bare directory: ran without the package sources")
    else:
        print(f"bare directory: refused with exit {done.returncode}")
    shutil.rmtree(bare)

    for p in problems:
        print("PROBLEM " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
