"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 perfbench/spread.py --seeds 1-10 [--workloads chain-counts,...]
        [--write-baseline]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for every end-to-end metric its median over the runs and its
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) over the median.  A run that
fails, or reports a failed check, stops the script with exit code 1.
With ``--write-baseline`` it also runs one traced run (first seed) per
workload and writes ``baseline.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: failed checks\n"
                 + "\n".join(lines[-30:-1]))
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            result = run(workload, seed, spec["run_seconds"], 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "unit": units[name]}
            print(f"  {name:12s} median {med:.6g} {units[name]:9s} "
                  f"spread {(q3 - q1) / med:.3f} (bound {bounds[name]})")
        baseline[workload] = {"correct": True, "end_to_end": summary}
        if args.write_baseline:
            traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
            baseline[workload]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    if args.write_baseline:
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(BENCH))
        import run as bench
        (BENCH / "baseline.json").write_text(json.dumps({
            "machine": bench.machine_facts(),
            "measured": datetime.date.today().isoformat(),
            "runs": f"one run per seed {args.seeds[0]}-{args.seeds[-1]}, "
                    f"--seconds {spec['run_seconds']} --trace 0; per-layer "
                    f"from one run with --seed {args.seeds[0]} --trace 1",
            "workloads": baseline}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BENCH / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
