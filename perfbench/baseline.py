#!/usr/bin/env python3
"""Run every workload at several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

For each workload and metric it reports the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. A spread must stay below its
metric's bound (BENCHMARK.json) for the benchmark to tell a regression from
noise. Runs go one at a time, so the benchmark has the machine to itself.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import metrics  # noqa: E402  (this directory is sys.path[0])


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return json.loads(lines[-1]), env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in metrics.SPEC["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args()

    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        values = {name: [] for name in metrics.END_TO_END}
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = metrics.quartiles(vals)
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                          "bound": metrics.END_TO_END[name]["bound"], "values": vals}
            print(f"{workload:<16}{name:<14}median {q2:10.5g}  spread {(q3 - q1) / q2:6.3f}  "
                  f"bound {metrics.END_TO_END[name]['bound']}", flush=True)
        summary["workloads"][workload] = rows
        summary["environment"] = env
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
