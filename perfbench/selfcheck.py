#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds 4]

1. Two traced runs at one seed give identical per-layer counts, and the
   layer-isolation zeros hold (run.py fails the run otherwise).
2. A corrupted reference output shows up as failed operations.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Copies for checks 2 and 3 go below .perfbench_work/ and are removed.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402


def run(root: Path, workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def check_repeat(seed: int, seconds: float) -> list[str]:
    found = []
    for workload in workloads.WORKLOADS:
        results = []
        for _ in range(2):
            proc, result = run(ROOT, workload, seed, seconds, 1)
            if result is None or not result["correct"]:
                found.append(f"traced {workload} failed:\n{proc.stderr[-2000:]}")
                break
            results.append(result["metrics"])
        else:
            for name, spec in metrics.PER_LAYER.items():
                a, b = (r[name]["value"] for r in results)
                if spec["unit"] not in ("s", "us") and name != "trace.samples" and a != b:
                    found.append(f"{workload}: {name} is {a} then {b}")
            print(f"repeat counts {workload}: "
                  + ", ".join(f"{n}={results[0][n]['value']}" for n in metrics.EXACT_COUNTS),
                  flush=True)
    return found


def copy_tree(dest: Path, with_program: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
        shutil.copytree(ROOT / "data", dest / "data")


def corrupt(reference: dict) -> dict:
    """One wrong value per workload: a float, a count, a label and a digest."""
    reference["paper_pipeline"]["subset"]["objective"] += 1e-6
    reference["svm_tune"]["7"]["cv"]["pooled"]["tp"] += 1
    labels = reference["serve"]["labels"]["knn"]
    labels[0] = 1 - labels[0]
    reference["serve_batch"]["svm"]["positive"] += 1
    return reference


def check_corrupted(seconds: float) -> list[str]:
    dest = ROOT / ".perfbench_work" / "selfcheck-corrupt"
    copy_tree(dest, with_program=True)
    path = dest / "perfbench" / "reference.json"
    path.write_text(json.dumps(corrupt(json.loads(path.read_text(encoding="utf-8")))),
                    encoding="utf-8")
    found = []
    try:
        for workload in workloads.WORKLOADS:
            proc, result = run(dest, workload, workloads.DEFAULT_SEED, seconds, 0)
            if result is None or result["failed"] == 0 or result["correct"]:
                found.append(f"corrupted reference not detected on {workload}: {result}")
            else:
                print(f"corrupted reference on {workload}: {result['failed']} of "
                      f"{result['attempted']} operations failed", flush=True)
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    return found


def check_bare_directory() -> list[str]:
    dest = ROOT / ".perfbench_work" / "selfcheck-bare"
    copy_tree(dest, with_program=False)
    try:
        proc, _ = run(dest, "paper_pipeline", 1, 1, 0)
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    print(f"bare directory: exit {proc.returncode}: {proc.stderr.strip()}", flush=True)
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    found = check_bare_directory()
    found += check_repeat(args.seed, args.seconds)
    found += check_corrupted(args.seconds)
    for problem in found:
        print(f"SELFCHECK FAILED: {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if found else "passed"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
