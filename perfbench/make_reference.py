#!/usr/bin/env python3
"""Record the outputs the benchmark compares against at the paper's seeds.

    python3 perfbench/make_reference.py

Run from the root of the checkout whose outputs are the reference; writes
perfbench/reference.json. Floats are stored with all their digits.
"""
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads as w

    workdir = ROOT / ".perfbench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        make = {name: cls(ROOT, workdir, w.DEFAULT_SEED, {}) for name, cls in w.WORKLOADS.items()}
        reference = {}
        pipeline = make["paper_pipeline"]
        reference[pipeline.name] = pipeline.summary(
            pipeline.reproduce(w.PAPER_CV_SEED, w.PAPER_SUBSET_SEED))
        tune = make["svm_tune"]
        tune.prepare()
        reference[tune.name] = {width: checks.tune_summary(tr)
                                for width, tr in tune.tune(w.PAPER_CV_SEED).items()}
        serve = make["serve"]
        serve.setup_work()
        serve.prepare()
        reference[serve.name] = serve.outputs()
        batch = make["serve_batch"]
        batch.prepare()
        reference[batch.name] = {a: batch.digest(labels) for a, labels in batch.expected.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
