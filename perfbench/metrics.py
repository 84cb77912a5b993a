"""Metric catalogue and the measurement helpers of the benchmark.

END_TO_END metrics are measured with tracing off and are reported, by the
same name, on every workload; PER_LAYER metrics come from the traced run.
MOVES names, for each per-layer metric, the end-to-end metric (and workload)
it should move, so a change to one layer states its prediction before it is
measured.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from pathlib import Path

# The host's speed drifts by up to 1.5x for minutes at a time, so every timed
# step is bracketed by a fixed pure-Python probe and its time is rescaled to
# the speed at which the probe takes PROBE_REFERENCE_S (its typical time in
# the fast phase of the 2-core host the baseline was measured on).
PROBE_LOOPS = 100_000
PROBE_REFERENCE_S = 0.0045

# Names, units, directions and bounds are read from BENCHMARK.json, their one source.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

# per-layer metric -> the end-to-end metric (and workload) it should move
MOVES = {
    "dataset.load_s": "setup_s (all workloads)",
    "dataset.rows_in": "setup_s (all workloads)",
    "dataset.rows_dropped": "setup_s (all workloads)",
    "dataset.select_columns_calls": "pipeline_s, tune_s",
    "dataset.standardize_s": "pipeline_s, tune_s",
    "feature_selection.rank_info_gain_s": "pipeline_s",
    "feature_selection.rank_correlation_s": "pipeline_s",
    "feature_selection.mdl_s": "pipeline_s",
    "feature_selection.wrapper_s": "pipeline_s",
    "feature_selection.wrapper_self_s": "pipeline_s",
    "feature_selection.wrapper_expansions": "pipeline_s",
    "feature_selection.wrapper_subsets_scored": "pipeline_s",
    "evaluation.cv_calls": "pipeline_s, tune_s",
    "evaluation.cv_self_s": "pipeline_s, tune_s",
    "evaluation.fold_fits": "pipeline_s, tune_s",
    "evaluation.folds_s": "pipeline_s, tune_s",
    "classifiers.fit_model_calls": "pipeline_s, tune_s",
    "classifiers.fit_model_self_s": "pipeline_s, tune_s",
    "classifiers.load_s": "predict_cold_s, peak_rss_mb on serve",
    "classifiers.model_bytes.nb": "predict_cold_s, peak_rss_mb on serve",
    "classifiers.model_bytes.knn": "predict_cold_s, peak_rss_mb on serve",
    "classifiers.model_bytes.svm": "predict_cold_s, peak_rss_mb on serve",
    "classifiers.save_s": "setup_s on serve",
    "nb.fit_calls": "pipeline_s (no move on svm_tune)",
    "nb.fit_s": "pipeline_s (no move on svm_tune)",
    "nb.log_joint_calls": "pipeline_s (no move on svm_tune)",
    "nb.predict_rows": "pipeline_s, score_rows_per_s.nb on serve_batch",
    "nb.predict_s": "pipeline_s, score_rows_per_s.nb on serve_batch",
    "nb.us_per_row": "pipeline_s, score_rows_per_s.nb on serve_batch",
    "knn.predict_rows": "score_rows_per_s.knn on serve_batch",
    "knn.predict_s": "score_rows_per_s.knn on serve_batch",
    "knn.us_per_row": "score_rows_per_s.knn on serve_batch",
    "svm.fit_calls": "tune_s, pipeline_s; setup_s only on serve",
    "svm.fit_s": "tune_s, pipeline_s; setup_s only on serve",
    "svm.gram_s": "tune_s, pipeline_s; setup_s only on serve",
    "svm.smo_passes": "tune_s, pipeline_s; setup_s only on serve",
    "svm.support_vectors": "tune_s, pipeline_s; setup_s only on serve",
    "svm.converged_ratio": "tune_s, pipeline_s; setup_s only on serve",
    "svm.kkt_max": "tune_s, pipeline_s; setup_s only on serve",
    "svm.predict_rows": "score_rows_per_s.svm on serve_batch",
    "svm.predict_s": "score_rows_per_s.svm on serve_batch",
    "tuning.grid_search_s": "tune_s, pipeline_s",
    "tuning.grid_self_s": "tune_s, pipeline_s",
    "tuning.candidates_ok_ratio": "tune_s, pipeline_s",
    "tuning.compare_s": "pipeline_s",
    "cli.interpreter_s": "predict_cold_s on serve",
    "cli.import_s": "predict_cold_s on serve",
    "cli.command_s": "predict_cold_s, score_rows_per_s.* on serve_batch",
    "trace.overhead_s": "none: traced minus untraced seconds per task",
    "trace.samples": "none: traced tasks behind each per-layer value",
}
if set(MOVES) != set(PER_LAYER):
    raise RuntimeError(f"MOVES and BENCHMARK.json per_layer differ: "
                       f"{sorted(set(MOVES) ^ set(PER_LAYER))}")

# Per-layer counts that must repeat exactly between two traced runs at one seed.
EXACT_COUNTS = (
    "nb.log_joint_calls", "svm.smo_passes", "evaluation.cv_calls",
    "feature_selection.wrapper_expansions", "svm.fit_calls", "dataset.rows_dropped",
)


def probe() -> float:
    """Seconds of a fixed pure-Python loop, best of two."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        best = min(best, time.perf_counter() - t0)
    return best


class Stopwatch:
    """Times named steps, each bracketed by probes, and keeps each step's
    seconds as measured and rescaled to the reference host speed."""

    def __init__(self):
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    def step(self, name, run):
        before = probe()
        t0 = time.perf_counter()
        out = run()
        seconds = time.perf_counter() - t0
        after = probe()
        self.raw[name] = self.raw.get(name, 0.0) + seconds
        self.scaled[name] = (self.scaled.get(name, 0.0)
                             + seconds * PROBE_REFERENCE_S / ((before + after) / 2))
        return out


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = 10):
    """The highest order statistic with at least `beyond` samples above it,
    with the percentile it sits at; None when there are too few samples."""
    if len(values) <= beyond:
        return None
    ordered = sorted(values)
    rank = len(ordered) - beyond - 1
    return float(ordered[rank]), 100.0 * rank / (len(ordered) - 1)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env(root: Path) -> dict:
    """The environment of a child process that must import this checkout's cadml."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def timed_process(argv, env, cwd, stdout_path):
    """Run one child to completion; (peak RSS in MB, exit code, stderr)."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, env=env, cwd=cwd)
        try:
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode, err.decode(errors="replace")
