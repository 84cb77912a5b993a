#!/usr/bin/env python3
"""Run one cadml benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_pipeline --seed 2018 --seconds 20 --trace 0

Run from the root of a cadml checkout; the benchmark imports `src/cadml` from
that checkout and writes only below `.perfbench_work/` (removed at exit) and
`.perfbench_out/` (span dumps of traced runs).

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
spends half of --seconds on untraced in-process tasks and half on traced ones,
and reports the per-layer metrics plus the tracing overhead. Load is one
client in a closed loop: each task starts when the previous one has ended.
Times are rescaled to a reference host speed by a probe run around each
timed step (see metrics.Stopwatch).

The metrics are printed as a table, with the environment they were measured
in; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import metrics
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
PROBE_REPEATS = 5


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.rsplit("/", 1)[-1] and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit()}


class Tally:
    """Operations attempted and failed; a wrong output is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def child_run(argv, workdir, tally):
    """Seconds of one fresh run of argv, at the reference host speed."""
    watch = metrics.Stopwatch()
    _, code, err = watch.step("child", lambda: metrics.timed_process(
        argv, metrics.child_env(ROOT), ROOT, workdir / "child.out"))
    tally.add([] if code == 0 else [f"{' '.join(argv[1:3])} exited {code}: {err[-300:]}"])
    return watch.scaled["child"]


def child_runs(argv, count, workdir, tally):
    """Seconds of `count` fresh runs of argv after one untimed run that fills
    the bytecode cache."""
    child_run(argv, workdir, tally)
    return [child_run(argv, workdir, tally) for _ in range(count)]


def timed_loop(wl, seconds, cold, tally, rec=None, between=None, count=0):
    """Closed loop of tasks for `seconds` (at least one task). Returns the
    samples (task seconds, seconds per step, peak RSS, problems) with times
    rescaled to the reference host speed, the same samples as measured, and
    the results of `between`: it is called `count` times, spread evenly over
    the loop between tasks, and its time does not count against `seconds`."""
    samples, raw, extra = [], [], []
    start, paused = time.perf_counter(), 0.0

    def elapsed():
        return time.perf_counter() - start - paused

    i = 0
    while i == 0 or elapsed() < seconds:
        if rec is not None:
            rec.run_id = i
        watch, rss, problems = wl.task(i, cold)
        tally.add(problems)
        samples.append((sum(watch.scaled.values()), watch.scaled, rss, problems))
        raw.append((sum(watch.raw.values()), watch.raw, rss, problems))
        i += 1
        while between and len(extra) < min(count, count * elapsed() / seconds):
            t0 = time.perf_counter()
            extra.append(between())
            paused += time.perf_counter() - t0
    while between and len(extra) < count:
        extra.append(between())
    return samples, raw, extra


def untraced(wl, args, tally):
    # The set-up processes are spread over the timed loop, so that their
    # median samples the host over the whole run and not over a few seconds
    # of it. The first, untimed, fills the bytecode cache and makes the
    # models the serving tasks load.
    argv = [sys.executable, str(HERE / "setup_child.py"), wl.name, str(wl.workdir)]
    child_run(argv, wl.workdir, tally)
    wl.prepare()
    tally.add(wl.warmup())
    samples, raw, setup = timed_loop(wl, args.seconds, True, tally, count=SETUP_REPEATS,
                                     between=lambda: child_run(argv, wl.workdir, tally))
    if samples[0][2] is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak = max(s[2] for s in samples)
    task_s, extra = wl.summarize(samples)
    values = {"setup_s": metrics.median(setup), "task_s": task_s, "peak_rss_mb": peak}
    rows = [("setup_s", values["setup_s"], "s", len(setup)),
            ("task_s", task_s, "s", len(samples))]
    rows += [(name, *v[:2], len(samples), *v[2:]) for name, v in extra.items()]
    rows += [("task_raw_s", wl.summarize(raw)[0], "s", len(raw), "as measured, not rescaled"),
             ("host_speed", metrics.median([s[0] / r[0] for s, r in zip(samples, raw)]),
              "ratio", len(raw), "rescaled / measured task time"),
             ("error_rate", tally.failed / tally.attempted, "ratio", tally.attempted),
             ("peak_rss_mb", peak, "MB", len(samples))]
    return {n: (values[n], m["unit"]) for n, m in metrics.END_TO_END.items()}, rows


# per-layer metrics measured once, in the traced set-up
SETUP_LAYER = ("dataset.load_s", "dataset.rows_in", "dataset.rows_dropped", "classifiers.save_s",
               "classifiers.model_bytes.nb", "classifiers.model_bytes.knn",
               "classifiers.model_bytes.svm")
# per-layer counts that must be 0 in a workload's timed phase
ISOLATION = {
    "svm_tune": ("nb.fit_calls", "feature_selection.wrapper_expansions",
                 "feature_selection.wrapper_subsets_scored"),
    "serve": ("nb.fit_calls", "svm.fit_calls"),
    "serve_batch": ("nb.fit_calls", "svm.fit_calls"),
}


def traced(wl, args, tally):
    interpreter = child_runs([sys.executable, "-c", "pass"], PROBE_REPEATS, wl.workdir, tally)
    imported = child_runs([sys.executable, "-c", "import cadml.cli"], PROBE_REPEATS,
                          wl.workdir, tally)
    rec = spans.Recorder()
    with spans.instrument(rec):
        wl.setup_work()
    wl.prepare()
    tally.add(wl.warmup())
    plain, _, _ = timed_loop(wl, args.seconds / 2, False, tally)
    with spans.instrument(rec):
        traced_samples, _, _ = timed_loop(wl, args.seconds / 2, False, tally, rec)
    per_task = []
    runs = rec.by_run()
    for i in range(len(traced_samples)):
        values, problems = spans.layer_metrics(rec, runs, i)
        tally.add(problems)
        per_task.append(values)
    out = {}
    for name, spec in metrics.PER_LAYER.items():
        if name not in per_task[0]:
            continue
        column = [v[name] for v in per_task]
        if spec["unit"] in ("s", "us"):
            out[name] = metrics.median(column)
        else:
            # work counts are deterministic: every traced task must agree
            tally.add([] if len(set(column)) == 1 else [f"{name} differs between tasks: {column}"])
            out[name] = column[0]
    out["cli.interpreter_s"] = metrics.median(interpreter)
    out["cli.import_s"] = metrics.median(imported) - out["cli.interpreter_s"]
    out["trace.overhead_s"] = (metrics.median([s[0] for s in traced_samples])
                               - metrics.median([s[0] for s in plain]))
    out["trace.samples"] = len(traced_samples)
    for name in ISOLATION.get(wl.name, ()):
        tally.add([] if out[name] == 0 else [f"layer isolation: {name} = {out[name]} on {wl.name}"])
    tally.add([] if set(out) == set(metrics.PER_LAYER) else
              [f"per-layer metrics missing: {sorted(set(metrics.PER_LAYER) - set(out))}"])
    dump_dir = ROOT / ".perfbench_out"
    dump_dir.mkdir(exist_ok=True)
    rec.dump(dump_dir / f"spans-{wl.name}-seed{wl.seed}.jsonl")
    samples = {"cli.interpreter_s": len(interpreter), "cli.import_s": len(imported)}
    samples.update(dict.fromkeys(SETUP_LAYER, 1))
    rows = [(n, out[n], m["unit"], samples.get(n, len(traced_samples)), "-> " + metrics.MOVES[n])
            for n, m in metrics.PER_LAYER.items()]
    return {n: (out[n], m["unit"]) for n, m in metrics.PER_LAYER.items()}, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cadml" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"perfbench: {ROOT} is not a cadml checkout (src/cadml or data/ missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cadml
    if Path(cadml.__file__).resolve().parent != (src / "cadml").resolve():
        print(f"perfbench: imported cadml from {cadml.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed, reference)
        values, rows = (traced if args.trace else untraced)(wl, args, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {wl.name} (task: {wl.task_unit}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"{'metric':<42}{'value':>16}  {'unit':<9}{'samples':>8}")
    for name, value, unit, n, *note in rows:
        print(f"{name:<42}{value:>16.6g}  {unit:<9}{n:>8}  {' '.join(note)}".rstrip())
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
