"""The benchmark's workloads: their set-up, inputs, timed tasks and checks.

Every call into cadml goes through a module attribute (`tuning.grid_search`,
not a name imported from it), so that the wrappers `spans.instrument`
installs see it.

Training configurations: the timed task of paper_pipeline and svm_tune runs
at the paper's seeds (CV 2018, subset 1), whose outputs are recorded in
reference.json. The workload seed derives a second configuration, run once
per run before the timed phase, whose outputs are checked by invariants. The
timed work does not follow the seed because the wrapper's path length does:
across subset seeds 1..10 the search made 8 to 16 expansions and took 1.4 to
3.1 s, and the SVM grid took 0.94 to 1.42 s across fold seeds, far more
spread than a regression bound can absorb.
"""
from __future__ import annotations

import hashlib
import json
import sys
import traceback
from pathlib import Path

import numpy as np
from cadml import classifiers, dataset, evaluation, feature_selection, tuning

import checks
import metrics
import setup_child

PAPER_CV_SEED = 2018
PAPER_SUBSET_SEED = 1
DEFAULT_SEED = PAPER_CV_SEED
FOLDS = 10
STALE_LIMIT = 5
ALGORITHMS = tuple(setup_child.SERVE_PARAMS)
# Rows per `predict --data` request on serve_batch. The repo documents no batch
# size, so this is a sensitivity choice, not observed traffic: the share of a
# request spent in the batch path (request minus a one-row request) was
# 0-19% at 297 rows, the cleaned table as one file, where process start and
# model load dominate, and 40-62% at 5000 rows (README.md).
BATCH_ROWS = 5000


def derived_seeds(seed: int) -> tuple[int, int]:
    """(CV seed, subset seed); the default workload seed gives the paper's."""
    return seed, (seed - PAPER_CV_SEED + PAPER_SUBSET_SEED) % 2**32


class Workload:
    name = ""
    task_unit = ""

    def __init__(self, root: Path, workdir: Path, seed: int, reference: dict):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.reference = reference.get(self.name)
        self.data = str(root / setup_child.DATA)

    def setup_work(self):
        """What set-up does, in the set-up child process and in-process."""
        return setup_child.set_up(self.name, self.root, self.workdir)

    def prepare(self) -> None:
        """Build the seeded inputs and expected outputs; untimed."""

    def warmup(self) -> list[str]:
        """One untimed task at the seed-derived configuration, checked."""
        raise NotImplementedError

    def task(self, i: int, cold: bool):
        """Run task i; returns (metrics.Stopwatch of its steps, peak RSS MB or
        None, problems). cold=True is the end-to-end form, cold=False the
        in-process form the traced run uses."""
        raise NotImplementedError

    def summarize(self, samples) -> tuple[float, dict]:
        """task_s, and the workload's own end-to-end metrics:
        name -> (value, unit) or (value, unit, note)."""
        seconds = [s[0] for s in samples]
        return metrics.median(seconds), {}


class PaperPipeline(Workload):
    name = "paper_pipeline"
    task_unit = "reproduction"

    def reproduce(self, cv_seed, subset_seed, watch=None):
        watch = watch or metrics.Stopwatch()

        def load_and_rank():
            ds = dataset.load_dataset(self.data)
            return ds, {e: feature_selection.rank_features(ds, e)
                        for e in feature_selection.EVALUATORS}

        def baseline_cv():
            view = dataset.select_columns(ds, dataset.SELECTED_FEATURES)
            return view, evaluation.cross_validate(view, classifiers.NBParams(), FOLDS, cv_seed,
                                                   scaling=False)

        ds, rankings = watch.step("rank", load_and_rank)
        subset = watch.step("wrapper", lambda: feature_selection.best_first_subset(
            ds, classifiers.NBParams(), folds=FOLDS, seed=subset_seed, stale_limit=STALE_LIMIT))
        view, baseline = watch.step("baseline", baseline_cv)
        comparison = watch.step("compare", lambda: tuning.compare_models(view, FOLDS, cv_seed))
        return {"ds": ds, "view": view, "rankings": rankings, "subset": subset,
                "baseline": baseline, "comparison": comparison}

    @staticmethod
    def summary(out) -> dict:
        return {
            "rankings": {e: [[f.feature, f.score] for f in r.entries]
                         for e, r in out["rankings"].items()},
            "subset": out["subset"].to_dict(),
            "baseline": checks.cv_summary(out["baseline"]),
            "models": {a: checks.tune_summary(tr)
                       for a, tr in out["comparison"].per_algorithm.items()},
            "best_per_metric": out["comparison"].best_per_metric,
        }

    def problems(self, out, paper: bool) -> list[str]:
        ds, view = out["ds"], out["view"]
        found = []
        for e, ranked in out["rankings"].items():
            found += checks.ranking_problems(ranked, ds.feature_names, f"rank.{e}")
        subset = out["subset"]
        if not set(subset.selected) <= set(ds.feature_names) or not 0 <= subset.objective <= 1:
            found.append(f"subset: {subset.to_dict()} is not a subset with an accuracy")
        found += checks.cv_problems(out["baseline"], view.n_rows, "baseline")
        for algo, tr in out["comparison"].per_algorithm.items():
            found += checks.tune_problems(tr, view, f"compare.{algo}")
        if paper:
            found += checks.compare(self.summary(out), self.reference, self.name)
        return found

    def warmup(self):
        cv_seed, subset_seed = derived_seeds(self.seed)
        out = self.reproduce(cv_seed, subset_seed)
        return self.problems(out, (cv_seed, subset_seed) == (PAPER_CV_SEED, PAPER_SUBSET_SEED))

    def task(self, i, cold):
        watch = metrics.Stopwatch()
        out = self.reproduce(PAPER_CV_SEED, PAPER_SUBSET_SEED, watch)
        return watch, None, self.problems(out, True)

    def summarize(self, samples):
        task_s, _ = super().summarize(samples)
        return task_s, {"pipeline_s": (task_s, "s")}


class SvmTune(Workload):
    name = "svm_tune"
    task_unit = "pair of grid searches (7 and 13 features)"

    def prepare(self):
        ds = dataset.load_dataset(self.data)
        self.views = {"7": dataset.select_columns(ds, dataset.SELECTED_FEATURES), "13": ds}

    def tune(self, fold_seed, watch=None):
        watch = watch or metrics.Stopwatch()
        grid = tuning.default_grids()["svm"]
        return {width: watch.step(width, lambda: tuning.grid_search(view, grid, FOLDS, fold_seed))
                for width, view in self.views.items()}

    def problems(self, out, paper: bool) -> list[str]:
        found = []
        for width, tr in out.items():
            found += checks.tune_problems(tr, self.views[width], f"tune.{width}")
            if len(tr.per_candidate) != len(tuning.default_grids()["svm"].candidates):
                found.append(f"tune.{width}: a candidate failed")
        if paper:
            summary = {w: checks.tune_summary(tr) for w, tr in out.items()}
            found += checks.compare(summary, self.reference, self.name)
        return found

    def warmup(self):
        fold_seed, _ = derived_seeds(self.seed)
        return self.problems(self.tune(fold_seed), fold_seed == PAPER_CV_SEED)

    def task(self, i, cold):
        watch = metrics.Stopwatch()
        out = self.tune(PAPER_CV_SEED, watch)
        return watch, None, self.problems(out, True)

    def summarize(self, samples):
        per_search = metrics.median([s[0] for s in samples]) / 2
        extra = {"tune_s": (per_search, "s")}
        for width in self.views:
            extra[f"tune_s.{width}"] = (metrics.median([s[1][width] for s in samples]), "s")
        return per_search, extra


class _Serve(Workload):
    """Shared by the two serving workloads: set-up fits and saves the three
    models on the 7-feature view; requests run `cadml predict` on them."""

    def model_path(self, algo) -> Path:
        return setup_child.model_path(self.workdir, algo)

    def prepare(self):
        view = dataset.select_columns(dataset.load_dataset(self.data), dataset.SELECTED_FEATURES)
        self.models = {a: classifiers.load_model(self.model_path(a)) for a in ALGORITHMS}
        self.rng = np.random.default_rng(self.seed)
        self.view = view
        self.env = metrics.child_env(self.root)
        self.out_path = self.workdir / "out.txt"

    def resample(self, n):
        return self.view.X[self.rng.integers(0, self.view.n_rows, n)]

    def request(self, args, cold, watch, step):
        """One `cadml predict` request, as a fresh process or in-process, timed
        as `step` of `watch`; returns (peak RSS MB or None, problems, output)."""
        args = ["predict"] + args + ["--out", str(self.out_path)]
        if cold:
            rss, code, err = watch.step(step, lambda: metrics.timed_process(
                [sys.executable, "-m", "cadml.cli"] + args, self.env, self.root,
                self.workdir / "stdout.txt"))
        else:
            from cadml import cli

            def in_process():
                try:
                    cli.main(args)
                    return 0, ""
                except SystemExit as exc:
                    return exc.code, "in-process exit"
                except Exception:  # a traceback is a failed request, as in a fresh process
                    return 1, traceback.format_exc()

            (code, err), rss = watch.step(step, in_process), None
        if code != 0:
            return rss, [f"predict exited {code}: {err.strip()[-300:]}"], ""
        return rss, [], self.out_path.read_text(encoding="utf-8")


def _row_text(row) -> str:
    return ",".join(repr(float(v)) for v in row)


class Serve(_Serve):
    name = "serve"
    task_unit = "single-record cold request"

    def prepare(self):
        super().prepare()
        # as many records as the cleaned table has rows
        self.records = self.resample(self.view.n_rows)
        self.expected = {a: m.predict_batch(self.records) for a, m in self.models.items()}
        self.posteriors = [self.models["nb"].posterior(r) for r in self.records]

    def one(self, i, cold, watch):
        """Request i; returns (peak RSS MB or None, problems)."""
        algo, r = ALGORITHMS[i % 3], i % len(self.records)
        rss, found, text = self.request(
            ["--model", str(self.model_path(algo)), "--record", _row_text(self.records[r]),
             "--format", "json"], cold, watch, algo)
        if not found:
            try:
                predictions = json.loads(text)["report"]["predictions"]
            except (ValueError, KeyError, TypeError) as exc:
                return rss, [f"serve.{algo}: unreadable output ({exc!r})"]
            found = self.check(algo, r, predictions)
        return rss, found

    def check(self, algo, r, predictions) -> list[str]:
        where = f"serve.{algo}.record{r}"
        if len(predictions) != 1:
            return [f"{where}: {len(predictions)} predictions for one record"]
        pred = predictions[0]
        found = []
        if pred["label"] != int(self.expected[algo][r]):
            found.append(f"{where}: CLI label {pred['label']} != predict_batch "
                         f"{self.expected[algo][r]}")
        if algo == "nb":
            found += checks.posterior_problems(pred["posterior"], where)
            found += checks.compare(pred["posterior"], self.posteriors[r].tolist(), where)
        if self.seed == DEFAULT_SEED:
            want = {"label": self.reference["labels"][algo][r]}
            got = {"label": pred["label"]}
            if algo == "nb":
                want["posterior"] = self.reference["nb_posterior"][r]
                got["posterior"] = pred["posterior"]
            found += checks.compare(got, want, f"{where}.reference")
        return found

    def outputs(self) -> dict:
        """Labels and NB posteriors of every record, from predict_batch."""
        return {"labels": {a: [int(v) for v in labels] for a, labels in self.expected.items()},
                "nb_posterior": [p.tolist() for p in self.posteriors]}

    def warmup(self):
        watch = metrics.Stopwatch()
        found = [p for i in range(len(ALGORITHMS)) for p in self.one(i, True, watch)[1]]
        if self.seed == DEFAULT_SEED:
            # the timed requests cover the records only in part
            found += checks.compare(self.outputs(), self.reference, "serve.reference")
        return found

    def task(self, i, cold):
        watch = metrics.Stopwatch()
        if cold:
            rss, found = self.one(i, cold, watch)
            return watch, rss, found
        # in-process, a task is one request per model
        found = [p for j in range(len(ALGORITHMS)) for p in self.one(3 * i + j, cold, watch)[1]]
        return watch, None, found

    def summarize(self, samples):
        seconds = [s[0] for s in samples]
        task_s = metrics.median(seconds)
        extra = {"predict_cold_s": (task_s, "s")}
        tail = metrics.tail(seconds)
        if tail is not None:
            extra["predict_cold_tail_s"] = (tail[0], "s", f"p{tail[1]:.0f}, 10 samples beyond")
        return task_s, extra


class ServeBatch(_Serve):
    name = "serve_batch"
    task_unit = "batch round: one predict --data request per model"

    def prepare(self):
        super().prepare()
        self.rows = self.resample(BATCH_ROWS)
        self.rows_path = self.workdir / "rows.csv"
        self.rows_path.write_text("".join(_row_text(r) + "\n" for r in self.rows),
                                  encoding="utf-8")
        self.expected = {a: m.predict_batch(self.rows) for a, m in self.models.items()}

    @staticmethod
    def digest(labels) -> dict:
        text = "".join(str(int(v)) for v in labels)
        return {"rows": len(labels), "positive": text.count("1"),
                "sha256": hashlib.sha256(text.encode()).hexdigest()}

    def check(self, algo, text) -> list[str]:
        lines = text.split()
        where = f"serve_batch.{algo}"
        if not lines or lines[0] != "label":
            return [f"{where}: output does not start with a label header"]
        try:
            labels = np.array([int(v) for v in lines[1:]])
        except ValueError:
            return [f"{where}: non-integer label in the output"]
        found = []
        if not np.array_equal(labels, self.expected[algo]):
            found.append(f"{where}: CLI labels differ from predict_batch")
        if self.seed == DEFAULT_SEED:
            found += checks.compare(self.digest(labels), self.reference[algo], f"{where}.reference")
        return found

    def round(self, cold):
        watch, rss, found = metrics.Stopwatch(), [], []
        for algo in ALGORITHMS:
            peak, problems, text = self.request(
                ["--model", str(self.model_path(algo)), "--data", str(self.rows_path),
                 "--format", "csv"], cold, watch, algo)
            rss.append(peak)
            found += problems or self.check(algo, text)
        return watch, (max(rss) if cold else None), found

    def warmup(self):
        return self.round(cold=True)[2]

    def task(self, i, cold):
        return self.round(cold)

    def summarize(self, samples):
        task_s = metrics.median([s[0] for s in samples])
        extra = {"batch_round_s": (task_s, "s")}
        for algo in ALGORITHMS:
            extra[f"score_rows_per_s.{algo}"] = (
                BATCH_ROWS / metrics.median([s[1][algo] for s in samples]), "rows/s")
        return task_s, extra


WORKLOADS = {w.name: w for w in (PaperPipeline, SvmTune, Serve, ServeBatch)}
