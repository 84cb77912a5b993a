"""Span recording around cadml's public functions, from outside the package.

`instrument(recorder)` replaces each listed public function or method with a
wrapper that records a span (name, start, end, parent span, run id) and, for
some calls, attributes read off the arguments or the result. Functions are
replaced in every loaded `cadml` module that holds them, because modules
import each other's functions by name. Nothing inside `src/` changes; the
originals are put back when the context ends.

Spans stay in memory until `Recorder.dump` writes them out. `layer_metrics`
derives the per-layer metrics of one task from its spans.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import checks

# span fields
ID, PARENT, NAME, T0, T1, RUN, ATTRS = range(7)
# marks a call too frequent for a span: it is only counted
COUNT = "count"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (run id, name) -> calls, for hot calls
        self.run_id = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                time.perf_counter(), None, self.run_id, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def close(self, span: list) -> None:
        span[T1] = time.perf_counter()
        self._stack.pop()

    def by_run(self) -> dict:
        runs = defaultdict(list)
        for s in self.spans:
            runs[s[RUN]].append(s)
        return runs

    def dump(self, path) -> None:
        fields = ("id", "parent", "name", "start", "end", "run")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = dict(zip(fields, s[:ATTRS]))
                if s[ATTRS]:
                    rec["attrs"] = _svm_diagnostics(s[ATTRS])
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _span_wrapper(rec, fn, name, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name(args, kwargs) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            span[ATTRS] = after(args, kwargs, out)
        return out
    return wrapper


def _count_wrapper(rec, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[(rec.run_id, name)] += 1
        return fn(*args, **kwargs)
    return wrapper


def _raw_rows(args, kwargs, out):
    return {"rows_in": len(args[0].cells), "rows_out": out.n_rows}


def _saved_bytes(args, kwargs, out):
    return {"algorithm": args[0].algorithm, "bytes": os.path.getsize(args[1])}


def _rows(args, kwargs, out):
    return {"rows": int(np.shape(args[1])[0])}


def _one_row(args, kwargs, out):
    return {"rows": 1}


def _expansions(args, kwargs, out):
    return {"expansions": out.expansions}


def _candidates(args, kwargs, out):
    return {"ok": len(out.per_candidate), "candidates": len(args[1].candidates)}


def _svm_fit(args, kwargs, out):
    # the KKT check is deferred to _svm_diagnostics so that it runs outside
    # every span, the enclosing fit_model and cross_validate spans included
    return {"passes": len(out.objective_trace), "converged": out.converged,
            "support_vectors": len(out.dual_coef), "fit": (args[0], out)}


def _svm_diagnostics(attrs) -> dict:
    """Largest KKT residual of a fit, on a Gram matrix recomputed from its
    training rows with the public kkt_residuals."""
    from cadml.classifiers import kkt_residuals
    from cadml.classifiers.svm import rbf_gram
    if "fit" in attrs:
        ds, model = attrs.pop("fit")
        y = np.where(ds.y == 1, 1.0, -1.0)
        alpha, attrs["matched"] = checks.alpha_from_model(ds.X, y, model)
        gram = getattr(rbf_gram, "__wrapped__", rbf_gram)(ds.X, ds.X, model.params.sigma)
        attrs["kkt_max"] = float(np.max(kkt_residuals(gram, y, alpha, model.bias,
                                                      model.params.C)))
    return attrs


def _targets():
    """(owner, attribute, span name, attrs hook or COUNT for a bare counter)."""
    from cadml import classifiers, cli, dataset, evaluation, feature_selection, tuning
    from cadml.classifiers import naive_bayes, svm
    fitted = classifiers.FittedModel

    span_of_model = {classifiers.NBModel: "nb.predict", classifiers.KNNModel: "knn.predict",
                     classifiers.SVMModel: "svm.predict"}

    def predict_name(args, kwargs):
        return span_of_model[type(args[0].model)]

    return [
        (dataset, "load_dataset", "dataset.load_dataset", None),
        (dataset, "drop_incomplete", "dataset.drop_incomplete", _raw_rows),
        (dataset, "select_columns", "dataset.select_columns", None),
        (dataset, "fit_standardization", "dataset.standardize", None),
        (dataset, "standardize", "dataset.standardize", None),
        (feature_selection, "rank_features",
         lambda a, k: f"feature_selection.rank.{a[1] if len(a) > 1 else k['evaluator']}", None),
        (feature_selection, "discretize_mdl", "feature_selection.discretize_mdl", None),
        (feature_selection, "best_first_subset", "feature_selection.best_first_subset",
         _expansions),
        (evaluation, "cross_validate", "evaluation.cross_validate", None),
        (evaluation, "stratified_folds", "evaluation.stratified_folds", None),
        (classifiers, "fit_model", "classifiers.fit_model", None),
        (classifiers, "save_model", "classifiers.save_model", _saved_bytes),
        (classifiers, "load_model", "classifiers.load_model", None),
        (fitted, "predict", predict_name, _one_row),
        (fitted, "predict_batch", predict_name, _rows),
        (fitted, "posterior", predict_name, None),
        (naive_bayes, "nb_fit", "nb.fit", None),
        (naive_bayes.NBModel, "log_joint", "nb.log_joint", COUNT),
        (classifiers, "knn_fit", "knn.fit", None),
        (svm, "svm_fit", "svm.fit", _svm_fit),
        (svm, "rbf_gram", "svm.rbf_gram", None),
        (tuning, "grid_search", "tuning.grid_search", _candidates),
        (tuning, "compare_models", "tuning.compare_models", None),
        (cli, "main", "cli.main", None),
    ]


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Wrap the public entry points of every cadml layer for the duration."""
    targets = _targets()  # imports every module that binds a target
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "cadml" or name.startswith("cadml."))]
    undo = []
    try:
        for owner, attr, name, after in targets:
            original = getattr(owner, attr)
            if after == COUNT:
                wrapper = _count_wrapper(rec, original, name)
            else:
                wrapper = _span_wrapper(rec, original, name, after)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield rec
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def _self_and_children(spans):
    child_time = defaultdict(float)
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        if s[PARENT] in by_id:
            child_time[s[PARENT]] += s[T1] - s[T0]
    return by_id, child_time


def layer_metrics(rec: Recorder, runs: dict, run_id, setup_id="setup"):
    """Per-layer metrics of one traced task, and the problems its spans show.

    `runs` is `rec.by_run()`. Set-up metrics come from the set-up spans,
    everything else from the task's own spans."""
    spans = runs[run_id]
    by_id, child_time = _self_and_children(spans)

    def named(name, parent=None):
        out = [s for s in spans if s[NAME] == name]
        if parent is not None:
            out = [s for s in out if s[PARENT] in by_id and by_id[s[PARENT]][NAME] == parent]
        return out

    def outermost(name):
        return [s for s in named(name)
                if not (s[PARENT] in by_id and by_id[s[PARENT]][NAME] == name)]

    def total(name):
        return sum(s[T1] - s[T0] for s in outermost(name))

    def self_time(name):
        return sum(s[T1] - s[T0] - child_time[s[ID]] for s in named(name))

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in outermost(name) if s[ATTRS])

    setup = runs[setup_id]
    drops = [s[ATTRS] for s in setup if s[NAME] == "dataset.drop_incomplete"]
    saves = [s for s in setup if s[NAME] == "classifiers.save_model"]
    fits = [_svm_diagnostics(s[ATTRS]) for s in named("svm.fit")]
    grids = [s[ATTRS] for s in named("tuning.grid_search")]
    cvs = named("evaluation.cross_validate")
    out = {
        "dataset.load_s": sum(s[T1] - s[T0] for s in setup if s[NAME] == "dataset.load_dataset"),
        "dataset.rows_in": sum(d["rows_in"] for d in drops),
        "dataset.rows_dropped": sum(d["rows_in"] - d["rows_out"] for d in drops),
        "dataset.select_columns_calls": len(named("dataset.select_columns")),
        "dataset.standardize_s": total("dataset.standardize"),
        "feature_selection.rank_info_gain_s": total("feature_selection.rank.info_gain"),
        "feature_selection.rank_correlation_s": total("feature_selection.rank.correlation"),
        "feature_selection.mdl_s": total("feature_selection.discretize_mdl"),
        "feature_selection.wrapper_s": total("feature_selection.best_first_subset"),
        "feature_selection.wrapper_self_s": self_time("feature_selection.best_first_subset"),
        "feature_selection.wrapper_expansions":
            attr_sum("feature_selection.best_first_subset", "expansions"),
        "feature_selection.wrapper_subsets_scored":
            len(named("evaluation.cross_validate", parent="feature_selection.best_first_subset")),
        "evaluation.cv_calls": len(cvs),
        "evaluation.cv_self_s": self_time("evaluation.cross_validate"),
        "evaluation.fold_fits": len(named("classifiers.fit_model", parent="evaluation.cross_validate")),
        "evaluation.folds_s": sum(child_time[s[ID]] for s in cvs),
        "classifiers.fit_model_calls": len(named("classifiers.fit_model")),
        "classifiers.fit_model_self_s": self_time("classifiers.fit_model"),
        "classifiers.load_s": total("classifiers.load_model"),
        "classifiers.save_s": sum(s[T1] - s[T0] for s in saves),
        "nb.fit_calls": len(named("nb.fit")),
        "nb.fit_s": total("nb.fit"),
        "nb.log_joint_calls": rec.counts[(run_id, "nb.log_joint")],
        "svm.fit_calls": len(fits),
        "svm.fit_s": total("svm.fit"),
        # Gram matrices of fits only; prediction kernels are in <algo>.predict_s
        "svm.gram_s": sum(s[T1] - s[T0] for s in named("svm.rbf_gram", parent="svm.fit")),
        "svm.smo_passes": sum(f["passes"] for f in fits),
        "svm.support_vectors": sum(f["support_vectors"] for f in fits) / len(fits) if fits else 0,
        "svm.converged_ratio": sum(f["converged"] for f in fits) / len(fits) if fits else 0,
        "svm.kkt_max": max((f["kkt_max"] for f in fits), default=0.0),
        "tuning.grid_search_s": total("tuning.grid_search"),
        "tuning.grid_self_s": self_time("tuning.grid_search"),
        "tuning.candidates_ok_ratio": (sum(g["ok"] for g in grids)
                                       / sum(g["candidates"] for g in grids) if grids else 0),
        "tuning.compare_s": total("tuning.compare_models"),
        "cli.command_s": total("cli.main"),
    }
    for algo in ("nb", "knn", "svm"):
        sizes = [s[ATTRS]["bytes"] for s in saves if s[ATTRS]["algorithm"] == algo]
        out[f"classifiers.model_bytes.{algo}"] = sizes[-1] if sizes else 0
        predict_s = total(f"{algo}.predict")
        rows = attr_sum(f"{algo}.predict", "rows")
        out[f"{algo}.predict_rows"] = rows
        out[f"{algo}.predict_s"] = predict_s
        if algo != "svm":
            out[f"{algo}.us_per_row"] = 1e6 * predict_s / rows if rows else 0
    problems = [f"svm fit: {f['support_vectors'] - f['matched']} support vectors are not "
                "training rows" for f in fits if f["matched"] != f["support_vectors"]]
    return out, problems
