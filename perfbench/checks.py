"""Output checks: comparison against recorded reference outputs, and
invariants that hold at every seed. Each function returns a list of problem
strings; an empty list means the output passed."""
from __future__ import annotations

import math

import numpy as np

FLOAT_TOL = 1e-9


def compare(got, want, where="") -> list[str]:
    """Discrete fields must match exactly, floats to FLOAT_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [p for k in want for p in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if abs(got - want) <= FLOAT_TOL else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def cv_summary(cv) -> dict:
    return {"mean_accuracy": cv.mean_accuracy,
            "pooled": cv.pooled.matrix.to_dict(),
            "folds": [r.matrix.to_dict() for r in cv.per_fold]}


def tune_summary(tr) -> dict:
    return {"best": tr.best.to_dict(),
            "candidates": [[p.to_dict(), acc] for p, acc in tr.per_candidate],
            "cv": cv_summary(tr.best_cv)}


def _ratio(num, den):
    return num / den if den > 0 else None


def report_problems(rep, where) -> list[str]:
    """The four metrics recounted from the confusion matrix."""
    m = rep.matrix
    want = {"accuracy": _ratio(m.tp + m.tn, m.total), "recall": _ratio(m.tp, m.tp + m.fn),
            "specificity": _ratio(m.tn, m.tn + m.fp), "precision": _ratio(m.tp, m.tp + m.fp)}
    out = []
    for name, value in want.items():
        got = getattr(rep, name)
        if (got is None) != (value is None) or (value is not None and abs(got - value) > 1e-12):
            out.append(f"{where}.{name}: {got!r} does not recount to {value!r}")
    return out


def cv_problems(cv, n_rows, where) -> list[str]:
    out = []
    mats = [r.matrix for r in cv.per_fold]
    if sum(m.total for m in mats) != n_rows or cv.pooled.matrix.total != n_rows:
        out.append(f"{where}: confusion totals {[m.total for m in mats]} / "
                   f"{cv.pooled.matrix.total} do not cover {n_rows} rows")
    summed = {k: sum(m.to_dict()[k] for m in mats) for k in ("tp", "fp", "tn", "fn")}
    if summed != cv.pooled.matrix.to_dict():
        out.append(f"{where}: pooled matrix is not the sum of the folds")
    for i, rep in enumerate(cv.per_fold):
        out += report_problems(rep, f"{where}.fold{i}")
    out += report_problems(cv.pooled, f"{where}.pooled")
    mean = float(np.mean([r.accuracy for r in cv.per_fold]))
    if abs(mean - cv.mean_accuracy) > 1e-12:
        out.append(f"{where}: mean accuracy {cv.mean_accuracy!r} != {mean!r}")
    return out


def alpha_from_model(X, y_pm, model):
    """Per-row dual variables of an SVM fitted on (X, y_pm), read back from its
    support vectors, which are the training rows with alpha > 0 in row order.
    Returns the alphas and how many support vectors matched a training row."""
    alpha = np.zeros(len(y_pm))
    j = 0
    for i in range(len(y_pm)):
        if j < len(model.dual_coef) and np.sign(model.dual_coef[j]) == y_pm[i] \
                and np.array_equal(X[i], model.support_vectors[j]):
            alpha[i] = abs(model.dual_coef[j])
            j += 1
    return alpha, j


def dual_problems(fitted, X, y, where) -> list[str]:
    """0 <= alpha <= C and sum(alpha * y) = 0 for a model fitted on (X, y),
    with X already in the model's (scaled) input space."""
    model = fitted.model
    y_pm = np.where(y == 1, 1.0, -1.0)
    alpha, matched = alpha_from_model(X, y_pm, model)
    out = []
    if matched != len(model.dual_coef):
        out.append(f"{where}: {len(model.dual_coef) - matched} support vectors are not "
                   "training rows with their own label")
    C = model.params.C
    if np.any(alpha < 0) or np.any(alpha > C * (1 + 1e-12)):
        out.append(f"{where}: alpha outside [0, {C}]")
    balance = float(np.sum(model.dual_coef))
    if abs(balance) > 1e-9 * max(1.0, C * len(y)):
        out.append(f"{where}: sum(alpha * y) = {balance!r}")
    return out


def tune_problems(tr, ds, where) -> list[str]:
    out = cv_problems(tr.best_cv, ds.n_rows, where)
    accs = [acc for _, acc in tr.per_candidate]
    if tr.best != tr.per_candidate[int(np.argmax(accs))][0]:
        out.append(f"{where}: best {tr.best} is not the first highest-accuracy candidate")
    if tr.best.algorithm == "svm":
        fitted = tr.final_model
        X = fitted.scaling.apply(ds.X) if fitted.scaling is not None else ds.X
        out += dual_problems(fitted, X, ds.y, f"{where}.final_model")
    return out


def ranking_problems(ranked, names, where) -> list[str]:
    scores = [e.score for e in ranked.entries]
    out = []
    if sorted(ranked.names()) != sorted(names):
        out.append(f"{where}: ranks {ranked.names()} instead of each feature once")
    if any(a < b for a, b in zip(scores, scores[1:])) or any(not math.isfinite(s) for s in scores):
        out.append(f"{where}: scores not finite and descending")
    return out


def posterior_problems(post, where) -> list[str]:
    post = np.asarray(post, dtype=np.float64)
    if post.shape != (2,) or np.any(post < 0) or abs(float(post.sum()) - 1.0) > FLOAT_TOL:
        return [f"{where}: posterior {post.tolist()} is not a distribution"]
    return []
