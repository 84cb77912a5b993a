"""Stratified k-fold cross-validation and the four confusion-matrix metrics.

Class 1 (disease present) is the positive class throughout. Fold assignment
shuffles each class with a counter-based Philox generator seeded from the run
seed plus the class label, then deals rows round-robin starting where the
previous class left off, so fold sizes and per-class counts stay balanced and
identical inputs and seed always give the identical partition.

Cross-validation is fold-major: folds go in groups of as many as fit a
6 MB zero-padded Gram stack (all 10 on the 297-row Cleveland table; 10 and
1 at 11 folds; a larger table splits more), each training fold is z-scored
once, the group's SVM problems are solved by lockstep.solve_group in one
Gram workspace per search, and every candidate is fitted on the group's
folds before the next group; cross_validate is its one-candidate case. The
candidates fitted on a fold label its held-out rows together
(TrainingSet.predict_batches), so a k-NN grid ranks them once, at its
largest k that fitted.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .classifiers import HyperParams, TrainingSet
from .classifiers.lockstep import gram_workspace, solve_group
from .dataset import Dataset
from .errors import CadmlError, EmptyMatrix, LengthMismatch, TooFewPerClass

# a fold group's zero-padded Gram stack holds at most this many bytes: all
# 10 folds of 268 rows (5.75 MB), one lockstep batch per sigma, in which a
# default SVM grid search takes about 15 % less time than in two groups of
# 5 (3 MB) and peaks about 3.5 MB higher (2-core host)
_GRAM_STACK_BYTES = 6 << 20


@dataclass(frozen=True)
class FoldAssignment:
    fold_of_row: np.ndarray
    k: int
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row != fold)


def stratified_folds(labels, k: int, seed: int) -> FoldAssignment:
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be >= 2")
    fold_of_row = np.full(len(labels), -1, dtype=np.int64)
    offset = 0
    for cls in (1, 0):  # positive class dealt first
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise TooFewPerClass(label=cls, count=len(idx), k=k)
        rng = np.random.Generator(np.random.Philox(seed + cls))
        rng.shuffle(idx)
        fold_of_row[idx] = (offset + np.arange(len(idx))) % k
        # start the next class where this one left off so fold sizes stay even
        offset = (offset + len(idx)) % k
    return FoldAssignment(fold_of_row=fold_of_row, k=k, seed=seed)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.tp + other.tp, self.fp + other.fp,
                               self.tn + other.tn, self.fn + other.fn)

    def to_dict(self):
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def confusion(predicted, actual) -> ConfusionMatrix:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise LengthMismatch(expected=actual.shape, got=predicted.shape)
    # one count of 2 * actual + predicted: cells tn, fp, fn, tp; a pair with
    # an entry outside {0, 1} counts in none
    binary = ((predicted == 0) | (predicted == 1)) & ((actual == 0) | (actual == 1))
    tn, fp, fn, tp = np.bincount((2 * actual + predicted)[binary].astype(np.intp), minlength=4)
    return ConfusionMatrix(tp=int(tp), fp=int(fp), tn=int(tn), fn=int(fn))


METRIC_NAMES = ("accuracy", "recall", "specificity", "precision")


@dataclass(frozen=True)
class MetricsReport:
    """The four metrics; a zero-denominator metric is None, rendered "n/a"."""

    accuracy: float | None
    recall: float | None
    specificity: float | None
    precision: float | None
    matrix: ConfusionMatrix

    def to_dict(self):
        return {**{m: getattr(self, m) for m in METRIC_NAMES}, "matrix": self.matrix.to_dict()}


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    if cm.total < 1:
        raise EmptyMatrix("confusion matrix has no entries")
    return MetricsReport(
        accuracy=_ratio(cm.tp + cm.tn, cm.total),
        recall=_ratio(cm.tp, cm.tp + cm.fn),
        specificity=_ratio(cm.tn, cm.tn + cm.fp),
        precision=_ratio(cm.tp, cm.tp + cm.fp),
        matrix=cm,
    )


@dataclass(frozen=True)
class CVResult:
    per_fold: tuple[MetricsReport, ...]
    pooled: MetricsReport
    mean_accuracy: float
    folds: FoldAssignment

    def to_dict(self):
        return {
            "per_fold": [r.to_dict() for r in self.per_fold],
            "pooled": self.pooled.to_dict(),
            "mean_accuracy": self.mean_accuracy,
            "k": self.folds.k,
            "seed": self.folds.seed,
        }


def cross_validate_candidates(ds: Dataset, candidates, folds: FoldAssignment,
                              scaling: bool = False) -> list:
    """Leakage-free CV of each candidate on the same folds: scaling stats and
    the models are fit on the k-1 training folds only, then applied to the
    held-out fold. Returns, per candidate, its CVResult or the CadmlError of
    the first fold it failed on; a failed candidate is not fitted again. An
    error is kept without its traceback, whose frames would hold the fold's
    Gram matrices.

    Folds go in groups whose zero-padded Gram stack fits _GRAM_STACK_BYTES;
    a group's SVM problems are solved together (lockstep.solve_group) before
    its models are built fold by fold. A fold's fitted candidates label its
    held-out rows in one TrainingSet.predict_batches call."""
    per_fold = [[] for _ in candidates]
    pooled = [ConfusionMatrix(0, 0, 0, 0)] * len(candidates)
    failed = {}
    n_train = len(ds.y) - int(np.bincount(folds.fold_of_row).min())
    # no more slots than folds, as the workspace is mapped and pre-faulted
    # at this size
    group = min(folds.k, max(1, _GRAM_STACK_BYTES // (8 * n_train * n_train)))
    # mapped at the first lockstep solve, so a search with none maps nothing
    workspace = functools.cache(lambda: gram_workspace(8 * group * n_train * n_train))
    for start in range(0, folds.k, group):
        live = [c for c in range(len(candidates)) if c not in failed]
        if not live:
            break
        trains, error = [], None
        for f in range(start, min(start + group, folds.k)):
            try:
                trains.append(TrainingSet(ds.subset_rows(folds.train_indices(f)), scaling))
            except CadmlError as exc:
                error = exc.with_traceback(None)
                break
        solved = solve_group([t.rows for t in trains], candidates, live, workspace)
        for s, train in enumerate(trains):
            test_idx = folds.test_indices(start + s)
            X_test, y_test = ds.X[test_idx], ds.y[test_idx]
            fits = {}
            for c in live:
                if c in failed:
                    continue
                try:
                    fits[c] = train.fit(candidates[c], solved.get((s, c)))
                except CadmlError as exc:
                    failed[c] = exc.with_traceback(None)
            for c, predicted in zip(fits, train.predict_batches(list(fits.values()), X_test)):
                if isinstance(predicted, CadmlError):
                    failed[c] = predicted.with_traceback(None)
                    continue
                cm = confusion(predicted, y_test)
                per_fold[c].append(metrics(cm))
                pooled[c] = pooled[c] + cm
        del solved  # the group's solutions go before the next group's are made
        if error is not None:
            failed.update(dict.fromkeys([c for c in live if c not in failed], error))
            break
    return [failed[c] if c in failed else
            CVResult(per_fold=tuple(per_fold[c]), pooled=metrics(pooled[c]),
                     mean_accuracy=float(np.mean([r.accuracy for r in per_fold[c]])),
                     folds=folds)
            for c in range(len(candidates))]


def cross_validate(ds: Dataset, params: HyperParams, k: int, seed: int,
                   scaling: bool = False) -> CVResult:
    """cross_validate_candidates of params alone; raises its error."""
    (result,) = cross_validate_candidates(ds, (params,), stratified_folds(ds.y, k, seed), scaling)
    if isinstance(result, CadmlError):
        raise result
    return result
