"""Stratified k-fold cross-validation and the four confusion-matrix metrics.

Class 1 (disease present) is the positive class throughout. Fold assignment
shuffles each class with a counter-based Philox generator seeded from the run
seed plus the class label, then deals rows round-robin starting where the
previous class left off, so fold sizes and per-class counts stay balanced and
identical inputs and seed always give the identical partition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import HyperParams, fit_model
from .dataset import Dataset
from .errors import EmptyMatrix, LengthMismatch, TooFewPerClass


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
            raise TooFewPerClass(cls, len(idx), k)
        idx = idx.copy()
        rng = np.random.Generator(np.random.Philox(seed + cls))
        rng.shuffle(idx)
        for pos, row in enumerate(idx):
            fold_of_row[row] = (offset + pos) % k
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
        raise LengthMismatch(actual.shape, predicted.shape)
    return ConfusionMatrix(
        tp=int(np.sum((predicted == 1) & (actual == 1))),
        fp=int(np.sum((predicted == 1) & (actual == 0))),
        tn=int(np.sum((predicted == 0) & (actual == 0))),
        fn=int(np.sum((predicted == 0) & (actual == 1))),
    )


@dataclass(frozen=True)
class MetricsReport:
    """The four metrics; a zero-denominator metric is None, rendered "n/a"."""

    accuracy: float | None
    recall: float | None
    specificity: float | None
    precision: float | None
    matrix: ConfusionMatrix

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "recall": self.recall,
            "specificity": self.specificity,
            "precision": self.precision,
            "matrix": self.matrix.to_dict(),
        }


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


def cross_validate(ds: Dataset, params: HyperParams, k: int, seed: int,
                   scaling: bool = False, folds: FoldAssignment | None = None) -> CVResult:
    """Leakage-free k-fold CV: scaling stats and the model are fit on the
    k-1 training folds only, then applied to the held-out fold."""
    if folds is None:
        folds = stratified_folds(ds.y, k, seed)
    per_fold = []
    pooled = ConfusionMatrix(0, 0, 0, 0)
    for f in range(folds.k):
        train = ds.subset_rows(folds.train_indices(f))
        test_idx = folds.test_indices(f)
        fitted = fit_model(train, params, scaling=scaling)
        predicted = fitted.predict_batch(ds.X[test_idx])
        cm = confusion(predicted, ds.y[test_idx])
        per_fold.append(metrics(cm))
        pooled = pooled + cm
    mean_accuracy = float(np.mean([r.accuracy for r in per_fold]))
    return CVResult(per_fold=tuple(per_fold), pooled=metrics(pooled),
                    mean_accuracy=mean_accuracy, folds=folds)
