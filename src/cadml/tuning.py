"""Grid search over the candidate hyperparameter grids and model comparison.

All candidates within one search share a single fold assignment so they are
compared on identical splits; selection goes to the highest mean CV accuracy
with ties broken by grid declaration order. The CV makes one pass over the
folds (evaluation.cross_validate_candidates): each training fold is z-scored
once, lockstep.solve_folds solves every fold's SVM problems, those of a sigma
in lockstep on one Gram stack per group of folds (one group of all ten on
the Cleveland table), and each fold's candidates are then fitted; the
matrices are released before the winner is refit on all rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import (
    ALGORITHMS,
    FittedModel,
    HyperParams,
    KNNParams,
    NBParams,
    SVMParams,
    fit_model,
)
from .dataset import Dataset
from .errors import AllCandidatesFailed, CadmlError, TrainingError
from .evaluation import METRIC_NAMES, CVResult, cross_validate_candidates, stratified_folds


@dataclass(frozen=True)
class Grid:
    algorithm: str
    candidates: tuple[HyperParams, ...]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("grid must be non-empty")
        if any(c.algorithm != self.algorithm for c in self.candidates):
            raise ValueError("all candidates must share the grid's algorithm")


def default_grids() -> dict[str, Grid]:
    """The published tuning grids: three SVM costs at the paper's radial sigma,
    three odd neighbor counts, and the two naive Bayes event models."""
    return {
        "svm": Grid("svm", tuple(SVMParams(C=c) for c in (0.25, 0.5, 1.0))),
        "knn": Grid("knn", tuple(KNNParams(k=k) for k in (5, 7, 9))),
        "nb": Grid("nb", (NBParams(use_kernel_density=True, laplace=0.0, bandwidth_adjust=1.0),
                          NBParams(use_kernel_density=False, laplace=0.0, bandwidth_adjust=1.0))),
    }


def default_scaling(algorithm: str) -> bool:
    # distance/kernel based learners get z-scored continuous inputs
    return algorithm in ("svm", "knn")


@dataclass(frozen=True)
class TuneResult:
    per_candidate: tuple[tuple[HyperParams, float], ...]
    best: HyperParams
    best_cv: CVResult
    final_model: FittedModel

    def to_dict(self):
        return {
            "candidates": [{"params": p.to_dict(), "mean_accuracy": acc}
                           for p, acc in self.per_candidate],
            "best": self.best.to_dict(),
            "cv": self.best_cv.to_dict(),
        }


def grid_search(ds: Dataset, grid: Grid, k: int, seed: int,
                scaling: bool | None = None) -> TuneResult:
    if scaling is None:
        scaling = default_scaling(grid.algorithm)
    per_candidate = []
    results = []
    errors = []
    folds = stratified_folds(ds.y, k, seed)
    outcomes = cross_validate_candidates(ds, grid.candidates, folds, scaling)
    for params, cv in zip(grid.candidates, outcomes):
        if isinstance(cv, TrainingError):
            errors.append((params, cv))
            continue
        if isinstance(cv, CadmlError):
            raise cv  # a data error stops the search, in candidate order
        per_candidate.append((params, cv.mean_accuracy))
        results.append(cv)
    if not per_candidate:
        raise AllCandidatesFailed(f"every candidate failed: {errors}")
    best_idx = int(np.argmax([acc for _, acc in per_candidate]))  # first max wins
    best, _ = per_candidate[best_idx]
    final_model = fit_model(ds, best, scaling=scaling)
    return TuneResult(per_candidate=tuple(per_candidate), best=best,
                      best_cv=results[best_idx], final_model=final_model)


@dataclass(frozen=True)
class ComparisonReport:
    per_algorithm: dict[str, TuneResult]
    best_per_metric: dict[str, str]

    def to_dict(self):
        rows = {}
        for algo, tr in self.per_algorithm.items():
            pooled = tr.best_cv.pooled
            rows[algo] = {
                "best_params": tr.best.to_dict(),
                "mean_accuracy": tr.best_cv.mean_accuracy,
                **{m: getattr(pooled, m) for m in METRIC_NAMES},
            }
        return {"models": rows, "best_per_metric": self.best_per_metric}


def compare_models(ds: Dataset, k: int, seed: int, scaling: bool = True) -> ComparisonReport:
    """Tune all three algorithms on identical folds and compare the winners'
    pooled held-out metrics. Each algorithm gets its default_scaling, or
    none with scaling=False."""
    grids = default_grids()
    per_algorithm = {}
    for algo in ALGORITHMS:
        per_algorithm[algo] = grid_search(ds, grids[algo], k, seed,
                                          scaling=scaling and default_scaling(algo))
    best_per_metric = {}
    for metric in METRIC_NAMES:
        values = {
            algo: getattr(tr.best_cv.pooled, metric)
            for algo, tr in per_algorithm.items()
        }
        defined = {a: v for a, v in values.items() if v is not None}
        best_per_metric[metric] = max(defined, key=lambda a: (defined[a], a)) if defined else "n/a"
    return ComparisonReport(per_algorithm=per_algorithm, best_per_metric=best_per_metric)
