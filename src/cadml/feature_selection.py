"""Feature relevance scoring and wrapper subset search.

Two rankers: information gain (continuous features binned by supervised MDL
discretization, discrete features by their codes) and absolute Pearson
correlation against the 0/1 label. The discretization scores every candidate
cut of a node at once from one running count per class, since the entropy of
each side needs only its class counts (Fayyad & Irani, IJCAI 1993). The
wrapper is a greedy best-first search over feature subsets whose objective is
the mean cross-validated accuracy of naive Bayes, stopping after a fixed
number of consecutive non-improving expansions.

Ties everywhere break by schema order so every result is deterministic.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .classifiers import NBParams, _overflow_is_data_error, nb_fit
from .classifiers.naive_bayes import score_from_log_joint
from .dataset import CONTINUOUS, Dataset
from .errors import EmptyInput
from .evaluation import stratified_folds


def entropy(labels) -> float:
    """Shannon entropy of the label multiset, in bits."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise EmptyInput("entropy of an empty multiset")
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return float(-np.sum(p * np.log2(p)))


def _cut_gains(labels, boundaries, base):
    """Information gain of the cut before index b, for every b in boundaries,
    from one running count per class. The float operations are entropy()'s on
    each side (each class's term subtracted in class order, a class missing
    from a side adding nothing), then base minus the size-weighted sum."""
    n, m = len(labels), len(boundaries)
    sizes = np.concatenate([boundaries, n - boundaries])
    h = np.zeros(2 * m)  # the entropies of the m left sides, then the m right sides
    for c in np.unique(labels):
        running = np.cumsum(labels == c)
        left = running[boundaries - 1]
        counts = np.concatenate([left, running[-1] - left])
        p = counts / sizes
        h -= p * np.log2(p, where=counts > 0, out=np.ones(2 * m))
    return base - (boundaries / n * h[:m] + (n - boundaries) / n * h[m:])


def _mdl_accepts(labels, left, right, gain) -> bool:
    n = len(labels)
    k = len(np.unique(labels))
    k1 = len(np.unique(left))
    k2 = len(np.unique(right))
    delta = math.log2(3.0**k - 2.0) - (k * entropy(labels)
                                       - k1 * entropy(left) - k2 * entropy(right))
    return gain > (math.log2(n - 1) + delta) / n


def discretize_mdl(values, labels) -> list[float]:
    """Supervised cut points by recursive entropy minimization with the MDL
    stopping criterion. Empty list means a single bin."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.size == 0:
        raise EmptyInput("cannot discretize an empty column")
    order = np.argsort(values, kind="stable")
    cuts: list[float] = []
    _mdl_recurse(values[order], labels[order], cuts)
    return sorted(cuts)


def _mdl_recurse(values, labels, cuts) -> None:
    # values sorted ascending
    n = len(values)
    base = entropy(labels)
    if n < 2 or base == 0.0:
        return
    boundaries = np.flatnonzero(np.diff(values) > 0) + 1  # split before index b
    if boundaries.size == 0:
        return
    gains = _cut_gains(labels, boundaries, base)
    best_gain, best_b = -1.0, -1
    for b, gain in zip(boundaries.tolist(), gains.tolist()):
        if gain > best_gain + 1e-12:
            best_gain, best_b = gain, b
    left, right = labels[:best_b], labels[best_b:]
    if not _mdl_accepts(labels, left, right, best_gain):
        return
    cuts.append(0.5 * (values[best_b - 1] + values[best_b]))
    _mdl_recurse(values[:best_b], left, cuts)
    _mdl_recurse(values[best_b:], right, cuts)


def info_gain(values, labels, kind: str) -> float:
    """H(labels) minus the conditional entropy given the feature's bins."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.size == 0:
        raise EmptyInput("information gain of an empty column")
    if kind == CONTINUOUS:
        cuts = discretize_mdl(values, labels)
        bins = np.digitize(values, cuts) if cuts else np.zeros(len(values), dtype=np.int64)
    else:
        bins = values
    base = entropy(labels)
    cond = 0.0
    for b in np.unique(bins):
        part = labels[bins == b]
        cond += part.size / labels.size * entropy(part)
    return max(0.0, base - cond)


def correlation_score(values, labels) -> float:
    """|Pearson r| between the feature column and the 0/1 labels; 0 when
    either column is constant."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if values.size == 0:
        raise EmptyInput("correlation of an empty column")
    if values.size < 2 or np.std(values) == 0.0 or np.std(labels) == 0.0:
        return 0.0
    r = np.corrcoef(values, labels)[0, 1]
    return float(abs(r))


@dataclass(frozen=True)
class FeatureScore:
    feature: str
    score: float


@dataclass(frozen=True)
class RankedList:
    entries: tuple[FeatureScore, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(e.feature for e in self.entries)

    def to_dict(self):
        return {"entries": [{"feature": e.feature, "score": e.score} for e in self.entries]}


EVALUATORS = ("info_gain", "correlation")


@_overflow_is_data_error()
def rank_features(ds: Dataset, evaluator: str) -> RankedList:
    if evaluator not in EVALUATORS:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    scores = []
    for j, feat in enumerate(ds.schema):
        col = ds.X[:, j]
        if evaluator == "info_gain":
            s = info_gain(col, ds.y, feat.kind)
        else:
            s = correlation_score(col, ds.y)
        scores.append((j, FeatureScore(feature=feat.name, score=s)))
    # descending score, schema order on ties
    scores.sort(key=lambda t: (-t[1].score, t[0]))
    return RankedList(entries=tuple(fs for _, fs in scores))


@dataclass(frozen=True)
class SubsetSearchResult:
    selected: tuple[str, ...]
    objective: float
    expansions: int

    def to_dict(self):
        return {"selected": list(self.selected), "objective": self.objective,
                "expansions": self.expansions}


@_overflow_is_data_error()
def best_first_subset(ds: Dataset, wrapped: NBParams = NBParams(), folds: int = 10,
                      seed: int = 1, stale_limit: int | None = 5,
                      min_improvement: float = 0.005) -> SubsetSearchResult:
    """Greedy best-first search from the empty set, expanding by single-feature
    addition and deletion; objective is the mean k-fold CV accuracy of naive
    Bayes with the wrapped params on the subset. The fold assignment is
    computed once so every subset is scored on identical splits.
    stale_limit=None searches until the open list is exhausted.

    The objective does not refit per subset. Every per-feature statistic,
    the variance floor included, depends only on its own column, and the
    priors on no column, so naive Bayes is fit once per fold on all columns
    and each held-out row gets a log prior and one log-likelihood column per
    feature. A subset's held-out log-joint is the prior plus its columns,
    added in schema order: the same float operations in the same order as
    NBModel.log_joint on the subset's columns, so the objective equals
    cross_validate's mean_accuracy on select_columns(ds, subset) exactly.

    A candidate only displaces the incumbent best subset when it beats it by
    more than min_improvement; gains below half a percentage point of CV
    accuracy on a dataset this size are partition noise, and counting them
    drags marginal features into the subset.
    """
    if not isinstance(wrapped, NBParams):
        raise ValueError(f"the wrapper scores naive Bayes only, not {wrapped.algorithm!r}")
    if stale_limit is not None and stale_limit < 1:
        raise ValueError("stale_limit must be >= 1")
    names = ds.feature_names
    assignment = stratified_folds(ds.y, folds, seed)
    # held-out log prior (n, 2) and per-feature log-likelihood columns (d, n, 2)
    prior = np.empty((ds.n_rows, 2))
    columns = np.empty((len(names), ds.n_rows, 2))
    for f in range(assignment.k):
        test = assignment.test_indices(f)
        model = nb_fit(ds.subset_rows(assignment.train_indices(f)), wrapped)
        prior[test] = np.log(model.priors)
        for c in (0, 1):
            for j, stat in enumerate(model.feature_stats[c]):
                columns[j, test, c] = stat.log_likelihood(ds.X[test, j])
    fold_sizes = np.bincount(assignment.fold_of_row)

    def objective(subset: frozenset) -> float:
        logs = prior.copy()
        for j, name in enumerate(names):
            if name in subset:
                logs += columns[j]
        correct = (score_from_log_joint(logs) > 0) == ds.y
        return float(np.mean(np.bincount(assignment.fold_of_row, weights=correct) / fold_sizes))

    start = frozenset()
    # the prior-only classifier predicts the majority class
    best_subset, best_score = start, max(ds.class_counts()) / ds.n_rows
    open_heap = [(-best_score, 0, start)]  # (-score, discovery order, subset)
    discovered = {start}
    counter = 1
    stale = 0
    expansions = 0
    while open_heap:
        _, _, node = heapq.heappop(open_heap)
        expansions += 1
        improved = False
        for name in names:
            child = node | {name} if name not in node else node - {name}
            if child in discovered:
                continue
            discovered.add(child)
            score = objective(child)
            heapq.heappush(open_heap, (-score, counter, child))
            counter += 1
            if score > best_score + min_improvement:
                best_subset, best_score = child, score
                improved = True
        if improved:
            stale = 0
        else:
            stale += 1
            if stale_limit is not None and stale >= stale_limit:
                break
    selected = tuple(n for n in names if n in best_subset)
    return SubsetSearchResult(selected=selected, objective=best_score, expansions=expansions)
