"""Feature relevance scoring and wrapper subset search.

Two rankers: information gain (continuous features binned by supervised MDL
discretization, discrete features by their codes) and absolute Pearson
correlation against the 0/1 label. The discretization scores every candidate
cut of a node at once from one running count per class, since the entropy of
each side needs only its class counts, and the MDL test (Fayyad & Irani, IJCAI
1993) reads its class numbers and entropies from the same counts. The label
entropy and each bin's come from one class-count table per feature. The
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


def _entropies(counts):
    """Shannon entropy, in bits, of each column of a (classes, m) count array:
    each class's term added in class order, a zero count adding nothing."""
    p = counts / counts.sum(axis=0)
    return -np.sum(p * np.log2(p, where=counts > 0, out=np.ones(counts.shape)), axis=0)


def _cut_scan(labels, boundaries):
    """Class counts (columns: the node, the m left sides, the m right sides of
    the cuts before each b in boundaries), their entropies, and each cut's gain."""
    n, m = len(labels), len(boundaries)
    running = np.cumsum(labels == np.unique(labels)[:, None], axis=1)
    total, left = running[:, -1:], running[:, boundaries - 1]
    counts = np.concatenate([total, left, total - left], axis=1)
    h = _entropies(counts)
    return counts, h, h[0] - (boundaries / n * h[1:m + 1] + (n - boundaries) / n * h[m + 1:])


def discretize_mdl(values, labels) -> list[float]:
    """Supervised cut points by recursive entropy minimization with the MDL
    stopping criterion. Empty list means a single bin."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.size == 0:
        raise EmptyInput("cannot discretize an empty column")
    order = np.argsort(values, kind="stable")
    return _mdl_recurse(values[order], labels[order])


def _mdl_recurse(values, labels) -> list[float]:
    # values sorted ascending, so the cuts come out in order
    boundaries = np.flatnonzero(np.diff(values) > 0) + 1  # split before index b
    counts, h, gains = _cut_scan(labels, boundaries)
    if boundaries.size == 0 or h[0] == 0.0:
        return []
    best, best_gain = 0, -1.0
    for i, gain in enumerate(gains.tolist()):
        if gain > best_gain + 1e-12:
            best, best_gain = i, gain
    # Fayyad & Irani's MDL test: k, k1 and k2 count the classes in the node and on each side
    n, sides = len(labels), [0, 1 + best, 1 + len(boundaries) + best]
    k, k1, k2 = np.count_nonzero(counts[:, sides], axis=0).tolist()
    h0, h1, h2 = h[sides].tolist()
    delta = math.log2(3.0**k - 2.0) - (k * h0 - k1 * h1 - k2 * h2)
    if not best_gain > (math.log2(n - 1) + delta) / n:
        return []
    b = int(boundaries[best])
    return [*_mdl_recurse(values[:b], labels[:b]), 0.5 * (values[b - 1] + values[b]),
            *_mdl_recurse(values[b:], labels[b:])]


def info_gain(values, labels, kind: str) -> float:
    """H(labels) minus the conditional entropy given the feature's bins, both
    read from one count table: the class totals, then each bin's class counts."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.size == 0:
        raise EmptyInput("information gain of an empty column")
    bins = np.digitize(values, discretize_mdl(values, labels)) if kind == CONTINUOUS else values
    classes, levels = np.unique(labels), np.unique(bins)
    cells = np.searchsorted(classes, labels) * len(levels) + np.searchsorted(levels, bins)
    table = np.bincount(cells, minlength=len(classes) * len(levels)).reshape(len(classes), -1)
    counts = np.concatenate([table.sum(axis=1, keepdims=True), table], axis=1)
    base, *bin_h = _entropies(counts).tolist()
    cond = 0.0
    for size, h in zip(table.sum(axis=0).tolist(), bin_h):
        cond += size / len(labels) * h
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
        s = (info_gain(ds.X[:, j], ds.y, feat.kind) if evaluator == "info_gain"
             else correlation_score(ds.X[:, j], ds.y))
        scores.append(FeatureScore(feature=feat.name, score=s))
    scores.sort(key=lambda fs: -fs.score)  # a stable sort: schema order on ties
    return RankedList(entries=tuple(scores))


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
                      seed: int = 1, stale_limit: int = 5,
                      min_improvement: float = 0.005) -> SubsetSearchResult:
    """Greedy best-first search from the empty set, expanding by single-feature
    addition and deletion; objective is the mean k-fold CV accuracy of naive
    Bayes with the wrapped params on the subset. The fold assignment is
    computed once so every subset is scored on identical splits, and the
    search stops after stale_limit expansions in a row find no better subset.

    The objective does not refit per subset. Every per-feature statistic,
    the variance floor included, depends only on its own column, and the
    priors on no column, so naive Bayes is fit once per fold on all columns
    and each held-out row gets a log prior and, per class, the log-likelihood
    columns of NBModel.log_likelihoods, the block NBModel.log_joint adds up.
    A subset's held-out log-joint is the prior plus its columns, added in
    schema order: the same float operations in the same order as log_joint
    on the subset's columns, so the objective equals cross_validate's
    mean_accuracy on select_columns(ds, subset) exactly.
    The new subsets of an expansion are scored at once: their held-out
    log-joints stack into one (subsets * n, 2) posterior, and one bincount
    over (subset, fold) cells counts every subset's held-out hits. They are
    then numbered and tested against the incumbent in schema order, as when
    they were scored one at a time.

    A candidate only displaces the incumbent best subset when it beats it by
    more than min_improvement; gains below half a percentage point of CV
    accuracy on a dataset this size are partition noise, and counting them
    drags marginal features into the subset.
    """
    if not isinstance(wrapped, NBParams):
        raise ValueError(f"the wrapper scores naive Bayes only, not {wrapped.algorithm!r}")
    if stale_limit < 1:
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
            columns[:, test, c] = model.log_likelihoods(ds.X[test], c)
    fold_sizes = np.bincount(assignment.fold_of_row)

    def objectives(subsets) -> list:
        if not subsets:
            return []
        member = np.array([[name in s for name in names] for s in subsets])
        logs = np.tile(prior, (len(subsets), 1, 1))
        for j in range(len(names)):
            np.add(logs, columns[j], out=logs, where=member[:, j, None, None])
        correct = (score_from_log_joint(logs.reshape(-1, 2)) > 0) == np.tile(ds.y, len(subsets))
        # held-out hits per (subset, fold) cell
        cells = (np.arange(len(subsets))[:, None] * assignment.k + assignment.fold_of_row).ravel()
        hits = np.bincount(cells, weights=correct, minlength=len(subsets) * assignment.k)
        return np.mean(hits.reshape(len(subsets), -1) / fold_sizes, axis=1).tolist()

    start = frozenset()
    # the prior-only classifier predicts the majority class
    best_subset, best_score = start, max(ds.class_counts()) / ds.n_rows
    open_heap = [(-best_score, 0, start)]  # (-score, discovery order, subset)
    discovered = {start}
    stale = expansions = 0
    while open_heap:
        _, _, node = heapq.heappop(open_heap)
        expansions += 1
        improved = False
        children = [child for child in (node ^ {name} for name in names)
                    if child not in discovered]
        first = len(discovered) + 1  # the discovery number of the first child
        discovered.update(children)
        for order, (child, score) in enumerate(zip(children, objectives(children)), first):
            heapq.heappush(open_heap, (-score, order, child))
            if score > best_score + min_improvement:
                best_subset, best_score = child, score
                improved = True
        stale = 0 if improved else stale + 1
        if stale >= stale_limit:
            break
    selected = tuple(n for n in names if n in best_subset)
    return SubsetSearchResult(selected=selected, objective=best_score, expansions=expansions)
