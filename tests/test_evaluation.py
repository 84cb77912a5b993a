from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml import classifiers
from cadml.classifiers import lockstep
from cadml.classifiers import KNNParams, NBParams, SVMParams, TrainingSet, svm_fit
from cadml.errors import DataError, EmptyMatrix, LengthMismatch, TooFewPerClass
from cadml.evaluation import (
    ConfusionMatrix,
    confusion,
    cross_validate,
    cross_validate_candidates,
    metrics,
    stratified_folds,
)
from cadml.tuning import default_grids, grid_search

from conftest import make_dataset


def test_folds_partition_everything():
    y = np.array([0] * 16 + [1] * 13)
    fa = stratified_folds(y, 5, seed=7)
    assert set(fa.fold_of_row) == set(range(5))
    sizes = [len(fa.test_indices(f)) for f in range(5)]
    assert sum(sizes) == 29
    assert max(sizes) - min(sizes) <= 1
    for f in range(5):
        test = set(fa.test_indices(f))
        train = set(fa.train_indices(f))
        assert test | train == set(range(29))
        assert not test & train


def test_folds_stratified_per_class():
    y = np.array([0] * 20 + [1] * 10)
    fa = stratified_folds(y, 5, seed=0)
    for f in range(5):
        test = fa.test_indices(f)
        assert np.sum(y[test] == 0) == 4
        assert np.sum(y[test] == 1) == 2


def test_folds_deterministic_and_seed_sensitive():
    y = np.array([0, 1] * 30)
    a = stratified_folds(y, 10, seed=2018)
    b = stratified_folds(y, 10, seed=2018)
    c = stratified_folds(y, 10, seed=2019)
    assert np.array_equal(a.fold_of_row, b.fold_of_row)
    assert not np.array_equal(a.fold_of_row, c.fold_of_row)


def test_folds_validation():
    with pytest.raises(ValueError):
        stratified_folds(np.array([0, 1, 0, 1]), 1, seed=0)
    with pytest.raises(TooFewPerClass):
        stratified_folds(np.array([0] * 10 + [1] * 2), 3, seed=0)


def test_cleveland_fold_sizes(cleveland):
    fa = stratified_folds(cleveland.y, 10, seed=2018)
    sizes = sorted(len(fa.test_indices(f)) for f in range(10))
    assert sizes == [29, 29, 29, 30, 30, 30, 30, 30, 30, 30]


def test_confusion_hand_count():
    predicted = [1, 1, 1, 1, 0, 0]
    actual = [1, 1, 1, 0, 0, 1]
    cm = confusion(predicted, actual)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 1, 1, 1)
    rep = metrics(cm)
    assert rep.accuracy == 4 / 6
    assert rep.recall == 3 / 4
    assert rep.specificity == 1 / 2
    assert rep.precision == 3 / 4


def test_confusion_counts_no_pair_outside_0_1():
    # a 2 in either input counts in no cell, though 2 * actual + predicted of
    # (predicted 2, actual 0) and (predicted 0, actual 1) are both 2
    cm = confusion([0, 1, 2, 1, 0], [0, 2, 0, 1, 1])
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 0, 1, 1)


def test_confusion_shape_mismatch():
    with pytest.raises(LengthMismatch):
        confusion([0, 1], [0, 1, 1])


def test_metrics_undefined_markers():
    rep = metrics(ConfusionMatrix(tp=0, fp=0, tn=4, fn=0))
    assert rep.precision is None
    assert rep.recall is None
    assert rep.specificity == 1.0
    assert rep.accuracy == 1.0
    rep = metrics(ConfusionMatrix(tp=0, fp=0, tn=0, fn=3))
    assert rep.specificity is None


def test_metrics_empty_matrix():
    with pytest.raises(EmptyMatrix):
        metrics(ConfusionMatrix(0, 0, 0, 0))


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                min_size=1, max_size=60))
@settings(max_examples=100)
def test_metrics_against_recount(pairs):
    predicted = [p for p, _ in pairs]
    actual = [a for _, a in pairs]
    cm = confusion(predicted, actual)
    # plain-loop recount, no numpy
    tp = sum(1 for p, a in pairs if p == 1 and a == 1)
    fp = sum(1 for p, a in pairs if p == 1 and a == 0)
    tn = sum(1 for p, a in pairs if p == 0 and a == 0)
    fn = sum(1 for p, a in pairs if p == 0 and a == 1)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
    assert cm.total == len(pairs)
    rep = metrics(cm)
    for value in (rep.accuracy, rep.recall, rep.specificity, rep.precision):
        assert value is None or 0.0 <= value <= 1.0


def test_cross_validate_perfectly_separable(tiny_separable):
    result = cross_validate(tiny_separable, KNNParams(k=3), 4, seed=0)
    assert result.mean_accuracy == 1.0
    assert result.pooled.accuracy == 1.0
    assert result.pooled.matrix.total == tiny_separable.n_rows


def test_cross_validate_pools_all_rows(cleveland7):
    result = cross_validate(cleveland7, NBParams(), 10, seed=2018)
    assert result.pooled.matrix.total == 297
    assert len(result.per_fold) == 10
    assert 0.0 <= result.mean_accuracy <= 1.0
    # unweighted mean of the per-fold accuracies
    assert abs(result.mean_accuracy
               - np.mean([r.accuracy for r in result.per_fold])) < 1e-15


def test_cross_validate_deterministic(tiny_separable):
    a = cross_validate(tiny_separable, NBParams(), 4, seed=5)
    b = cross_validate(tiny_separable, NBParams(), 4, seed=5)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("width, budget", [("7", 6 << 20), ("13", 6 << 20),
                                           ("7", 3 << 20), ("13", 3 << 20)],
                         ids=["7", "13", "7-3MB", "13-3MB"])
def test_shared_gram_workspace_leaves_every_fit_exact(width, budget, cleveland, cleveland7,
                                                      monkeypatch):
    """A search maps one Gram workspace, and each sigma overwrites the
    matrices the one before left in it; under a 3 MB budget the folds go in
    two groups of 5, which share it too. With two sigmas x two C, every fold
    model still equals svm_fit's own solve by smo, and every candidate's CV
    equals its CV alone."""
    monkeypatch.setattr(lockstep, "_GRAM_STACK_BYTES", budget)
    view = {"7": cleveland7, "13": cleveland}[width]
    grid = [SVMParams(C=C, sigma=sigma) for sigma in (0.1268408, 0.05) for C in (0.25, 1.0)]
    fits = []

    def recording_fit(ds, params, solved=None):
        model = svm_fit(ds, params, solved)
        fits.append((ds, params, solved is not None, model))
        return model

    folds = stratified_folds(view.y, 10, 2018)
    monkeypatch.setattr(classifiers, "svm_fit", recording_fit)
    results = cross_validate_candidates(view, grid, folds, scaling=True)
    monkeypatch.undo()
    assert len(fits) == 40 and all(in_lockstep for _, _, in_lockstep, _ in fits)
    for ds, params, _, got in fits:
        want = svm_fit(ds, params)
        assert np.array_equal(got.support_vectors, want.support_vectors)
        assert np.array_equal(got.dual_coef, want.dual_coef)
        assert got.bias == want.bias
        assert got.dual_objective == want.dual_objective
    for params, result in zip(grid, results):
        alone = cross_validate(view, params, 10, 2018, scaling=True)
        assert result.to_dict() == alone.to_dict()


@pytest.mark.parametrize("case", ["grid-7", "grid-13", "cv-11", "cv-3"])
def test_cleveland_folds_go_in_one_lockstep_batch(case, cleveland, cleveland7, monkeypatch):
    """The ten training folds of the Cleveland table fit one Gram stack, so
    the default SVM grid search solves all 30 fold problems in one lockstep
    batch, on the 7-feature view and on all 13 features, and every fold fit
    takes its solve from it. An 11-fold cv splits its folds 10 and 1, and
    the eleventh fold's lone problem is solved by its fit. The workspace
    holds one stack of as many folds as a group takes, and no more than
    there are: 3 at 3 folds. A batch is recorded as (stacked folds,
    problems)."""
    batches, solved_by_fit, mapped = [], [], []
    solve, fit, workspace = lockstep.smo_lockstep, classifiers.svm_fit, lockstep.gram_workspace

    def recording_solve(K, y, C, fold):
        batches.append((len(K), len(fold)))
        return solve(K, y, C, fold)

    def recording_fit(ds, params, solved=None):
        solved_by_fit.append(solved is None)
        return fit(ds, params, solved)

    def recording_workspace(nbytes):
        mapped.append(nbytes)
        return workspace(nbytes)

    monkeypatch.setattr(lockstep, "smo_lockstep", recording_solve)
    monkeypatch.setattr(classifiers, "svm_fit", recording_fit)
    monkeypatch.setattr(lockstep, "gram_workspace", recording_workspace)
    if case == "cv-11":
        cross_validate(cleveland7, SVMParams(), 11, 2018, scaling=True)
        assert batches == [(10, 10)]
        assert solved_by_fit == [False] * 10 + [True]
        assert mapped == [8 * 10 * 270 * 270]
    elif case == "cv-3":
        cross_validate(cleveland7, SVMParams(), 3, 2018, scaling=True)
        assert batches == [(3, 3)]
        assert solved_by_fit == [False] * 3
        assert mapped == [8 * 3 * 198 * 198]
    else:
        view = {"7": cleveland7, "13": cleveland}[case.split("-")[1]]
        grid_search(view, default_grids()["svm"], 10, 2018)
        assert batches == [(10, 30)]
        # the 30 fold fits, then the winner's refit on all rows
        assert solved_by_fit == [False] * 30 + [True]
        assert mapped == [8 * 10 * 268 * 268]


def test_a_fold_that_fails_after_fold_0_fails_the_candidates_left(cleveland7):
    """Row 9, the first held-out row of fold 0, gets a MaxHeart of 1e155:
    fold 0 z-scores and scores, and from fold 1 on z-scoring overflows. A
    candidate that failed on fold 0 keeps its own error (k = 269 of 267
    exemplars), and every other gets the overflow."""
    folds = stratified_folds(cleveland7.y, 10, 2018)
    assert folds.test_indices(0)[0] == 9
    X = cleveland7.X.copy()
    X[9, cleveland7.feature_names.index("MaxHeart")] = 1e155
    view = replace(cleveland7, X=X)
    TrainingSet(view.subset_rows(folds.train_indices(0)), scaling=True)
    with pytest.raises(DataError):
        TrainingSet(view.subset_rows(folds.train_indices(1)), scaling=True)
    overflow = "DataError('a feature value is too large (overflow encountered in square)')"
    knn = cross_validate_candidates(view, [KNNParams(k=k) for k in (5, 269, 7)], folds, True)
    assert [repr(r) for r in knn] == [overflow, "TooFewRows('k=269 exceeds 267 exemplars')",
                                      overflow]
    svm = cross_validate_candidates(view, [SVMParams(C=0.25), SVMParams(C=1.0)], folds, True)
    assert [repr(r) for r in svm] == [overflow, overflow]
