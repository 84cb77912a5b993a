import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml.classifiers import KNNParams, NBParams
from cadml.errors import EmptyMatrix, LengthMismatch, TooFewPerClass
from cadml.evaluation import (
    ConfusionMatrix,
    confusion,
    cross_validate,
    metrics,
    stratified_folds,
)

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
