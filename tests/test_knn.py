import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml.classifiers import KNNParams, knn_fit
from cadml.classifiers.knn import KNNModel
from cadml.errors import TooFewRows

from conftest import make_dataset


def oracle_predict(X, y, k, q):
    """Independent exhaustive-scan reimplementation of the prediction rule."""
    d = [float(np.sqrt(np.sum((np.asarray(row) - q) ** 2))) for row in X]
    order = sorted(range(len(y)), key=lambda i: (d[i], i))[:k]
    votes = {0: 0, 1: 0}
    sums = {0: 0.0, 1: 0.0}
    for i in order:
        votes[y[i]] += 1
        sums[y[i]] += d[i]
    if votes[0] != votes[1]:
        return 0 if votes[0] > votes[1] else 1
    return 0 if sums[0] <= sums[1] else 1


def test_simple_majority():
    ds = make_dataset([[0.0], [0.1], [0.2], [5.0], [5.1]], [0, 0, 0, 1, 1])
    model = knn_fit(ds, KNNParams(k=3))
    assert model.predict(np.array([0.05])) == 0
    assert model.predict(np.array([5.05])) == 1


def test_matches_oracle_random():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, 40)
    for k in (1, 3, 5, 9):
        model = KNNModel(X, y, k)
        for _ in range(200):
            q = rng.normal(size=3) * 2
            assert model.predict(q) == oracle_predict(X, y, k, q)


def test_matches_oracle_with_duplicate_exemplars():
    # duplicated points force exact distance ties; index order must decide
    rng = np.random.default_rng(21)
    base = rng.integers(0, 3, size=(10, 2)).astype(float)
    X = np.vstack([base, base])  # every point duplicated
    y = np.array([0] * 10 + [1] * 10)
    for k in (1, 3, 5):
        model = KNNModel(X, y, k)
        for _ in range(100):
            q = rng.integers(0, 3, size=2).astype(float)
            assert model.predict(q) == oracle_predict(X, y, k, q)


def test_vote_tie_breaks_by_summed_distance():
    # k=2: one neighbor per class, class 1 closer -> class 1 wins the tie
    model = KNNModel(np.array([[0.0], [3.0]]), np.array([0, 1]), 2)
    assert model.predict(np.array([2.0])) == 1
    assert model.predict(np.array([1.0])) == 0
    assert model.predict(np.array([1.5])) == 0  # equal sums -> class 0


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=50)
def test_translation_invariance(dx, dy):
    rng = np.random.default_rng(33)
    X = rng.normal(size=(20, 2))
    y = rng.integers(0, 2, 20)
    q = rng.normal(size=2)
    shift = np.array([dx, dy])
    a = KNNModel(X, y, 3).predict(q)
    b = KNNModel(X + shift, y, 3).predict(q + shift)
    assert a == b


def test_k_validation():
    with pytest.raises(ValueError):
        KNNParams(k=4)
    with pytest.raises(ValueError):
        KNNParams(k=0)
    with pytest.raises(TooFewRows):
        KNNModel(np.zeros((2, 1)), np.array([0, 1]), 3)


def test_predict_batch(tiny_separable):
    model = knn_fit(tiny_separable, KNNParams(k=5))
    preds = model.predict_batch(tiny_separable.X)
    assert np.array_equal(preds, tiny_separable.y)


def test_serialization_roundtrip():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(15, 2))
    y = rng.integers(0, 2, 15)
    model = KNNModel(X, y, 5)
    clone = KNNModel.from_dict(model.to_dict(), None)
    q = rng.normal(size=(20, 2))
    assert np.array_equal(clone.predict_batch(q), model.predict_batch(q))
