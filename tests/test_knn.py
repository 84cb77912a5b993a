import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml.classifiers import KNNParams, knn_fit
from cadml.classifiers.knn import _CHUNK_ROWS, KNNModel, vote
from cadml.errors import TooFewRows
from cadml.tuning import default_grids, grid_search

from conftest import continuous_schema, labels, make_dataset


def oracle_predict(X, y, k, q):
    """Independent exhaustive-scan reimplementation of the prediction rule."""
    d = [float(np.sqrt(np.sum((np.asarray(row) - q) ** 2))) for row in X]
    order = sorted(range(len(y)), key=lambda i: (d[i], i))[:k]
    votes = {0: 0, 1: 0}
    for i in order:
        votes[y[i]] += 1
    return 0 if votes[0] > votes[1] else 1


def argsort_score(model, Q):
    """The first blocked rule: a stable argsort of each row's distances, so
    equal distances rank by exemplar index, then the votes of the first k."""
    k = model.params.k
    d = np.sqrt(np.sum((Q[:, None, :] - model.X) ** 2, axis=2))
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    return (2 * np.sum(model.y[nearest], axis=1) - k) / k


@pytest.mark.parametrize("queries", ["lattice", "gaussian", "overflowed"])
def test_argmin_selection_matches_stable_argsort(queries):
    """k passes of argmin pick the exemplars a stable sort puts first: on a
    lattice full of distance ties, on Gaussian points, and where squared
    differences overflow to inf, even in every distance of a row. The
    queries fill two blocks of rows and part of a third."""
    rng = np.random.default_rng(17)
    n = 2 * _CHUNK_ROWS + 22
    for width in range(1, 16):
        if queries == "lattice":
            X = rng.integers(0, 3, size=(30, width)).astype(float)
            Q = rng.integers(0, 3, size=(n, width)).astype(float)
        elif queries == "gaussian":
            X, Q = rng.normal(size=(30, width)), rng.normal(size=(n, width)) * 2
        else:
            X, Q = rng.normal(size=(30, width)) * 1e154, rng.normal(size=(n, width)) * 1e155
            Q[::3] = 1e200
        y = rng.integers(0, 2, 30)
        with np.errstate(over="ignore"):
            for k in (1, 3, 5, 7, 9, 15):
                model = KNNModel(X, y, k)
                assert np.array_equal(model.score_batch(Q), argsort_score(model, Q))
            # one ranking at k = 15 serves every smaller odd k, as in a grid search
            ranked = KNNModel(X, y, 15).neighbour_labels(Q)
            for j in range(1, 16, 2):
                assert np.array_equal(vote(ranked[:, :j]), argsort_score(KNNModel(X, y, j), Q))


def test_grid_search_ranks_each_fold_once(monkeypatch, cleveland7):
    """The default k-NN grid (k = 5, 7, 9) ranks each of the 10 folds'
    held-out rows once, not once per candidate, and the refit ranks none."""
    calls, rank = [], KNNModel.neighbour_labels
    monkeypatch.setattr(KNNModel, "neighbour_labels",
                        lambda self, X: calls.append((self.params.k, len(X))) or rank(self, X))
    grid_search(cleveland7, default_grids()["knn"], 10, 2018)
    assert [k for k, _ in calls] == [9] * 10
    assert sum(n for _, n in calls) == len(cleveland7.y)


def test_simple_majority():
    ds = make_dataset([[0.0], [0.1], [0.2], [5.0], [5.1]], [0, 0, 0, 1, 1])
    model = knn_fit(ds, KNNParams(k=3))
    assert model.score_batch(np.array([[0.05], [5.05]])).tolist() == [-1.0, 1 / 3]
    assert labels(model, [[0.05], [5.05]]).tolist() == [0, 1]


def test_matches_oracle_random():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, 40)
    for k in (1, 3, 5, 9):
        # 200 queries: three full blocks of rows and a partial fourth
        Q = rng.normal(size=(200, 3)) * 2
        assert labels(KNNModel(X, y, k), Q).tolist() == [oracle_predict(X, y, k, q) for q in Q]


def test_matches_oracle_with_duplicate_exemplars():
    # duplicated points force exact distance ties; index order must decide
    rng = np.random.default_rng(21)
    base = rng.integers(0, 3, size=(10, 2)).astype(float)
    X = np.vstack([base, base])  # every point duplicated
    y = np.array([0] * 10 + [1] * 10)
    for k in (1, 3, 5):
        Q = rng.integers(0, 3, size=(100, 2)).astype(float)
        assert labels(KNNModel(X, y, k), Q).tolist() == [oracle_predict(X, y, k, q) for q in Q]


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=50)
def test_translation_invariance(dx, dy):
    rng = np.random.default_rng(33)
    X = rng.normal(size=(20, 2))
    y = rng.integers(0, 2, 20)
    q = rng.normal(size=(1, 2))
    shift = np.array([dx, dy])
    a = labels(KNNModel(X, y, 3), q)
    b = labels(KNNModel(X + shift, y, 3), q + shift)
    assert a == b


def test_k_validation():
    with pytest.raises(ValueError):
        KNNParams(k=4)
    with pytest.raises(ValueError):
        KNNParams(k=0)
    with pytest.raises(ValueError):
        KNNModel(np.zeros((3, 1)), np.array([0, 1, 0]), 2)
    with pytest.raises(TooFewRows):
        KNNModel(np.zeros((2, 1)), np.array([0, 1]), 3)


def test_predict_batch(tiny_separable):
    model = knn_fit(tiny_separable, KNNParams(k=5))
    preds = labels(model, tiny_separable.X)
    assert np.array_equal(preds, tiny_separable.y)


def test_serialization_roundtrip():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(15, 2))
    y = rng.integers(0, 2, 15)
    model = KNNModel(X, y, 5)
    clone = KNNModel.from_dict(model.to_dict(), continuous_schema(2))
    q = rng.normal(size=(20, 2))
    assert np.array_equal(clone.score_batch(q), model.score_batch(q))
