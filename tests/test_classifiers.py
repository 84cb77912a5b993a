"""FittedModel is the one boundary of the three classifiers: it checks the row
width and labels a row 1 where its model's score is above 0. The oracles are
the labelling rules each model applied itself before it only scored rows."""
import numpy as np
import pytest

from cadml.classifiers import (
    ALGORITHMS, FittedModel, KNNModel, NBParams, SVMModel, SVMParams, fit_model, nb_fit,
)
from cadml.classifiers.svm import rbf_gram
from cadml.dataset import CATEGORICAL, CONTINUOUS, FeatureSchema
from cadml.errors import LengthMismatch
from cadml.tuning import default_scaling

from conftest import continuous_schema, make_dataset


def nb_rule(model, X):
    """Class 0 unless P(1|x) > P(0|x), so equal posteriors are class 0."""
    post = model.posterior_batch(X)
    return np.where(post[:, 0] >= post[:, 1], 0, 1)


def knn_rule(model, X):
    """Class 1 when more than half of the k nearest exemplars are; equal
    distances rank by exemplar index."""
    k = model.params.k
    d = np.sqrt(np.sum((X[:, None, :] - model.X) ** 2, axis=2))
    votes = np.sum(model.y[np.argsort(d, axis=1, kind="stable")[:, :k]], axis=1)
    return (2 * votes > k).astype(np.int64)


def svm_rule(model, X):
    """Class 1 where f(x) > 0."""
    f = model.dual_coef @ rbf_gram(model.support_vectors, X, model.params.sigma) + model.bias
    return (f > 0.0).astype(np.int64)


def test_nb_labels_follow_the_posterior_rule(cleveland7):
    # classes at -1 and +1 with equal priors and variances: at 0 the
    # posteriors are exactly equal
    tie = nb_fit(make_dataset([[-1.0], [1.0], [-1.0], [1.0]], [0, 1, 0, 1]))
    X = np.array([[0.0], [-0.5], [0.5], [1e-300], [-1e-300], [2.0]])
    assert tie.posterior_batch(X[:1])[0, 0] == tie.posterior_batch(X[:1])[0, 1]
    assert np.array_equal(FittedModel(tie, continuous_schema(1), None).predict_batch(X),
                          nb_rule(tie, X))
    # a value neither class saw leaves a row with all its log-joints -inf
    schema = (FeatureSchema("c", CATEGORICAL, (1.0, 2.0, 3.0)),
              FeatureSchema("x", CONTINUOUS))
    unseen = nb_fit(make_dataset([[1.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 3.0]],
                                 [0, 0, 1, 1], schema=schema), NBParams(laplace=0.0))
    X = np.array([[3.0, 0.5], [3.0, 2.5], [1.0, 1.5], [2.0, 1.5], [1.0, 9.0]])
    assert np.isneginf(unseen.log_joint(X[:2])).all()
    assert np.array_equal(FittedModel(unseen, schema, None).predict_batch(X),
                          nb_rule(unseen, X))
    for params in (NBParams(), NBParams(use_kernel_density=True)):
        fitted = fit_model(cleveland7, params)
        assert np.array_equal(fitted.predict_batch(cleveland7.X),
                              nb_rule(fitted.model, cleveland7.X))


def test_svm_labels_follow_the_decision_rule(cleveland7):
    # mirror-image support vectors of opposite sign: f is exactly 0 midway
    mirror = SVMModel(support_vectors=np.array([[-1.0], [1.0]]), dual_coef=np.array([1.0, -1.0]),
                      bias=0.0, params=SVMParams(), dual_objective_value=0.0)
    X = np.array([[0.0], [-0.3], [0.3], [5.0]])
    assert mirror.score_batch(X[:1]).tolist() == [0.0]
    assert np.array_equal(FittedModel(mirror, continuous_schema(1), None).predict_batch(X),
                          svm_rule(mirror, X))
    fitted = fit_model(cleveland7, SVMParams(), scaling=True)
    assert np.array_equal(fitted.predict_batch(cleveland7.X),
                          svm_rule(fitted.model, fitted.scaling.apply(cleveland7.X)))


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_knn_labels_follow_the_vote_rule(k):
    rng = np.random.default_rng(k)
    base = rng.integers(0, 3, size=(20, 2)).astype(float)
    X = np.vstack([base, base[:8]])  # duplicates force distance ties
    y = rng.integers(0, 2, len(X))
    Q = np.vstack([rng.normal(size=(150, 2)) * 2, base])
    model = KNNModel(X, y, k)
    assert np.array_equal(FittedModel(model, continuous_schema(2), None).predict_batch(Q),
                          knn_rule(model, Q))


def test_wrong_width_is_length_mismatch(cleveland7):
    for algorithm, spec in ALGORITHMS.items():
        fitted = fit_model(cleveland7, spec.params(), scaling=default_scaling(algorithm))
        assert fitted.predict_batch(np.zeros((3, 7))).shape == (3,)
        for X in (np.zeros((3, 8)), np.zeros((3, 6)), np.zeros((0, 6)), np.zeros(7)):
            with pytest.raises(LengthMismatch):
                fitted.predict_batch(X)
        with pytest.raises(LengthMismatch):
            fitted.predict(np.zeros(6))
        if algorithm == "nb":
            with pytest.raises(LengthMismatch):
                fitted.posterior_batch(np.zeros((3, 6)))
