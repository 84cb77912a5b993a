import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml.classifiers import SVMParams, svm_fit
from cadml.classifiers.svm import SVMModel, dual_objective, kkt_residuals, rbf_gram
from cadml.errors import SingleClassData

from conftest import continuous_schema, make_dataset


def rbf_kernel(x, y, sigma):
    """Pointwise reference for rbf_gram: exp(-sigma * ||x - y||^2).

    Computed in long double: the property test's domain reaches exponents
    near -2000, where the float64 exp underflows to exactly 0."""
    d = np.asarray(x, dtype=np.longdouble) - np.asarray(y, dtype=np.longdouble)
    return np.exp(-np.longdouble(sigma) * np.sum(d**2))


def qp_oracle(K, y, C):
    """Reference solution of the dual via a dense convex QP solver."""
    cvxopt = pytest.importorskip("cvxopt")
    cvxopt.solvers.options["show_progress"] = False
    n = len(y)
    P = cvxopt.matrix(np.outer(y, y) * K + 1e-10 * np.eye(n))
    q = cvxopt.matrix(-np.ones(n))
    G = cvxopt.matrix(np.vstack([-np.eye(n), np.eye(n)]))
    h = cvxopt.matrix(np.hstack([np.zeros(n), C * np.ones(n)]))
    A = cvxopt.matrix(y[None, :].astype(np.float64))
    b = cvxopt.matrix(0.0)
    sol = cvxopt.solvers.qp(P, q, G, h, A, b)
    return np.array(sol["x"]).ravel()


def random_instance(rng, n_max=8):
    n = int(rng.integers(4, n_max + 1))
    d = int(rng.integers(1, 4))
    X = rng.normal(size=(n, d))
    y = np.zeros(n, dtype=np.int64)
    y[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
    if y.sum() == 0 or y.sum() == n:
        y[0] = 1 - y[0]
    C = float(rng.uniform(0.1, 5.0))
    sigma = float(rng.uniform(0.1, 2.0))
    return make_dataset(X, y), SVMParams(C=C, sigma=sigma)


def test_rbf_kernel_known_value():
    assert rbf_kernel([0.0], [0.0], 0.5) == 1.0
    assert abs(rbf_kernel([0.0], [1.0], 0.1268408) - np.exp(-0.1268408)) < 1e-15
    assert rbf_gram([[0.0]], [[0.0]], 0.5)[0, 0] == 1.0
    assert abs(rbf_gram([[0.0]], [[1.0]], 0.1268408)[0, 0] - np.exp(-0.1268408)) < 1e-15


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=4),
       st.lists(st.floats(-5, 5), min_size=2, max_size=4),
       st.floats(0.01, 5))
@settings(max_examples=100)
def test_rbf_kernel_properties(x, y, sigma):
    m = min(len(x), len(y))
    x, y = np.asarray(x[:m]), np.asarray(y[:m])
    k = rbf_kernel(x, y, sigma)
    assert 0.0 < k <= 1.0
    assert abs(k - rbf_kernel(y, x, sigma)) < 1e-15
    assert rbf_kernel(x, x, sigma) == 1.0


def test_rbf_gram_matches_pointwise():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 3))
    K = rbf_gram(X, X, 0.7)
    for i in range(6):
        for j in range(6):
            assert abs(K[i, j] - rbf_kernel(X[i], X[j], 0.7)) < 1e-12


def test_separable_training():
    ds_X = np.array([[-2.0, 0.0], [-2.5, 0.5], [-3.0, -0.5],
                     [2.0, 0.0], [2.5, 0.5], [3.0, -0.5]])
    ds = make_dataset(ds_X, np.array([0, 0, 0, 1, 1, 1]))
    model = svm_fit(ds, SVMParams(C=1.0, sigma=0.5), tol=1e-4)
    assert model.converged
    assert np.array_equal(model.predict_batch(ds_X), ds.y)


def test_alpha_feasibility_and_objective_monotone():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ds, params = random_instance(rng)
        model = svm_fit(ds, params, tol=1e-5, max_passes=50000)
        assert np.all(model.alpha >= -1e-12)
        assert np.all(model.alpha <= params.C + 1e-12)
        assert abs(model.alpha @ model.train_y) <= 1e-8
        trace = model.objective_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_matches_qp_oracle():
    rng = np.random.default_rng(101)
    for _ in range(15):
        ds, params = random_instance(rng)
        model = svm_fit(ds, params, tol=1e-6, max_passes=100000)
        a_star = qp_oracle(model.train_gram, model.train_y, params.C)
        gap = abs(dual_objective(model.train_gram, model.train_y, a_star)
                  - model.dual_objective)
        assert gap <= 1e-4
        res = kkt_residuals(model.train_gram, model.train_y, model.alpha,
                            model.bias, params.C)
        assert res.max() <= 1e-3


def test_kkt_residuals_zero_at_origin():
    # alpha = 0 everywhere with a large bias keeps the positive class slack
    K = np.eye(2)
    y = np.array([1.0, -1.0])
    res = kkt_residuals(K, y, np.zeros(2), 0.0, 1.0)
    assert np.allclose(res, 1.0)  # u = 0, margin deficit 1 on both


def test_single_class_rejected(tiny_separable):
    bad = make_dataset(tiny_separable.X, np.zeros(tiny_separable.n_rows, dtype=np.int64))
    with pytest.raises(SingleClassData):
        svm_fit(bad)


def test_decision_tie_goes_to_class_zero():
    model = SVMModel(support_vectors=np.array([[0.0]]), dual_coef=np.array([0.0]),
                     bias=0.0, params=SVMParams(), dual_objective_value=0.0)
    assert model.predict(np.array([1.0])) == 0


def test_serialization_roundtrip(tiny_separable):
    model = svm_fit(tiny_separable, SVMParams(C=1.0, sigma=0.5))
    clone = SVMModel.from_dict(model.to_dict(), continuous_schema(2))
    rng = np.random.default_rng(3)
    Q = rng.normal(size=(25, 2)) * 3
    assert np.array_equal(clone.predict_batch(Q), model.predict_batch(Q))
    assert np.max(np.abs(clone.decision(Q[:5]) - model.decision(Q[:5]))) < 1e-12
