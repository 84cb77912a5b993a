import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml import tuning
from cadml.classifiers import KNNParams, NBParams, SVMParams, TrainingSet, fit_model, svm, svm_fit
from cadml.classifiers.lockstep import gram_workspace, smo_lockstep, solve_group
from cadml.classifiers.svm import (
    _ALPHA_EPS,
    _CHUNK_ROWS,
    _STEPS_PER_ROW,
    SVMModel,
    dual_objective,
    kkt_residuals,
    rbf_gram,
    SMOResult,
    smo,
)
from cadml.errors import SingleClassData
from cadml.evaluation import stratified_folds

from conftest import continuous_schema, labels, make_dataset


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


def exact_dual(K, y, C):
    """Reference solution of the dual by enumerating the active set.

    Each point is free or sits at 0 or C. For a free set F the optimum solves
    the equality-constrained KKT system
        [Q_FF  y_F] [alpha_F]   [1 - C Q_FU 1]
        [y_F'   0 ] [   b   ] = [  -C y_U'1  ]
    where U is the set at C; the labellings of the points outside F only
    change the right-hand side, so they are solved together as its columns.
    The feasible solution with the highest objective is the optimum."""
    n = len(y)
    Q = np.outer(y, y) * K
    best, best_obj = None, -np.inf
    for free_bits in range(2**n):
        free = (free_bits >> np.arange(n)) & 1 == 1
        fixed = ~free
        m = int(fixed.sum())
        at_c = C * ((np.arange(2**m)[:, None] >> np.arange(m)) & 1)  # (2^m, m)
        A = np.zeros((n - m + 1, n - m + 1))
        A[:-1, :-1] = Q[np.ix_(free, free)]
        A[:-1, -1] = A[-1, :-1] = y[free]
        rhs = np.vstack([1.0 - Q[np.ix_(free, fixed)] @ at_c.T, -(at_c @ y[fixed])[None, :]])
        sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
        alphas = np.empty((2**m, n))
        alphas[:, free] = sol[:-1].T
        alphas[:, fixed] = at_c
        ok = (np.all((alphas >= -1e-10) & (alphas <= C + 1e-10), axis=1)
              & (np.abs(alphas @ y) <= 1e-10))
        if not np.any(ok):
            continue
        ay = alphas[ok] * y
        obj = alphas[ok].sum(axis=1) - 0.5 * np.einsum("ki,ij,kj->k", ay, K, ay)
        k = int(np.argmax(obj))
        if obj[k] > best_obj:
            best, best_obj = alphas[ok][k], obj[k]
    return best


def seed_smo(K, y, C: float, tol: float = 1e-3, max_iter: int | None = None) -> SMOResult:
    """The solver loop as first written, one numpy expression per step, with
    the dual objective of its alpha; smo must reproduce its every value bit
    for bit."""
    y = np.asarray(y, dtype=np.float64)
    if max_iter is None:
        max_iter = max(10_000_000, 100 * len(y))
    alpha = np.zeros(len(y))
    r = y.copy()
    diag = np.diag(K).copy()
    pos = y > 0
    up, low = pos.copy(), ~pos
    objective, trace = 0.0, []
    for it in range(max_iter + 1):
        r_up = np.where(up, r, -np.inf)
        i = int(np.argmax(r_up))
        r_low = np.where(low, r, np.inf)
        m, M = r_up[i], np.min(r_low)
        if m - M < tol or it == max_iter:
            break
        b = m - r_low
        # a is 0 for a duplicate of row i; the floor sends that step to a bound
        a = np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)
        j = int(np.argmin(np.where(b > 0.0, -b * b / a, np.inf)))
        t = min(b[j] / a[j], C - alpha[i] if pos[i] else alpha[i],
                alpha[j] if pos[j] else C - alpha[j])
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        r -= t * (K[i] - K[j])
        objective += t * (b[j] - 0.5 * t * a[j])
        trace.append(objective)
        for k in (i, j):
            below_c, above_0 = alpha[k] < C - _ALPHA_EPS, alpha[k] > _ALPHA_EPS
            up[k], low[k] = (below_c, above_0) if pos[k] else (above_0, below_c)
    return SMOResult(alpha, float(0.5 * (m + M)), bool(m - M < tol), trace,
                     dual_objective(K, y, alpha))


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
    model = svm_fit(ds, SVMParams(C=1.0, sigma=0.5))
    assert model.converged
    assert np.array_equal(labels(model, ds_X), ds.y)


def gram_and_labels(ds, params):
    return rbf_gram(ds.X, ds.X, params.sigma), np.where(ds.y == 1, 1.0, -1.0)


def test_alpha_feasibility_and_objective_monotone():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ds, params = random_instance(rng)
        K, y = gram_and_labels(ds, params)
        res = smo(K, y, params.C, tol=1e-5, max_iter=50000)
        assert res.converged
        assert np.all(res.alpha >= -1e-12)
        assert np.all(res.alpha <= params.C + 1e-12)
        assert abs(res.alpha @ y) <= 1e-8
        trace = res.objective_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert abs(trace[-1] - dual_objective(K, y, res.alpha)) <= 1e-9


@pytest.mark.parametrize("oracle", [exact_dual, qp_oracle])
def test_matches_qp_oracle(oracle):
    rng = np.random.default_rng(101)
    for _ in range(15):
        ds, params = random_instance(rng)
        K, y = gram_and_labels(ds, params)
        res = smo(K, y, params.C, tol=1e-6, max_iter=100000)
        a_star = oracle(K, y, params.C)
        gap = abs(dual_objective(K, y, a_star) - dual_objective(K, y, res.alpha))
        assert gap <= 1e-4
        assert kkt_residuals(K, y, res.alpha, res.bias, params.C).max() <= 1e-3


def test_exact_dual_detects_an_unfinished_solve():
    """The oracle tells a loose solve from an optimal one."""
    ds, params = random_instance(np.random.default_rng(101))
    K, y = gram_and_labels(ds, params)
    a_star = exact_dual(K, y, params.C)
    early = smo(K, y, params.C, tol=1e-6, max_iter=1)
    assert not early.converged
    assert dual_objective(K, y, a_star) - dual_objective(K, y, early.alpha) > 1e-4


def test_fit_builds_model_from_smo_result():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ds, params = random_instance(rng)
        K, y = gram_and_labels(ds, params)
        res = smo(K, y, params.C)
        model = svm_fit(ds, params)
        sv = res.alpha > _ALPHA_EPS
        assert np.array_equal(model.dual_coef, (res.alpha * y)[sv])
        assert np.array_equal(model.support_vectors, ds.X[sv])
        assert model.bias == res.bias
        assert model.converged == res.converged
        assert model.objective_trace == res.objective_trace


def test_bias_is_centre_of_kkt_interval():
    """With every alpha at a bound the KKT conditions only bound the bias to
    [max r over up, min r over low]; the solver returns that interval's centre."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    y = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    C = 1e-3
    K = rbf_gram(X, X, 0.5)
    res = smo(K, y, C)
    assert res.converged
    at_lower = res.alpha <= _ALPHA_EPS
    at_upper = res.alpha >= C - _ALPHA_EPS
    assert np.all(at_lower | at_upper)
    r = y - K @ (res.alpha * y)
    up = (~at_upper & (y > 0)) | (~at_lower & (y < 0))
    low = (~at_upper & (y < 0)) | (~at_lower & (y > 0))
    lo, hi = np.max(r[up]), np.min(r[low])
    assert lo <= hi
    assert abs(res.bias - 0.5 * (lo + hi)) <= 1e-9


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
    assert model.score_batch(np.array([[1.0]])).tolist() == [0.0]
    assert labels(model, [[1.0]]).tolist() == [0]


def test_serialization_roundtrip(tiny_separable):
    model = svm_fit(tiny_separable, SVMParams(C=1.0, sigma=0.5))
    clone = SVMModel.from_dict(model.to_dict(), continuous_schema(2))
    rng = np.random.default_rng(3)
    Q = rng.normal(size=(25, 2)) * 3
    assert np.array_equal(labels(clone, Q), labels(model, Q))
    assert np.max(np.abs(clone.score_batch(Q[:5]) - model.score_batch(Q[:5]))) < 1e-12


def test_decision_in_chunks_matches_row_by_row():
    """A batch of several chunks scores as its rows do one at a time. BLAS
    takes other kernels for a one-row Gram block, so the values may differ
    in the last bits, but never the labels."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 3))
    model = svm_fit(make_dataset(X, (X[:, 0] + 0.3 * X[:, 1] > 0).astype(np.int64)),
                    SVMParams(C=1.0, sigma=0.4))
    Q = rng.normal(size=(2 * _CHUNK_ROWS + 7, 3)) * 2
    rows = np.array([model.score_batch(q[None, :])[0] for q in Q])
    assert np.max(np.abs(model.score_batch(Q) - rows)) <= 1e-12
    assert np.array_equal(labels(model, Q), rows > 0.0)
    assert model.score_batch(Q[:0]).shape == (0,)
    # whole chunks give the very values of one Gram block over the batch
    whole = Q[:2 * _CHUNK_ROWS]
    assert np.array_equal(
        model.score_batch(whole),
        model.dual_coef @ rbf_gram(model.support_vectors, whole, model.params.sigma)
        + model.bias)


def test_large_c_converges(cleveland7):
    """C = 1000 on a near-linear kernel needs about 14,000 steps on the
    standardized 7-feature view; the default cap must not cut it short."""
    model = fit_model(cleveland7, SVMParams(C=1000.0, sigma=0.01), scaling=True).model
    assert model.converged
    assert len(model.objective_trace) > 10_000


def smo_inputs(monkeypatch, fit):
    """The (K, y, C) of every smo call that fit() makes."""
    calls = []

    def record(K, y, C):
        calls.append((K.copy(), y.copy(), C))
        return smo(K, y, C)

    monkeypatch.setattr(svm, "smo", record)
    fit()
    monkeypatch.undo()
    return calls


def duplicate_rows_instance():
    """Every row twice, labels drawn independently: a pair of equal rows has
    curvature a = 0, and 4 of the 13 steps at C = 1 take the 1e-12 floor."""
    rng = np.random.default_rng(4)
    base = rng.normal(size=(15, 2))
    X = np.vstack([base, base])
    y = np.where(rng.integers(0, 2, 30) == 1, 1.0, -1.0)
    return [(rbf_gram(X, X, 0.5), y, C) for C in (1.0, 10.0)]


def fold_sets(view, seed):
    """The z-scored training sets of a 10-fold grid search on view."""
    folds = stratified_folds(view.y, 10, seed)
    return [TrainingSet(view.subset_rows(folds.train_indices(f)), scaling=True).rows
            for f in range(10)]


def signs(ds):
    return np.where(ds.y == 1, 1.0, -1.0)


@pytest.mark.parametrize("case", ["grid-7", "grid-13", "duplicate-rows", "large-c"])
def test_smo_matches_seed_loop(case, cleveland, cleveland7, monkeypatch):
    """smo reproduces the first-written loop exactly: the same alpha, bias,
    convergence flag and objective after every step, so the same steps."""
    view = {"grid-7": cleveland7, "grid-13": cleveland}.get(case)
    if view is not None:  # the default SVM grid's 10-fold problems and refit
        sets = fold_sets(view, 2018) + [TrainingSet(view, scaling=True).rows]
        problems = [(rbf_gram(ds.X, ds.X, p.sigma), signs(ds), p.C)
                    for ds in sets for p in tuning.default_grids()["svm"].candidates]
    elif case == "duplicate-rows":
        problems = duplicate_rows_instance()
    else:  # the 14,416 steps of test_large_c_converges
        problems = smo_inputs(monkeypatch, lambda: fit_model(
            cleveland7, SVMParams(C=1000.0, sigma=0.01), scaling=True))
    for K, y, C in problems:
        got, want = smo(K, y, C), seed_smo(K, y, C)
        assert np.array_equal(got.alpha, want.alpha)
        assert got.bias == want.bias
        assert got.converged == want.converged
        assert got.objective_trace == want.objective_trace
        assert got.dual_objective == want.dual_objective


def assert_same_solve(got, want):
    """Equal alpha, and bias, flag, every objective and the dual objective as
    equal Python values."""
    assert np.array_equal(got.alpha, want.alpha)
    assert type(got.bias) is float and got.bias == want.bias
    assert type(got.converged) is bool and got.converged == want.converged
    assert all(type(v) is float for v in got.objective_trace)
    assert got.objective_trace == want.objective_trace
    assert type(got.dual_objective) is float and got.dual_objective == want.dual_objective


def lockstep(problems):
    """smo_lockstep on (K, y, C) problems, each in its own zero-padded slot."""
    n = max(len(y) for _, y, _ in problems)
    K, y = np.zeros((len(problems), n, n)), np.zeros((len(problems), n))
    for p, (K_p, y_p, _) in enumerate(problems):
        K[p, :len(y_p), :len(y_p)], y[p, :len(y_p)] = K_p, y_p
    return smo_lockstep(K, y, [C for _, _, C in problems], np.arange(len(problems)))


def all_ones_instance(n, C):
    """A kernel of ones: every pair takes the 1e-12 floor and r never moves,
    so each step moves one pair by t = 2e12 until it reaches C; a solve
    takes n / 2 * C / 2e12 steps for C a multiple of 2e12, and with C too
    large for that runs to its cap of 500 n steps."""
    return np.ones((n, n)), np.where(np.arange(n) % 2 == 0, 1.0, -1.0), C


@pytest.mark.parametrize("case", ["grid-7-2018", "grid-7-1", "grid-13-2018", "grid-13-1"])
def test_lockstep_matches_smo_on_grid_folds(case, cleveland, cleveland7):
    """The default grid's 30 fold problems, solved in lockstep as the grid
    search's one batch of 10 folds x 3 C and as two groups of 5 folds x 3 C
    (a table whose folds exceed the Gram budget still splits), padded to
    268 rows where a fold has 267, give smo's solve of each, bit for bit, on
    the same Gram matrix, dual objective included; the three batches share
    one workspace."""
    width, seed = case.split("-")[1:]
    sets = fold_sets({"7": cleveland7, "13": cleveland}[width], int(seed))
    assert {len(ds.y) for ds in sets} == {267, 268}
    grid = tuning.default_grids()["svm"].candidates
    want = []
    for ds in sets:
        K = rbf_gram(ds.X, ds.X, grid[0].sigma)
        want.append([smo(K, signs(ds), p.C) for p in grid])
    workspace = gram_workspace(8 * 10 * 268 * 268)
    for start, group in ((0, sets[:5]), (5, sets[5:]), (0, sets)):
        solved = solve_group(group, grid, range(len(grid)), lambda: workspace)
        assert len(solved) == 3 * len(group)
        for s in range(len(group)):
            for c in range(len(grid)):
                assert_same_solve(solved[s, c], want[start + s][c])


def test_solve_group_leaves_three_kinds_of_problem_to_their_fits(cleveland7):
    """solve_group returns smo's solve, bit for bit, of each live SVM problem
    that shares a sigma with another, and leaves out the only problem of its
    sigma, every problem of a sigma whose Gram matrix overflows (1e308), and
    C = 1e8 beside C = 0.25 and 1.0, which smo_lockstep hands back; k-NN,
    naive Bayes and a candidate that is not live are not solved."""
    sets = fold_sets(cleveland7, 2018)[:5]
    workspace = gram_workspace(8 * 5 * 268 * 268)
    candidates = [SVMParams(C=0.25), KNNParams(), SVMParams(C=1e8),
                  SVMParams(C=0.5, sigma=1e308), NBParams(), SVMParams(C=1.0),
                  SVMParams(C=1.0, sigma=1e308), SVMParams(C=2.0, sigma=0.05)]
    solved = solve_group(sets, candidates, range(7), lambda: workspace)
    assert sorted(solved) == [(s, c) for s in range(5) for c in (0, 5)]
    for (s, c), got in solved.items():
        K = rbf_gram(sets[s].X, sets[s].X, candidates[c].sigma)
        assert_same_solve(got, smo(K, signs(sets[s]), candidates[c].C))
    # one set at one live C: a lone problem, solved by its fit
    assert solve_group(sets[:1], candidates, [0, 1, 4, 7], lambda: workspace) == {}
    assert list(solve_group(sets[:1], candidates, [0, 5], lambda: workspace)) == [(0, 0), (0, 5)]


def test_lockstep_matches_smo_on_mixed_batches():
    """Batches of problems of different sizes and costs, with duplicate rows
    that take the 1e-12 floor, give smo's solve of each."""
    rng = np.random.default_rng(23)
    problems = duplicate_rows_instance() + [
        (*gram_and_labels(ds, params), params.C)
        for ds, params in (random_instance(rng) for _ in range(3))]
    for (K, y, C), got in zip(problems, lockstep(problems)):
        assert_same_solve(got, smo(K, y, C))


def test_lockstep_hands_back_after_50_steps_per_row():
    """A problem is returned if it has converged by 50 steps per row of its
    own and handed back as None if it is still running then, whether smo
    would converge on it later or run to its cap."""
    at_limit = [all_ones_instance(6, 2e14), all_ones_instance(8, 2e14)]
    past_limit = [all_ones_instance(6, 2.02e14), all_ones_instance(8, 1e300)]
    got = lockstep(at_limit + past_limit)
    for (K, y, C), res in zip(at_limit, got):
        assert len(res.objective_trace) == 50 * len(y)
        assert_same_solve(res, smo(K, y, C))
    assert got[2:] == [None, None]
    assert smo(*past_limit[0]).converged
    assert len(smo(*past_limit[1]).objective_trace) == _STEPS_PER_ROW * 8


def test_lockstep_hands_back_four_times_past_half_the_batch():
    """Once half a batch has finished, a problem still running at 4 times
    that step is handed back, though it would converge within 50 n."""
    rng = np.random.default_rng(23)
    problems = duplicate_rows_instance() + [
        (*gram_and_labels(ds, params), params.C)
        for ds, params in (random_instance(rng) for _ in range(3))]
    late = all_ones_instance(8, 2e14)
    got = lockstep(problems + [late])
    assert got[-1] is None
    assert lockstep([late, late])[0] is not None
    for (K, y, C), res in zip(problems, got):
        assert_same_solve(res, smo(K, y, C))


def prefix_problem(view, m, C):
    """smo's problem on the first m z-scored rows of view, at the default sigma."""
    X = (view.X - view.X.mean(axis=0)) / view.X.std(axis=0)
    return rbf_gram(X[:m], X[:m], 0.1268408), signs(view)[:m], C


@pytest.mark.parametrize("order", ["reverse", "interleaved", "hand-back"])
def test_lockstep_results_keep_problem_order_as_slots_drop(order, cleveland7):
    """A problem's slot is dropped when it finishes or is handed back; with
    problems that finish in reverse slot order, in interleaved order, or
    around one handed back mid-run, each still gets smo's solve, in the
    caller's order."""
    by_steps = [prefix_problem(cleveland7, m, C) for m, C in
                ((30, 0.25), (40, 0.25), (50, 1.0), (40, 10.0), (60, 10.0), (80, 10.0))]
    steps = [len(smo(*problem).objective_trace) for problem in by_steps]
    # distinct finishing steps; the never-converging 2-row problem is handed
    # back at 50 x 2 steps, after three problems finished and before three more
    assert steps == sorted(set(steps)) and steps[2] < 100 < steps[3]
    batch = {"reverse": by_steps[::-1],
             "interleaved": [by_steps[i] for i in (3, 0, 5, 1, 4, 2)],
             "hand-back": by_steps[:3] + [all_ones_instance(2, 1e300)] + by_steps[3:]}[order]
    got = lockstep(batch)
    assert len(got) == len(batch)
    for (K, y, C), res in zip(batch, got):
        if C == 1e300:
            assert res is None
        else:
            assert_same_solve(res, smo(K, y, C))


def test_lockstep_overflow_raises_like_smo():
    """A kernel whose curvature overflows raises under errstate in both
    solvers, so a grid search can re-solve the group one problem at a time."""
    K, y, C = all_ones_instance(6, 1.0)
    K = K * 1e308
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            smo(K, y, C)
        with pytest.raises(FloatingPointError):
            lockstep([(K, y, C), all_ones_instance(6, 1.0)])
