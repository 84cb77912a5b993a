import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cadml.classifiers import KNNParams, NBParams, SVMParams, nb_fit
from cadml.dataset import CATEGORICAL, CONTINUOUS, FeatureSchema, select_columns
from cadml.errors import EmptyInput
from cadml.evaluation import cross_validate, stratified_folds
from cadml.feature_selection import (
    SubsetSearchResult,
    best_first_subset,
    correlation_score,
    discretize_mdl,
    entropy,
    info_gain,
    rank_features,
)

from conftest import make_dataset


def test_entropy_known_values():
    assert entropy([0, 0, 1, 1]) == 1.0
    assert entropy([1, 1, 1]) == 0.0
    # H(1/4, 3/4) = 2 - 3/4 log2 3
    assert abs(entropy([0, 1, 1, 1]) - 0.8112781244591328) < 1e-12


def test_entropy_empty():
    with pytest.raises(EmptyInput):
        entropy([])


@given(st.lists(st.integers(0, 3), min_size=1, max_size=50))
def test_entropy_bounds(labels):
    h = entropy(labels)
    k = len(set(labels))
    assert -1e-12 <= h <= math.log2(max(k, 2)) + 1e-12


def test_discretize_mdl_accepts_clean_split():
    cuts = discretize_mdl([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
    assert cuts == [2.5]


def test_discretize_mdl_rejects_noise():
    # alternating labels carry no information worth a cut at n=4
    assert discretize_mdl([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1]) == []


def test_discretize_mdl_constant_column():
    assert discretize_mdl([5.0] * 6, [0, 1, 0, 1, 0, 1]) == []


@given(st.lists(st.tuples(st.floats(-100, 100), st.integers(0, 1)),
                min_size=2, max_size=40))
@settings(max_examples=50)
def test_discretize_mdl_cuts_inside_range(pairs):
    values = np.array([p[0] for p in pairs])
    labels = np.array([p[1] for p in pairs])
    cuts = discretize_mdl(values, labels)
    assert cuts == sorted(cuts)
    for c in cuts:
        assert values.min() < c < values.max()


def test_info_gain_perfect_feature():
    v = [0.0, 0.0, 10.0, 10.0, 0.0, 10.0]
    y = [0, 0, 1, 1, 0, 1]
    assert abs(info_gain(v, y, CONTINUOUS) - entropy(y)) < 1e-12


def test_info_gain_irrelevant_feature():
    assert info_gain([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1], CONTINUOUS) == 0.0


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                min_size=2, max_size=40))
@settings(max_examples=50)
def test_info_gain_bounded_by_label_entropy(pairs):
    values = np.array([float(p[0]) for p in pairs])
    labels = np.array([p[1] for p in pairs])
    g = info_gain(values, labels, CATEGORICAL)
    assert -1e-12 <= g <= entropy(labels) + 1e-12


def test_correlation_known_value():
    v = [1.0, 2.0, 3.0, 4.0]
    y = [0, 0, 1, 1]
    assert abs(correlation_score(v, y) - 2.0 / np.sqrt(5.0)) < 1e-12


def test_correlation_constant_column():
    assert correlation_score([3.0, 3.0, 3.0], [0, 1, 0]) == 0.0


@given(st.lists(st.tuples(st.floats(-50, 50), st.integers(0, 1)),
                min_size=3, max_size=30),
       st.floats(0.1, 10), st.floats(-5, 5))
@settings(max_examples=50)
def test_correlation_affine_invariant(pairs, a, b):
    values = np.array([p[0] for p in pairs])
    labels = np.array([p[1] for p in pairs])
    assume(np.std(values) > 1e-6)
    r1 = correlation_score(values, labels)
    r2 = correlation_score(a * values + b, labels)
    assert abs(r1 - r2) < 1e-6


def test_rank_features_orders_by_score():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=60)
    X = np.column_stack([
        rng.normal(size=60),          # noise
        y + rng.normal(scale=0.1, size=60),  # informative
    ])
    ds = make_dataset(X, y)
    for evaluator in ("info_gain", "correlation"):
        ranked = rank_features(ds, evaluator)
        assert ranked.names()[0] == "x1"
        scores = [e.score for e in ranked.entries]
        assert scores == sorted(scores, reverse=True)


def test_rank_features_tie_breaks_by_schema_order():
    y = np.array([0, 0, 1, 1])
    X = np.column_stack([y.astype(float), y.astype(float)])
    ds = make_dataset(X, y)
    ranked = rank_features(ds, "correlation")
    assert ranked.names() == ("x0", "x1")


def test_rank_features_unknown_evaluator(cleveland):
    with pytest.raises(ValueError):
        rank_features(cleveland, "chi2")


def test_best_first_finds_informative_feature():
    rng = np.random.default_rng(11)
    y = np.array([0, 1] * 20)
    X = np.column_stack([
        rng.normal(size=40),
        np.where(y == 1, 5.0, -5.0) + rng.normal(scale=0.2, size=40),
        rng.normal(size=40),
    ])
    ds = make_dataset(X, y)
    result = best_first_subset(ds, NBParams(), folds=5, seed=1)
    assert "x1" in result.selected
    assert result.objective > 0.9
    assert result.expansions >= 1


def test_best_first_stale_limit_validation(tiny_separable):
    with pytest.raises(ValueError):
        best_first_subset(tiny_separable, stale_limit=0)


def test_best_first_deterministic(tiny_separable):
    a = best_first_subset(tiny_separable, NBParams(), folds=4, seed=1)
    b = best_first_subset(tiny_separable, NBParams(), folds=4, seed=1)
    assert a == b


def oracle_best_first_subset(ds, wrapped, folds, seed, stale_limit, min_improvement=0.005):
    """The best-first search scoring every subset with a full cross_validate on
    its own columns: the reference the additive objective must equal exactly."""
    names = ds.feature_names
    assignment = stratified_folds(ds.y, folds, seed)
    majority = max(ds.class_counts()) / ds.n_rows
    cache = {}

    def objective(subset):
        if subset not in cache:
            if not subset:
                cache[subset] = majority
            else:
                view = select_columns(ds, [n for n in names if n in subset])
                cache[subset] = cross_validate(view, wrapped, folds, seed, scaling=False,
                                               folds=assignment).mean_accuracy
        return cache[subset]

    start = frozenset()
    open_list = [(start, 0)]
    discovered = {start}
    best_subset, best_score = start, objective(start)
    counter, stale, expansions = 1, 0, 0
    while open_list:
        open_list.sort(key=lambda t: (-cache[t[0]], t[1]))
        node, _ = open_list.pop(0)
        expansions += 1
        improved = False
        for name in names:
            child = node | {name} if name not in node else node - {name}
            if child in discovered:
                continue
            discovered.add(child)
            score = objective(child)
            open_list.append((child, counter))
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


def rare_categories():
    """Continuous and categorical columns where some values occur once or
    twice, some of them outside the schema's allowed values: a held-out row
    then often carries a value its training folds never saw, whose
    log-likelihood is -inf in one class or both, Laplace smoothing or not."""
    rng = np.random.default_rng(5)
    n = 80
    y = np.array([0, 1] * (n // 2))
    X = np.column_stack([
        y + rng.normal(scale=0.8, size=n),
        rng.normal(size=n),
        np.where(rng.random(n) < 0.1, rng.integers(3, 9, size=n), y + rng.integers(0, 2, size=n)),
        np.where(rng.random(n) < 0.05, 7.0, rng.integers(0, 3, size=n)),
        np.where(rng.random(n) < 0.05, 3.0, rng.integers(0, 2, size=n)),
    ]).astype(np.float64)
    schema = (FeatureSchema("x0", CONTINUOUS), FeatureSchema("x1", CONTINUOUS),
              FeatureSchema("c2", CATEGORICAL, (0.0, 1.0, 2.0)),
              FeatureSchema("c3", CATEGORICAL, (0.0, 1.0, 2.0)),
              FeatureSchema("c4", CATEGORICAL, (0.0, 1.0, 2.0, 3.0)))
    return make_dataset(X, y, schema=schema)


@pytest.mark.parametrize("params,seed,folds,stale_limit", [
    (NBParams(), 1, 5, 2),
    (NBParams(), 2, 5, 2),
    # paper folds and stale limit: here the pop order among tied open subsets
    # decides the result
    (NBParams(), 3, 10, 5),
    (NBParams(use_kernel_density=True, bandwidth_adjust=0.4), 1, 5, 2),
    (NBParams(use_kernel_density=True, bandwidth_adjust=2.5), 2, 5, 2),
    (NBParams(laplace=1.0), 4, 5, 2),
])
def test_best_first_matches_full_cv_oracle(cleveland, params, seed, folds, stale_limit):
    expected = oracle_best_first_subset(cleveland, params, folds, seed, stale_limit)
    assert best_first_subset(cleveland, params, folds=folds, seed=seed,
                             stale_limit=stale_limit) == expected


@pytest.mark.parametrize("params", [NBParams(laplace=1.0), NBParams(laplace=0.0)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_best_first_matches_oracle_with_unseen_categories(params, seed):
    ds = rare_categories()
    folds = stratified_folds(ds.y, 5, seed)
    test = folds.test_indices(0)
    logs = nb_fit(ds.subset_rows(folds.train_indices(0)), params).log_joint(ds.X[test])
    assert np.isneginf(logs).any()
    expected = oracle_best_first_subset(ds, params, 5, seed, stale_limit=3)
    assert best_first_subset(ds, params, folds=5, seed=seed, stale_limit=3) == expected


@pytest.mark.parametrize("params", [NBParams(), NBParams(use_kernel_density=True)])
def test_best_first_exhaustive_matches_oracle(params):
    ds = rare_categories()
    result = best_first_subset(ds, params, folds=4, seed=7, stale_limit=None)
    assert result.expansions == 2 ** len(ds.schema)
    assert result == oracle_best_first_subset(ds, params, 4, 7, stale_limit=None)


def test_best_first_paper_settings(cleveland):
    """The paper's wrapper run (naive Bayes, 10 folds, seed 1, stale limit 5)."""
    result = best_first_subset(cleveland, NBParams(), folds=10, seed=1, stale_limit=5)
    assert result == SubsetSearchResult(
        selected=("Sex", "Cp", "MaxHeart", "MajorVessels", "Thal"),
        objective=0.8451724137931034, expansions=10)


@pytest.mark.parametrize("params", [KNNParams(), SVMParams()])
def test_best_first_wraps_naive_bayes_only(tiny_separable, params):
    with pytest.raises(ValueError):
        best_first_subset(tiny_separable, params, folds=4, seed=1)
