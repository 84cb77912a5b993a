import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cadml.classifiers import KNNParams, NBParams, SVMParams, nb_fit
from cadml.dataset import CATEGORICAL, CONTINUOUS, FeatureSchema, select_columns
from cadml.errors import EmptyInput
from cadml.evaluation import cross_validate, stratified_folds
from cadml import feature_selection
from cadml.feature_selection import (
    SubsetSearchResult,
    _cut_scan,
    _entropies,
    best_first_subset,
    correlation_score,
    discretize_mdl,
    info_gain,
    rank_features,
)

from conftest import make_dataset


def entropy(labels) -> float:
    """Shannon entropy of the label multiset, in bits, by the library's own
    arithmetic: _entropies of the class counts."""
    _, counts = np.unique(labels, return_counts=True)
    return float(_entropies(counts[:, None])[0])


def test_entropy_known_values():
    assert entropy([0, 0, 1, 1]) == 1.0
    assert entropy([1, 1, 1]) == 0.0
    # H(1/4, 3/4) = 2 - 3/4 log2 3
    assert abs(entropy([0, 1, 1, 1]) - 0.8112781244591328) < 1e-12


@given(st.lists(st.integers(0, 3), min_size=1, max_size=50))
def test_entropy_bounds(labels):
    h = entropy(labels)
    k = len(set(labels))
    assert -1e-12 <= h <= math.log2(max(k, 2)) + 1e-12


@pytest.mark.parametrize("score", [
    lambda: discretize_mdl([], []),
    lambda: info_gain([], [], CONTINUOUS),
    lambda: correlation_score([], []),
], ids=["discretize_mdl", "info_gain", "correlation"])
def test_empty_column_is_empty_input(score):
    with pytest.raises(EmptyInput):
        score()


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


def oracle_discretize_mdl(values, labels) -> list[float]:
    """discretize_mdl scoring each boundary cut on its own, with a boolean mask
    and two entropy() calls, and taking the MDL test's class numbers and
    entropies from each side's labels: the reference the running-count scan
    must equal."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(values, kind="stable")
    cuts = []
    _oracle_mdl_recurse(values[order], labels[order], cuts)
    return sorted(cuts)


def _oracle_split_entropy(labels, mask) -> float:
    n = len(labels)
    left, right = labels[mask], labels[~mask]
    h = 0.0
    if left.size:
        h += left.size / n * entropy(left)
    if right.size:
        h += right.size / n * entropy(right)
    return h


def _oracle_mdl_accepts(labels, left, right, gain) -> bool:
    n = len(labels)
    k = len(np.unique(labels))
    k1 = len(np.unique(left))
    k2 = len(np.unique(right))
    delta = math.log2(3.0**k - 2.0) - (k * entropy(labels)
                                       - k1 * entropy(left) - k2 * entropy(right))
    return gain > (math.log2(n - 1) + delta) / n


def _oracle_mdl_recurse(values, labels, cuts) -> None:
    n = len(values)
    if n < 2 or entropy(labels) == 0.0:
        return
    boundaries = np.flatnonzero(np.diff(values) > 0) + 1
    if boundaries.size == 0:
        return
    base = entropy(labels)
    best_gain, best_b = -1.0, -1
    for b in boundaries:
        mask = np.zeros(n, dtype=bool)
        mask[:b] = True
        gain = base - _oracle_split_entropy(labels, mask)
        if gain > best_gain + 1e-12:
            best_gain, best_b = gain, int(b)
    left, right = labels[:best_b], labels[best_b:]
    if not _oracle_mdl_accepts(labels, left, right, best_gain):
        return
    cuts.append(0.5 * (values[best_b - 1] + values[best_b]))
    _oracle_mdl_recurse(values[:best_b], left, cuts)
    _oracle_mdl_recurse(values[best_b:], right, cuts)


@st.composite
def mdl_columns(draw):
    """A column of 1-300 values drawn from a pool of 1-300 whole numbers (a
    narrow spread makes ties heavy, and a one-value pool a constant column) and
    its labels, 1-3 distinct integers: each row takes the label of its value's
    interval between random thresholds or, at a random noise rate, any label,
    so that some cuts pass the MDL test and some do not. Past the two sizes, a
    generator seeded by the draw makes the column, which keeps large columns
    cheap."""
    n, n_values = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = rng.choice(np.arange(-3, 10), size=rng.integers(1, 4), replace=False)
    pool = np.round(rng.normal(scale=rng.choice([1.0, 10.0, 1e4]), size=n_values))
    values = pool[rng.integers(0, n_values, size=n)]
    thresholds = np.sort(rng.choice(pool, size=len(classes) - 1))
    noisy = rng.random(n) < rng.choice([0.0, 0.1, 0.5, 1.0])
    clean = classes[np.searchsorted(thresholds, values)]
    return values, np.where(noisy, rng.choice(classes, size=n), clean)


@given(mdl_columns())
@settings(max_examples=200, deadline=None)
def test_discretize_mdl_matches_per_cut_oracle(column):
    values, labels = column
    assert discretize_mdl(values, labels) == oracle_discretize_mdl(values, labels)


@given(mdl_columns())
@settings(max_examples=50, deadline=None)
def test_cut_gains_equal_per_cut_oracle(column):
    """Bit for bit, not only in the cut they lead to: every gain, and the
    entropy of the node and of each side of every cut."""
    values, labels = column
    labels = labels[np.argsort(values, kind="stable")]
    n, base, boundaries = len(labels), entropy(labels), np.arange(1, len(labels))
    expected = []
    for b in boundaries:
        mask = np.zeros(n, dtype=bool)
        mask[:b] = True
        expected.append(base - _oracle_split_entropy(labels, mask))
    counts, h, gains = _cut_scan(labels, boundaries)
    assert gains.tolist() == expected
    assert h.tolist() == ([base] + [entropy(labels[:b]) for b in boundaries]
                          + [entropy(labels[b:]) for b in boundaries])
    assert counts.sum(axis=0).tolist() == [n, *boundaries, *(n - boundaries)]


def test_info_gain_ranking_matches_per_cut_oracle(cleveland, monkeypatch):
    ranked = rank_features(cleveland, "info_gain")
    monkeypatch.setattr(feature_selection, "discretize_mdl", oracle_discretize_mdl)
    assert ranked == rank_features(cleveland, "info_gain")


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


def oracle_info_gain(values, labels, kind) -> float:
    """info_gain recounting each bin's labels with its own entropy() call,
    the bins taken in order: the reference the count table must equal."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
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


@st.composite
def info_gain_columns(draw):
    """A continuous or categorical column of 1-300 values and its labels, 1-3
    classes out of {0, 3, 6}. The values come from a pool of 1-40 whole numbers
    (a one-value pool makes a column that falls in a single bin), and about
    half of the zeros are -0.0, which == and np.unique put in 0.0's bin. Each
    row takes the class of its value's interval between random thresholds or,
    at a random noise rate, any class, so that some continuous columns get MDL
    cuts and some do not."""
    kind = draw(st.sampled_from([CONTINUOUS, CATEGORICAL]))
    n, n_values = draw(st.integers(1, 300)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = 3 * rng.choice(3, size=rng.integers(1, 4), replace=False)
    pool = np.round(rng.normal(scale=rng.choice([1.0, 5.0]), size=n_values))
    values = pool[rng.integers(0, n_values, size=n)]
    values[(values == 0.0) & (rng.random(n) < 0.5)] = -0.0
    thresholds = np.sort(rng.choice(pool, size=len(classes) - 1))
    noisy = rng.random(n) < rng.choice([0.0, 0.1, 0.5, 1.0])
    clean = classes[np.searchsorted(thresholds, values)]
    return kind, values, np.where(noisy, rng.choice(classes, size=n), clean)


@given(info_gain_columns())
@settings(max_examples=200, deadline=None)
def test_info_gain_equals_per_bin_oracle(column):
    """Bit for bit, sign included."""
    kind, values, labels = column
    got, expected = info_gain(values, labels, kind), oracle_info_gain(values, labels, kind)
    assert got == expected
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)


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
    noise = np.array([1.0, 2.0, 2.0, 1.0])
    X = np.column_stack([noise, y.astype(float), noise, y.astype(float)])
    ds = make_dataset(X, y)
    for evaluator in ("correlation", "info_gain"):
        ranked = rank_features(ds, evaluator)
        assert ranked.names() == ("x1", "x3", "x0", "x2")
        scores = [e.score for e in ranked.entries]
        assert scores[0] == scores[1] > scores[2] == scores[3]


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
    majority = max(ds.class_counts()) / ds.n_rows
    cache = {}

    def objective(subset):
        if subset not in cache:
            if not subset:
                cache[subset] = majority
            else:
                view = select_columns(ds, [n for n in names if n in subset])
                cache[subset] = cross_validate(view, wrapped, folds, seed,
                                               scaling=False).mean_accuracy
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
    # no subset is expanded twice, so the search runs out of open subsets
    # before this many stale expansions
    result = best_first_subset(ds, params, folds=4, seed=7, stale_limit=2 ** len(ds.schema) + 1)
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
