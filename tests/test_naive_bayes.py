import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml.classifiers import FittedModel, NBParams, load_model, nb_fit, save_model
from cadml.classifiers.naive_bayes import (
    NBModel, _moments, _quartiles, posterior_from_log_joint,
)
from cadml.dataset import (
    BINARY, CATEGORICAL, CONTINUOUS, SELECTED_FEATURES, Dataset, FeatureSchema, select_columns,
)
from cadml.errors import SingleClassData, TooFewRows

from conftest import labels, make_dataset


@pytest.fixture(scope="module")
def gaussian_model():
    rng = np.random.default_rng(5)
    X0 = rng.normal(loc=0.0, size=(50, 2))
    X1 = rng.normal(loc=3.0, size=(50, 2))
    ds = make_dataset(np.vstack([X0, X1]), np.array([0] * 50 + [1] * 50))
    return nb_fit(ds, NBParams())


def test_posterior_single_feature_closed_form():
    # one feature, classes N(0,1) and N(2,1), equal priors; at x=0 the
    # log-odds are (0-... ) classic logistic form 1/(1+exp(-4)) toward class 0
    rng = np.random.default_rng(0)
    n = 20000
    X = np.concatenate([rng.normal(0.0, 1.0, n), rng.normal(2.0, 1.0, n)])
    y = np.array([0] * n + [1] * n)
    model = nb_fit(make_dataset(X, y), NBParams())
    post = model.posterior_batch(np.array([[0.0], [1.0]]))
    assert abs(post[0, 0] - 1.0 / (1.0 + np.exp(-2.0))) < 0.02
    assert abs(post[1, 0] - 0.5) < 0.02  # midpoint: even split


def test_predict_tie_breaks_to_class_zero():
    model = nb_fit(make_dataset([[-1.0], [1.0], [-1.0], [1.0]], [0, 1, 0, 1]))
    assert model.score_batch(np.array([[0.0]])).tolist() == [0.0]
    assert labels(model, [[0.0]]).tolist() == [0]


def test_posterior_sums_to_one(gaussian_model):
    rng = np.random.default_rng(1)
    post = gaussian_model.posterior_batch(rng.normal(size=(100, 2)) * 10)
    assert post.shape == (100, 2)
    assert np.all(np.abs(post.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(post >= 0.0)


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=2))
@settings(max_examples=100)
def test_posterior_sums_property(gaussian_model, x):
    post = gaussian_model.posterior_batch(np.asarray([x]))
    assert abs(post.sum() - 1.0) < 1e-9


def test_categorical_frequencies_and_laplace():
    schema = (FeatureSchema("c", CATEGORICAL, (1.0, 2.0, 3.0)),)
    ds = make_dataset([[1.0], [1.0], [2.0], [3.0], [3.0], [3.0]],
                      [0, 0, 0, 1, 1, 1], schema=schema)
    model = nb_fit(ds, NBParams(laplace=0.0))
    # class 0 never saw value 3 -> joint zero, class 1 wins outright
    assert labels(model, [[3.0]]).tolist() == [1]
    post = model.posterior_batch(np.array([[3.0]]))[0]
    assert post[1] == 1.0
    smoothed = nb_fit(ds, NBParams(laplace=1.0))
    post = smoothed.posterior_batch(np.array([[3.0]]))[0]
    assert 0.0 < post[0] < post[1] < 1.0


def test_all_zero_likelihood_gives_uniform():
    schema = (FeatureSchema("c", CATEGORICAL, (1.0, 2.0, 3.0)),)
    ds = make_dataset([[1.0], [1.0], [2.0], [2.0]], [0, 0, 1, 1], schema=schema)
    model = nb_fit(ds, NBParams(laplace=0.0))
    # a value unseen by both classes gives a uniform posterior, and in a
    # batch such a row leaves the rows around it alone
    X = np.array([[3.0], [2.0], [3.0], [1.0]])
    assert np.array_equal(model.posterior_batch(X),
                          [[0.5, 0.5], [0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert model.score_batch(X).tolist() == [0.0, 1.0, 0.0, -1.0]
    assert labels(model, X).tolist() == [0, 1, 0, 0]


def test_kde_mode_tracks_bimodal_class():
    # class 1 is a mixture of two bumps; a single Gaussian smears them out,
    # the KDE keeps the valley at 0 where class 0 sits
    rng = np.random.default_rng(9)
    x1 = np.concatenate([rng.normal(-3, 0.3, 100), rng.normal(3, 0.3, 100)])
    x0 = rng.normal(0, 0.3, 200)
    ds = make_dataset(np.concatenate([x0, x1]),
                      np.array([0] * 200 + [1] * 200))
    kde = nb_fit(ds, NBParams(use_kernel_density=True))
    gauss = nb_fit(ds, NBParams(use_kernel_density=False))
    assert labels(kde, [[0.0], [3.0]]).tolist() == [0, 1]
    at_zero = np.array([[0.0]])
    assert kde.posterior_batch(at_zero)[0, 0] > gauss.posterior_batch(at_zero)[0, 0]


def test_bandwidth_adjust_changes_density():
    rng = np.random.default_rng(2)
    X = rng.normal(size=40)
    y = np.array([0, 1] * 20)
    ds = make_dataset(X, y)
    a = nb_fit(ds, NBParams(use_kernel_density=True, bandwidth_adjust=1.0))
    b = nb_fit(ds, NBParams(use_kernel_density=True, bandwidth_adjust=3.0))
    h_a = a.to_dict()["feature_stats"][0][0]["bandwidth"]
    h_b = b.to_dict()["feature_stats"][0][0]["bandwidth"]
    assert abs(h_b - 3.0 * h_a) < 1e-12


def test_zero_variance_column_handled():
    ds = make_dataset([[1.0, 0.0], [1.0, 1.0], [1.0, 10.0], [1.0, 11.0]],
                      [0, 0, 1, 1])
    model = nb_fit(ds, NBParams())
    q = np.array([[1.0, 0.5]])
    assert np.isfinite(model.posterior_batch(q)).all()
    assert labels(model, q).tolist() == [0]


def test_fit_validations():
    with pytest.raises(SingleClassData):
        nb_fit(make_dataset([[1.0], [2.0], [3.0]], [1, 1, 1]))
    with pytest.raises(TooFewRows):
        nb_fit(make_dataset([[1.0], [2.0], [3.0]], [0, 1, 1]))


def test_serialization_roundtrip():
    schema = (FeatureSchema("a", CONTINUOUS),
              FeatureSchema("b", BINARY, (0.0, 1.0)))
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.normal(size=30), rng.integers(0, 2, 30)])
    y = np.array([0, 1] * 15)
    ds = make_dataset(X, y, schema=schema)
    for params in (NBParams(), NBParams(use_kernel_density=True, laplace=0.5)):
        model = nb_fit(ds, params)
        clone = NBModel.from_dict(model.to_dict(), schema)
        q = np.array([[0.3, 1.0]])
        assert np.array_equal(clone.posterior_batch(q), model.posterior_batch(q))
        assert clone.params == model.params


def scalar_log_likelihood(stat, value: float) -> float:
    """The per-value likelihood naive Bayes used before it scored whole
    columns, of one per-feature record of the model file."""
    if stat["type"] == "gaussian":
        return -0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(stat["var"]) \
            - 0.5 * (value - stat["mean"]) ** 2 / stat["var"]
    if stat["type"] == "kde":
        h = stat["bandwidth"]
        z = (value - np.array(stat["samples"])) / h
        logs = -0.5 * math.log(2.0 * math.pi) - math.log(h) - 0.5 * z * z
        m = float(np.max(logs))
        return m + math.log(float(np.sum(np.exp(logs - m)))) - math.log(len(stat["samples"]))
    # frequency table; unseen value without smoothing has probability 0
    try:
        p = stat["probs"][stat["values"].index(value)]
    except ValueError:
        p = 0.0
    return math.log(p) if p > 0 else -math.inf


def oracle_log_joint(model, X) -> np.ndarray:
    """log P(class) plus the scalar likelihoods, one row and one feature at a time."""
    stats = model.to_dict()["feature_stats"]
    out = np.empty((len(X), 2))
    for i, x in enumerate(X):
        out[i] = np.log(model.priors)
        for c in (0, 1):
            for j in range(X.shape[1]):
                out[i, c] += scalar_log_likelihood(stats[c][j], float(x[j]))
    return out


@pytest.mark.parametrize("params", [
    NBParams(),
    NBParams(use_kernel_density=True),
    NBParams(use_kernel_density=True, bandwidth_adjust=0.4),
    NBParams(use_kernel_density=True, bandwidth_adjust=2.5, laplace=0.5),
    NBParams(laplace=1.0),
    NBParams(laplace=0.0),
], ids=["gaussian", "kde", "kde-narrow", "kde-wide-smoothed", "laplace", "unsmoothed"])
@pytest.mark.parametrize("width", [7, 13])
def test_log_joint_matches_scalar_oracle(cleveland, params, width):
    ds = cleveland if width == 13 else select_columns(cleveland, SELECTED_FEATURES)
    rng = np.random.default_rng(width)
    # few training rows leave some categorical values unseen in a class
    model = nb_fit(ds.subset_rows(rng.permutation(ds.n_rows)[:24]), params)
    # the table's rows, then copies with noise in the continuous columns
    continuous = [f.kind == CONTINUOUS for f in ds.schema]
    X = np.vstack([ds.X] + [ds.X + rng.normal(size=ds.X.shape) * continuous for _ in range(4)])
    oracle = oracle_log_joint(model, X)
    assert np.array_equal(model.log_joint(X), oracle)
    assert np.isneginf(oracle).any() == (params.laplace == 0.0)


def oracle_fit(ds, params: NBParams) -> dict:
    """The model-file form (NBModel.to_dict) of nb_fit as it was before it
    took whole-array passes: one numpy call per column statistic and one per
    frequency-table value, the variance floor recomputed per class, and the
    bandwidth stored as a Python float."""
    neg, pos = ds.class_counts()
    feature_stats = []
    for c in (0, 1):
        Xc = ds.X[ds.y == c]
        row = []
        for j, feat in enumerate(ds.schema):
            col = Xc[:, j]
            if feat.kind == CONTINUOUS and params.use_kernel_density:
                n = len(col)
                s = np.std(col, ddof=1)
                iqr = float(np.subtract(*np.percentile(col, [75, 25])))
                spread = min(s, iqr / 1.34) if iqr > 0 else s
                if spread <= 0:
                    spread = max(abs(float(np.mean(col))), 1.0) * 1e-3
                h = 0.9 * spread * n ** (-0.2) * params.bandwidth_adjust
                row.append({"type": "kde", "samples": col.tolist(), "bandwidth": float(h)})
            elif feat.kind == CONTINUOUS:
                floor = 1e-9 * (float(np.var(ds.X[:, j], ddof=1)) + 1e-12)
                var = max(float(np.var(col, ddof=1)), floor)
                row.append({"type": "gaussian", "mean": float(np.mean(col)), "var": var})
            else:
                values = feat.allowed_values
                counts = np.array([float(np.sum(col == v)) for v in values])
                probs = (counts + params.laplace) / (len(col) + params.laplace * len(values))
                row.append({"type": "frequency", "values": list(values),
                            "probs": [float(p) for p in probs]})
        feature_stats.append(row)
    return {"params": params.to_dict(), "priors": [neg / ds.n_rows, pos / ds.n_rows],
            "feature_stats": feature_stats}


@pytest.mark.parametrize("kde", [False, True], ids=["gaussian", "kde"])
def test_fit_matches_per_column_oracle(cleveland, kde):
    rng = np.random.default_rng(19)
    for trial in range(60):
        ds = cleveland if trial % 2 else select_columns(cleveland, SELECTED_FEATURES)
        ds = ds.subset_rows(rng.permutation(ds.n_rows)[:int(rng.integers(8, ds.n_rows + 1))])
        X = ds.X * np.where([f.kind == CONTINUOUS for f in ds.schema],
                            10.0 ** rng.integers(-6, 7, ds.X.shape[1]), 1.0)
        j = rng.choice([k for k, f in enumerate(ds.schema) if f.kind == CONTINUOUS])
        # every third subset gives one continuous column one value (zero
        # variance, and the mean-based kernel spread), a zero IQR in most
        # rows (the standard-deviation spread), or one value in one class
        if trial % 3 == 0:
            X[:, j] = 3.5
        elif trial % 3 == 1:
            X[:, j] = np.where(rng.random(ds.n_rows) < 0.8, 2.0, X[:, j])
        else:
            X[ds.y == 1, j] = -7.25
        ds = Dataset(schema=ds.schema, X=X, y=ds.y)
        for laplace in (0.0, 0.5, 1.0):
            for adjust in ((0.4, 2.5) if kde else (1.0,)):
                params = NBParams(use_kernel_density=kde, laplace=laplace, bandwidth_adjust=adjust)
                assert repr(nb_fit(ds, params).to_dict()) == repr(oracle_fit(ds, params))


def test_ragged_kde_model_scores_as_scalar_oracle(cleveland):
    """A hand-edited model file may give one class's kernel densities
    different sample counts; each still scores as the scalar oracle says."""
    model = nb_fit(cleveland.subset_rows(np.arange(0, 297, 3)), NBParams(use_kernel_density=True))
    d = model.to_dict()
    kde = [j for j, stat in enumerate(d["feature_stats"][0]) if stat["type"] == "kde"]
    for cut, j in zip((7, 7, 19, None), kde):  # two share a count, one differs, one is whole
        d["feature_stats"][0][j]["samples"] = d["feature_stats"][0][j]["samples"][:cut]
    ragged = NBModel.from_dict(d, cleveland.schema)
    assert len({len(ragged.to_dict()["feature_stats"][0][j]["samples"]) for j in kde}) == 3
    rng = np.random.default_rng(3)
    continuous = [f.kind == CONTINUOUS for f in cleveland.schema]
    X = np.vstack([cleveland.X, cleveland.X + rng.normal(size=cleveland.X.shape) * continuous])
    assert np.array_equal(ragged.log_joint(X), oracle_log_joint(ragged, X))


@st.composite
def row_blocks(draw):
    """(k, n) blocks of 2 to 300 columns, rows at magnitudes 1e-8 to 1e8; in
    some, every row has ties (a few distinct values) or is constant (one)."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-8, 9, (k, 1))
    distinct = draw(st.sampled_from([None, 1, 2, 3, 7]))
    if distinct is not None:
        block = np.take_along_axis(block, rng.integers(0, min(distinct, n), (k, n)), axis=1)
    return block


@given(row_blocks())
@settings(max_examples=400, deadline=None)
def test_quartiles_are_numpy_percentiles_bit_for_bit(block):
    assert _quartiles(block).tobytes() == np.percentile(block, [75, 25], axis=1).tobytes()


@given(row_blocks())
@settings(max_examples=200, deadline=None)
def test_moments_are_numpy_mean_var_and_std_bit_for_bit(block):
    mean, var = _moments(block)
    assert mean.tobytes() == np.mean(block, axis=1, keepdims=True).tobytes()
    assert var.tobytes() == np.var(block, axis=1, ddof=1).tobytes()
    assert np.sqrt(var).tobytes() == np.std(block, axis=1, ddof=1).tobytes()


def oracle_posterior(logs) -> np.ndarray:
    """Posteriors renormalized over each row's finite log-joints through a mask
    of them, uniform for a row with none."""
    finite = np.isfinite(logs)
    none = ~(finite[:, 0] | finite[:, 1])
    logs[none], finite[none] = 0.0, True
    kept = np.where(finite, logs, -np.inf)
    probs = np.where(finite, np.exp(logs - np.maximum(kept[:, :1], kept[:, 1:])), 0.0)
    return probs / (probs[:, :1] + probs[:, 1:])


@given(st.lists(st.tuples(*[st.one_of(st.floats(), st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, -1e308, 5e-324, -745.0]))] * 2),
    min_size=1, max_size=40), st.booleans())
@settings(max_examples=300, deadline=None)
def test_posterior_is_the_masked_rule_bit_for_bit(rows, fortran):
    """Log-joints with NaN, +-inf, +-0, +-1e308 and subnormal cells, in either memory order."""
    logs = np.array(rows, order="F" if fortran else "C")
    with np.errstate(all="ignore"):
        expected = oracle_posterior(logs.copy())
        assert posterior_from_log_joint(logs).tobytes() == expected.tobytes()


def ragged(d):
    """A hand edit of a naive-Bayes model file on all 13 features: class 0's
    kernel densities cut to three sample counts, class 1's first frequency
    table cut to one value."""
    stats = d["model"]["feature_stats"]
    kde = [j for j, stat in enumerate(stats[0]) if stat["type"] == "kde"]
    for cut, j in zip((7, 7, 19, None), kde):
        stats[0][j]["samples"] = stats[0][j]["samples"][:cut]
    table = next(stat for stat in stats[1] if stat["type"] == "frequency")
    table["values"], table["probs"] = table["values"][:1], [0.25]
    return d


@pytest.mark.parametrize("params,edit", [
    (NBParams(), None),
    (NBParams(use_kernel_density=True), None),
    (NBParams(laplace=1.0), None),
    (NBParams(use_kernel_density=True, laplace=0.5, bandwidth_adjust=2.5), None),
    (NBParams(use_kernel_density=True), ragged),
], ids=["gaussian", "kde", "laplace", "kde-smoothed", "kde-ragged"])
def test_model_file_round_trips_byte_for_byte(cleveland, tmp_path, params, edit):
    """save_model -> load_model -> save_model writes the same bytes: the
    model's parameter arrays give back the per-feature records they were read
    from, a hand-edited file's included."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(FittedModel(nb_fit(cleveland, params), cleveland.schema, None), first)
    if edit is not None:
        first.write_text(json.dumps(edit(json.loads(first.read_text())), sort_keys=True,
                                    indent=2))
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()
