import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml.classifiers import KNNParams, NBParams, SVMParams, params_from_dict
from cadml.errors import AllCandidatesFailed
from cadml.tuning import (
    Grid,
    compare_models,
    default_grids,
    default_scaling,
    grid_search,
)

from conftest import make_dataset


def test_default_grids_contents():
    grids = default_grids()
    assert [c.C for c in grids["svm"].candidates] == [0.25, 0.5, 1.0]
    assert all(c.sigma == 0.1268408 for c in grids["svm"].candidates)
    assert [c.k for c in grids["knn"].candidates] == [5, 7, 9]
    assert [c.use_kernel_density for c in grids["nb"].candidates] == [True, False]
    assert all(c.laplace == 0.0 and c.bandwidth_adjust == 1.0
               for c in grids["nb"].candidates)


def test_default_scaling():
    assert default_scaling("svm") and default_scaling("knn")
    assert not default_scaling("nb")


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid("nb", ())
    with pytest.raises(ValueError):
        Grid("nb", (KNNParams(k=5),))


def test_grid_search_selects_best(tiny_separable):
    grid = Grid("knn", (KNNParams(k=3), KNNParams(k=5)))
    result = grid_search(tiny_separable, grid, 4, seed=0)
    assert result.best in (KNNParams(k=3), KNNParams(k=5))
    assert len(result.per_candidate) == 2
    best_acc = dict(result.per_candidate)[result.best]
    assert best_acc == max(acc for _, acc in result.per_candidate)
    preds = result.final_model.predict_batch(tiny_separable.X)
    assert np.array_equal(preds, tiny_separable.y)


def test_grid_search_tie_breaks_by_declaration_order(tiny_separable):
    # identical candidates tie exactly; the first one must win
    grid = Grid("nb", (NBParams(laplace=0.0), NBParams(laplace=0.0)))
    result = grid_search(tiny_separable, grid, 4, seed=0)
    assert result.best is grid.candidates[0]


def test_grid_search_all_candidates_failed():
    # every training fold has 4 exemplars, too few for k=5 neighbors
    ds = make_dataset(np.arange(6.0), np.array([0, 0, 0, 1, 1, 1]))
    with pytest.raises(AllCandidatesFailed):
        grid_search(ds, Grid("knn", (KNNParams(k=5),)), 3, seed=0)


def test_grid_search_shared_folds(tiny_separable):
    r1 = grid_search(tiny_separable, default_grids()["knn"], 4, seed=9)
    r2 = grid_search(tiny_separable, default_grids()["nb"], 4, seed=9)
    assert np.array_equal(r1.best_cv.folds.fold_of_row, r2.best_cv.folds.fold_of_row)


def test_compare_models_shape(tiny_separable):
    report = compare_models(tiny_separable, 4, seed=0)
    d = report.to_dict()
    assert set(d["models"]) == {"nb", "knn", "svm"}
    for algo in ("nb", "knn", "svm"):
        row = d["models"][algo]
        for metric in ("accuracy", "recall", "specificity", "precision"):
            assert row[metric] is None or 0.0 <= row[metric] <= 1.0
    assert set(d["best_per_metric"]) == {"accuracy", "recall", "specificity",
                                         "precision"}


def test_compare_models_dominant_feature():
    # one feature equals the label: every model should be perfect
    rng = np.random.default_rng(17)
    y = np.array([0, 1] * 20)
    X = np.column_stack([y.astype(float), rng.normal(size=40)])
    ds = make_dataset(X, y)
    report = compare_models(ds, 5, seed=0)
    d = report.to_dict()
    for algo in ("nb", "knn", "svm"):
        assert d["models"][algo]["accuracy"] == 1.0


@given(st.one_of(
    st.builds(NBParams,
              use_kernel_density=st.booleans(),
              laplace=st.floats(0, 5),
              bandwidth_adjust=st.floats(0.1, 5)),
    st.builds(KNNParams, k=st.integers(0, 10).map(lambda i: 2 * i + 1)),
    st.builds(SVMParams, C=st.floats(0.01, 10), sigma=st.floats(0.01, 10)),
))
@settings(max_examples=100)
def test_params_dict_roundtrip(params):
    assert params_from_dict(params.to_dict()) == params


@pytest.mark.parametrize("kwargs", [
    {"laplace": math.nan}, {"laplace": math.inf},
    {"bandwidth_adjust": math.nan}, {"bandwidth_adjust": math.inf},
])
def test_nb_params_reject_non_finite(kwargs):
    with pytest.raises(ValueError):
        NBParams(**kwargs)


def test_params_from_dict_reads_json_numbers():
    assert params_from_dict({"algorithm": "svm", "C": 1, "sigma": 0.5}) == SVMParams(C=1.0, sigma=0.5)
    assert params_from_dict({"algorithm": "knn", "k": 3.0}) == KNNParams(k=3)
    with pytest.raises(ValueError):
        params_from_dict({"algorithm": "svm", "C": 10**400, "sigma": 0.5})
