import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml import classifiers
from cadml.classifiers import KNNParams, NBParams, SVMParams, fit_model, params_from_dict, svm
from cadml.classifiers.svm import smo
from cadml.dataset import SELECTED_FEATURES, load_dataset, select_columns
from cadml.errors import AllCandidatesFailed, DataError, TrainingError
from cadml.evaluation import (
    ConfusionMatrix,
    CVResult,
    confusion,
    cross_validate,
    metrics,
    stratified_folds,
)
from cadml.tuning import (
    Grid,
    TuneResult,
    compare_models,
    default_grids,
    default_scaling,
    grid_search,
)

from conftest import DATA_PATH, make_dataset


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


@pytest.mark.parametrize("kwargs", [
    {"C": 0.0}, {"C": -1.0}, {"C": math.inf}, {"C": math.nan},
    {"sigma": 0.0}, {"sigma": -1.0}, {"sigma": math.inf}, {"sigma": math.nan},
])
def test_svm_params_reject_non_positive_or_non_finite(kwargs):
    with pytest.raises(ValueError, match="^C and sigma must be positive and finite$"):
        SVMParams(**kwargs)


def test_params_from_dict_reads_json_numbers():
    assert params_from_dict({"algorithm": "svm", "C": 1, "sigma": 0.5}) == SVMParams(C=1.0, sigma=0.5)
    assert params_from_dict({"algorithm": "knn", "k": 3.0}) == KNNParams(k=3)
    with pytest.raises(ValueError):
        params_from_dict({"algorithm": "svm", "C": 10**400, "sigma": 0.5})


def per_fold_cross_validate(ds, params, folds, scaling):
    """CV as first written: fit_model on each training fold, which z-scores
    the fold and, for an SVM, builds its Gram matrix again for every call."""
    per_fold, pooled = [], ConfusionMatrix(0, 0, 0, 0)
    for f in range(folds.k):
        fitted = fit_model(ds.subset_rows(folds.train_indices(f)), params, scaling=scaling)
        test_idx = folds.test_indices(f)
        cm = confusion(fitted.predict_batch(ds.X[test_idx]), ds.y[test_idx])
        per_fold.append(metrics(cm))
        pooled = pooled + cm
    return CVResult(per_fold=tuple(per_fold), pooled=metrics(pooled),
                    mean_accuracy=float(np.mean([r.accuracy for r in per_fold])), folds=folds)


def candidate_major_search(ds, grid, k, seed):
    """grid_search as first written: each candidate cross-validated on its
    own, a TrainingError dropping it, then the first best refit."""
    scaling = default_scaling(grid.algorithm)
    folds = stratified_folds(ds.y, k, seed)
    per_candidate, results, errors = [], [], []
    for params in grid.candidates:
        try:
            cv = per_fold_cross_validate(ds, params, folds, scaling)
        except TrainingError as exc:
            errors.append((params, exc))
            continue
        per_candidate.append((params, cv.mean_accuracy))
        results.append(cv)
    if not per_candidate:
        raise AllCandidatesFailed(f"every candidate failed: {errors}")
    best_idx = int(np.argmax([acc for _, acc in per_candidate]))
    best = per_candidate[best_idx][0]
    return TuneResult(per_candidate=tuple(per_candidate), best=best,
                      best_cv=results[best_idx], final_model=fit_model(ds, best, scaling=scaling))


def outcome(search, *args):
    """The report and final-model JSON of a search, or its error."""
    try:
        result = search(*args)
    except (TrainingError, DataError) as exc:
        return type(exc).__name__, str(exc)
    return (json.dumps(result.to_dict(), sort_keys=True),
            json.dumps(result.final_model.to_dict(), sort_keys=True))


EQUIVALENCE_GRIDS = {
    **{name: ("7", 10, grid) for name, grid in default_grids().items()},
    "svm-two-sigmas": ("13", 10, Grid("svm", (SVMParams(C=0.5, sigma=0.05),
                                              SVMParams(C=2.0, sigma=0.2),
                                              SVMParams(C=1.0, sigma=0.05)))),
    # a training fold holds 267 or 268 rows, too few for k = 269
    "knn-one-fails": ("7", 10, Grid("knn", (KNNParams(k=3), KNNParams(k=269), KNNParams(k=7)))),
    "knn-all-fail": ("7", 10, Grid("knn", (KNNParams(k=269), KNNParams(k=301)))),
    # each fold's held-out rows are ranked once, at the largest k, whatever
    # the candidates' order, and a repeated k votes as its first copy
    "knn-unsorted-repeated": ("7", 10, Grid("knn", (KNNParams(k=9), KNNParams(k=3),
                                                   KNNParams(k=9), KNNParams(k=1)))),
    # the first of 4 training folds holds 222 rows (the others 223), too few
    # for k = 223, which is dropped there; every fold is ranked at k = 7
    "knn-fails-on-some-folds": ("7", 4, Grid("knn", (KNNParams(k=5), KNNParams(k=223),
                                                    KNNParams(k=7)))),
    # the second candidate's bandwidth overflows; the error names it
    "nb-overflows": ("7", 10, Grid("nb", (NBParams(), NBParams(True, 0.0, 1e-308)))),
    # C = 1e8 does not converge within 500 n steps on the first failing fold
    # (NotConverged), while the other two C of its sigma do; the three share
    # each fold group's lockstep solve
    "svm-one-does-not-converge": ("7", 10, Grid("svm", (SVMParams(C=0.25), SVMParams(C=1e8),
                                                       SVMParams(C=1.0)))),
    # sigma = 1e308 overflows the Gram matrix; its group's lockstep solve
    # gives way to one fit per problem, whose error names the first candidate
    # of that sigma
    "svm-one-sigma-overflows": ("7", 10, Grid("svm", (
        SVMParams(C=0.5), SVMParams(C=0.5, sigma=1e308), SVMParams(C=1.0, sigma=1e308),
        SVMParams(C=1.0)))),
    # 11 folds of 270 training rows go in groups of 10 and 1; the last
    # group's one problem is solved alone by its fit
    "svm-11-folds": ("7", 11, Grid("svm", (SVMParams(),))),
}


def recorded_fit_errors(monkeypatch, search, *args):
    """outcome(search, *args), and the text of each error svm_fit raised."""
    errors, fit = [], classifiers.svm_fit

    def recording_fit(*a, **kw):
        try:
            return fit(*a, **kw)
        except Exception as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            raise

    monkeypatch.setattr(classifiers, "svm_fit", recording_fit)
    try:
        return outcome(search, *args), errors
    finally:
        monkeypatch.undo()


# both searches run a fold of C = 1e8 to the 133,500-step cap (about 2 s
# each), so this grid runs at the paper seed only
ONE_SEED_GRIDS = {"svm-one-does-not-converge"}


@pytest.mark.parametrize("name, seed", [(name, seed) for name in EQUIVALENCE_GRIDS
                                        for seed in (2018, 1)
                                        if seed == 2018 or name not in ONE_SEED_GRIDS])
def test_grid_search_matches_candidate_major_oracle(name, seed, cleveland, cleveland7,
                                                   monkeypatch):
    """The fold-major search gives the candidate-major one's report, final
    model and errors, byte for byte, and cross_validate each candidate's CV."""
    width, k, grid = EQUIVALENCE_GRIDS[name]
    ds = {"7": cleveland7, "13": cleveland}[width]
    got, fit_errors = recorded_fit_errors(monkeypatch, grid_search, ds, grid, k, seed)
    want, oracle_fit_errors = recorded_fit_errors(monkeypatch, candidate_major_search,
                                                  ds, grid, k, seed)
    assert got == want
    if name == "knn-one-fails":
        report = json.loads(got[0])
        assert [c["params"]["k"] for c in report["candidates"]] == [3, 7]
    elif name == "knn-all-fail":
        assert got == ("AllCandidatesFailed", "every candidate failed: ["
                       "(KNNParams(k=269), TooFewRows('k=269 exceeds 267 exemplars')), "
                       "(KNNParams(k=301), TooFewRows('k=301 exceeds 267 exemplars'))]")
    elif name == "knn-fails-on-some-folds":
        report = json.loads(got[0])
        assert [c["params"]["k"] for c in report["candidates"]] == [5, 7]
        if seed == 2018:  # as `cadml tune --folds 4` reports on this grid
            assert report["best"]["k"] == 5 and round(report["cv"]["mean_accuracy"], 4) == 0.8385
    elif name == "nb-overflows":
        assert got[0] == "DataError" and "'bandwidth_adjust': 1e-308" in got[1]
    elif name == "svm-one-does-not-converge":
        # the dropped candidate failed on the same fold, after as many steps
        report = json.loads(got[0])
        assert [c["params"]["C"] for c in report["candidates"]] == [0.25, 1.0]
        assert fit_errors == oracle_fit_errors
        assert len(fit_errors) == 1 and "did not converge in" in fit_errors[0]
    elif name == "svm-one-sigma-overflows":
        assert got[0] == "DataError" and "'C': 0.5, 'sigma': 1e+308" in got[1]
    elif name == "svm-11-folds":
        # smo runs for the last fold group's one problem and the refit only
        calls = []
        monkeypatch.setattr(svm, "smo", lambda *a: calls.append(a) or smo(*a))
        grid_search(ds, grid, k, seed)
        assert [len(y) for _, y, _ in calls] == [270, 297]
    elif name in default_grids():
        folds = stratified_folds(ds.y, k, seed)
        scaling = default_scaling(grid.algorithm)
        for params in grid.candidates:
            assert (cross_validate(ds, params, k, seed, scaling=scaling).to_dict()
                    == per_fold_cross_validate(ds, params, folds, scaling).to_dict())


def test_knn_grid_overflow_names_each_candidate(tmp_path):
    """Unscaled, MaxHeart = 1e200 on line 5 overflows every k-NN distance
    to that row; the shared ranking leaves the first candidate the error its
    own cross_validate raises, naming its k."""
    rows = Path(DATA_PATH).read_text().splitlines()
    rows[4] = ",".join("1e200" if c == 7 else v for c, v in enumerate(rows[4].split(",")))
    huge = tmp_path / "huge.data"
    huge.write_text("\n".join(rows) + "\n")
    view = select_columns(load_dataset(huge), SELECTED_FEATURES)
    with pytest.raises(DataError) as want:
        cross_validate(view, KNNParams(k=5), 10, 2018, scaling=False)
    with pytest.raises(DataError) as got:
        grid_search(view, default_grids()["knn"], 10, 2018, scaling=False)
    assert str(got.value) == str(want.value) == (
        "a feature value or hyperparameter is too large: the knn model with "
        "{'algorithm': 'knn', 'k': 5} overflowed (overflow encountered in square)")
