"""End-to-end acceptance checks for the whole pipeline.

Each test pins one release gate: headline cross-validated accuracy, the
model ordering in the comparison report, the feature-selection results, grid
reachability of the reference hyperparameters, solver/classifier/metric
correctness against independent oracles, CLI determinism, and the data
pipeline row accounting.
"""
import hashlib
import json
import time

import numpy as np
import pytest

from cadml.classifiers import (
    KNNParams,
    NBParams,
    SVMParams,
    fit_model,
    nb_fit,
    save_model,
)
from cadml.classifiers.svm import dual_objective, kkt_residuals, smo
from cadml.cli import main
from cadml.dataset import SELECTED_FEATURES, load_dataset, select_columns
from cadml.evaluation import ConfusionMatrix, confusion, cross_validate, metrics
from cadml.feature_selection import best_first_subset, rank_features
from cadml.tuning import compare_models, default_grids, grid_search

from conftest import DATA_PATH, labels, make_dataset
from test_knn import oracle_predict
from test_svm import exact_dual, gram_and_labels, qp_oracle, random_instance

METRIC_NAMES = ("accuracy", "recall", "specificity", "precision")
# the six features the paper's feature selection drops
REMOVED_FEATURES = ("Age", "Sex", "Chol", "fbs", "Restbp", "RestECG")


def test_headline_accuracy(cleveland7):
    """Gaussian NB on the 7-feature dataset: mean 10-fold CV accuracy 0.84 +- 0.03."""
    start = time.monotonic()
    result = cross_validate(cleveland7, NBParams(), 10, seed=2018, scaling=False)
    elapsed = time.monotonic() - start
    assert abs(result.mean_accuracy - 0.84) <= 0.03, result.mean_accuracy
    assert elapsed < 5.0, elapsed


def test_model_ordering(cleveland7):
    """NB matches or beats SVM and KNN on all four metrics (within 0.02);
    KNN is strictly worst on at least 3 of 4."""
    start = time.monotonic()
    report = compare_models(cleveland7, 10, seed=2018)
    elapsed = time.monotonic() - start
    d = report.to_dict()
    for metric in METRIC_NAMES:
        nb = d["models"]["nb"][metric]
        for other in ("svm", "knn"):
            assert nb >= d["models"][other][metric] - 0.02, (metric, d["models"])
    knn_strict_min = sum(
        1 for metric in METRIC_NAMES
        if d["models"]["knn"][metric] < min(d["models"]["nb"][metric],
                                            d["models"]["svm"][metric])
    )
    assert knn_strict_min >= 3, d["models"]
    assert elapsed < 60.0, elapsed


def test_feature_ranking_separates_groups(cleveland):
    """Every kept feature outranks every dropped feature in at least one of
    the two rankings."""
    positions = {}
    for evaluator in ("info_gain", "correlation"):
        names = rank_features(cleveland, evaluator).names()
        positions[evaluator] = {n: i for i, n in enumerate(names)}
    for good in SELECTED_FEATURES:
        for bad in REMOVED_FEATURES:
            assert any(positions[e][good] < positions[e][bad]
                       for e in positions), (good, bad)


def test_wrapper_subset_membership(cleveland):
    """The NB wrapper subset keeps >= 4 of the 7 relevant features and at
    most 1 of the 6 dropped ones."""
    result = best_first_subset(cleveland, NBParams(), folds=10, seed=1)
    selected = set(result.selected)
    assert len(selected & set(SELECTED_FEATURES)) >= 4, result.selected
    assert len(selected & set(REMOVED_FEATURES)) <= 1, result.selected


def test_grid_reachability(cleveland7):
    """The reference winners (SVM C=0.25, KNN k=5, NB gaussian) are selected
    or within 0.01 mean accuracy of the selection."""
    reference = {
        "svm": SVMParams(C=0.25, sigma=0.1268408),
        "knn": KNNParams(k=5),
        "nb": NBParams(use_kernel_density=False),
    }
    for algo, grid in default_grids().items():
        result = grid_search(cleveland7, grid, 10, seed=2018)
        accs = dict(result.per_candidate)
        best_acc = accs[result.best]
        ref_acc = accs[reference[algo]]
        assert best_acc - ref_acc <= 0.01, (algo, accs)


@pytest.mark.parametrize("width, accuracies", [
    (7, [0.815287356321839, 0.8151724137931036, 0.8186206896551724]),
    (13, [0.7985057471264368, 0.80183908045977, 0.8219540229885057]),
])
def test_svm_grid_accuracies(cleveland, width, accuracies):
    """The default SVM grid's mean CV accuracies at seed 2018, one per C;
    a single flipped held-out label moves one of them."""
    ds = select_columns(cleveland, SELECTED_FEATURES) if width == 7 else cleveland
    result = grid_search(ds, default_grids()["svm"], 10, seed=2018)
    assert [acc for _, acc in result.per_candidate] == accuracies


@pytest.mark.parametrize("oracle", [exact_dual, qp_oracle])
def test_svm_against_qp_oracle(oracle):
    """50 random small instances: dual objective within 1e-4 of an
    independent solution, KKT residuals <= 1e-3, alphas feasible."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        ds, params = random_instance(rng, n_max=8)
        K, y = gram_and_labels(ds, params)
        res = smo(K, y, params.C, tol=1e-6, max_iter=100000)
        assert np.all(res.alpha >= -1e-12)
        assert np.all(res.alpha <= params.C + 1e-12)
        assert abs(res.alpha @ y) <= 1e-8
        a_star = oracle(K, y, params.C)
        gap = abs(dual_objective(K, y, a_star) - dual_objective(K, y, res.alpha))
        assert gap <= 1e-4, gap
        res_kkt = kkt_residuals(K, y, res.alpha, res.bias, params.C)
        assert res_kkt.max() <= 1e-3, res_kkt.max()


def test_nb_posterior_normalization(cleveland7):
    """Posteriors sum to 1 within 1e-9 on 10^4 random queries."""
    model = nb_fit(cleveland7, NBParams())
    rng = np.random.default_rng(42)
    lo = cleveland7.X.min(axis=0)
    hi = cleveland7.X.max(axis=0)
    post = model.posterior_batch(rng.uniform(lo - 1.0, hi + 1.0, size=(10_000, len(lo))))
    assert post.shape == (10_000, 2)
    assert np.max(np.abs(post.sum(axis=1) - 1.0)) <= 1e-9


def test_nb_matches_bayes_optimal_boundary():
    """On synthetic axis-aligned Gaussians the NB error rate is within 0.02
    of the closed-form Bayes-optimal rule."""
    rng = np.random.default_rng(2024)
    n = 10_000
    mu0, mu1 = np.array([0.0, 0.0]), np.array([1.5, -1.0])
    s0, s1 = np.array([1.0, 2.0]), np.array([1.5, 0.8])
    half = n // 2
    X = np.vstack([rng.normal(mu0, s0, size=(half, 2)),
                   rng.normal(mu1, s1, size=(half, 2))])
    y = np.array([0] * half + [1] * half)
    model = nb_fit(make_dataset(X, y), NBParams())

    Xt = np.vstack([rng.normal(mu0, s0, size=(half, 2)),
                    rng.normal(mu1, s1, size=(half, 2))])
    yt = y.copy()

    def bayes_rule(Q):
        def log_density(Q, mu, s):
            return np.sum(-np.log(s) - 0.5 * ((Q - mu) / s) ** 2, axis=1)
        return (log_density(Q, mu1, s1) > log_density(Q, mu0, s0)).astype(int)

    nb_err = np.mean(labels(model, Xt) != yt)
    bayes_err = np.mean(bayes_rule(Xt) != yt)
    assert abs(nb_err - bayes_err) <= 0.02, (nb_err, bayes_err)


def test_metrics_against_brute_force():
    """metrics(confusion(...)) equals an independent recount on 10^3 random
    prediction/label pairs; zero-denominator cases return the marker."""
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        predicted = rng.integers(0, 2, n)
        actual = rng.integers(0, 2, n)
        cm = confusion(predicted, actual)
        tp = sum(1 for p, a in zip(predicted, actual) if p == 1 and a == 1)
        fp = sum(1 for p, a in zip(predicted, actual) if p == 1 and a == 0)
        tn = sum(1 for p, a in zip(predicted, actual) if p == 0 and a == 0)
        fn = sum(1 for p, a in zip(predicted, actual) if p == 0 and a == 1)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
        rep = metrics(cm)
        assert rep.accuracy == (tp + tn) / n
        assert rep.recall == (tp / (tp + fn) if tp + fn else None)
        assert rep.specificity == (tn / (tn + fp) if tn + fp else None)
        assert rep.precision == (tp / (tp + fp) if tp + fp else None)
    rep = metrics(ConfusionMatrix(tp=0, fp=0, tn=2, fn=0))
    assert rep.recall is None and rep.precision is None


def test_knn_against_exhaustive_oracle():
    """Exact agreement with an exhaustive-scan oracle on 10^3 queries,
    including forced ties from duplicated exemplars."""
    from cadml.classifiers.knn import KNNModel

    rng = np.random.default_rng(77)
    base = rng.normal(size=(25, 3))
    X = np.vstack([base, base[:10]])  # duplicates guarantee distance ties
    y = rng.integers(0, 2, len(X))
    checked = 0
    for k in (1, 3, 5, 7):
        Q = []
        for _ in range(250):
            if rng.random() < 0.5:
                Q.append(rng.normal(size=3))
            else:
                Q.append(base[int(rng.integers(0, 25))])  # lands exactly on exemplars
        Q = np.array(Q)
        # one call over all 250 queries, so they span many blocks of rows
        assert labels(KNNModel(X, y, k), Q).tolist() == [oracle_predict(X, y, k, q) for q in Q]
        checked += len(Q)
    assert checked == 1000


def _run_cli(args):
    try:
        main(list(args))
    except SystemExit as exc:
        assert exc.code in (0, None), (args, exc.code)


def test_cli_determinism(tmp_path):
    """Every subcommand run twice with the same configuration writes
    byte-identical JSON."""
    model_path = tmp_path / "model.json"
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    save_model(fit_model(ds, NBParams()), model_path)
    record = ",".join(str(v) for v in ds.X[0])
    commands = {
        "inspect": ["inspect", "--data", DATA_PATH],
        "rank": ["rank", "--data", DATA_PATH, "--evaluator", "info_gain"],
        "subset": ["subset", "--data", DATA_PATH, "--folds", "5",
                   "--stale-limit", "2"],
        "cv": ["cv", "--data", DATA_PATH],
        "tune": ["tune", "--data", DATA_PATH, "--algorithm", "knn"],
        "compare": ["compare", "--data", DATA_PATH, "--folds", "5"],
        "predict": ["predict", "--model", str(model_path), "--record", record],
        "pipeline": ["pipeline", "--data", DATA_PATH, "--folds", "5", "--stale-limit", "2"],
    }
    for name, args in commands.items():
        outputs = []
        for run in (0, 1):
            out = tmp_path / f"{name}-{run}.json"
            _run_cli(args + ["--format", "json", "--out", str(out)])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
        json.loads(outputs[0])  # must be valid JSON


# sha256 of `tune --algorithm svm` and `compare` JSON and of the model file
# `tune --algorithm svm --save-model` writes, at the defaults (seed 2018, the
# 7-feature view), recorded before the grid search became fold-major, and of
# `cv --algorithm svm` JSON, recorded before its grid search solved the SVM
# folds in lockstep (a one-candidate cv keeps solving them one at a time).
# They hold for the numpy 2.4.6 / OpenBLAS build on x86-64 they were recorded
# with; another BLAS kernel can change the last bits of an SVM's numbers.
PINNED_SHA256 = {
    "cv": "51de2ba84ae431fd72d22dabbc45932f7d59e206ca78b8afcba2930447337545",
    "tune": "d9284aee13f9786d334d1612cb15cc52a5d2bf64c59919d121ab1be18c81a2d6",
    "compare": "d6eb32de7f04e57cb6c238e6d862c8583c8e19f2d3c21fe8613aa7ff14bf5efa",
    "model": "76064fda0310e9221de6f13cbda9a6b12f032e46773a00385930543143ecf653",
}


def test_svm_outputs_pinned(tmp_path):
    """The fitting path may get faster, but these bytes may not change."""
    paths = {name: tmp_path / f"{name}.json" for name in PINNED_SHA256}
    _run_cli(["tune", "--data", DATA_PATH, "--algorithm", "svm", "--format", "json",
              "--out", str(paths["tune"]), "--save-model", str(paths["model"])])
    _run_cli(["compare", "--data", DATA_PATH, "--format", "json", "--out", str(paths["compare"])])
    _run_cli(["cv", "--data", DATA_PATH, "--algorithm", "svm", "--format", "json",
              "--out", str(paths["cv"])])
    assert {name: hashlib.sha256(p.read_bytes()).hexdigest()
            for name, p in paths.items()} == PINNED_SHA256


# sha256 of `tune --algorithm svm --keep all` JSON on a grid of two sigmas x
# two C and of the model file its --save-model writes (seed 2018, all 13
# features), recorded before both SVM solvers returned their dual objective
# in SMOResult. The two sigmas' lockstep solves share one Gram workspace, and
# the 10 folds' 267 and 268 training rows pad each stack.
TWO_SIGMA_GRID = [{"algorithm": "svm", "C": C, "sigma": sigma}
                  for sigma in (0.1268408, 0.05) for C in (0.25, 1.0)]
TWO_SIGMA_PINNED_SHA256 = {
    "tune-all": "88c014647a663b8ca4285cf92b10682c184a47c2b580841292105d75614c5d13",
    "model": "290d866c32906ab68872f80fb624383105654a0a80473cea203af3619d016e99",
}


def test_svm_two_sigma_outputs_pinned(tmp_path):
    """The lockstep solves may be grouped another way, but these bytes may not change."""
    paths = {name: tmp_path / f"{name}.json" for name in TWO_SIGMA_PINNED_SHA256}
    _run_cli(["tune", "--data", DATA_PATH, "--algorithm", "svm", "--keep", "all",
              "--grid", json.dumps(TWO_SIGMA_GRID), "--format", "json",
              "--out", str(paths["tune-all"]), "--save-model", str(paths["model"])])
    assert {name: hashlib.sha256(p.read_bytes()).hexdigest()
            for name, p in paths.items()} == TWO_SIGMA_PINNED_SHA256


# sha256 of `tune --algorithm nb` JSON, of the model file its --save-model
# writes, of `tune --algorithm nb --keep all` and `cv --algorithm nb` JSON,
# and of `subset` JSON, at the defaults (seed 2018, the 7-feature view for
# tune and cv, subset seed 1 on all 13 features), recorded before naive Bayes
# was fit and scored in whole-array passes per class.
NB_PINNED_SHA256 = {
    "tune": "9e5bd2a134a627605a0d061c50d58ffe7ffa7259dac966e5921a5194fdc8c13e",
    "model": "fd2d3ad5171c92050f1747d42de853e8c3b031582f594d08d69ef297254be05b",
    "tune-all": "b72c37a386483566179ee6bb772545aed823e72a67fb7bbb713b66a1dc14b674",
    "cv": "cda37a6aab9dc4a4a34bf8bd082e57dbde061784ac45393f17d09b4098ae752f",
    "subset": "d12f2af83ff5ef1c9189cae502e6fb31c2882a622983769112a5bf8917c84841",
}


def test_nb_outputs_pinned(tmp_path):
    """Naive Bayes and its wrapper may get faster, but these bytes may not change."""
    paths = {name: tmp_path / f"{name}.json" for name in NB_PINNED_SHA256}
    _run_cli(["tune", "--data", DATA_PATH, "--algorithm", "nb", "--format", "json",
              "--out", str(paths["tune"]), "--save-model", str(paths["model"])])
    _run_cli(["tune", "--data", DATA_PATH, "--algorithm", "nb", "--keep", "all",
              "--format", "json", "--out", str(paths["tune-all"])])
    _run_cli(["cv", "--data", DATA_PATH, "--algorithm", "nb", "--format", "json",
              "--out", str(paths["cv"])])
    _run_cli(["subset", "--data", DATA_PATH, "--format", "json", "--out", str(paths["subset"])])
    assert {name: hashlib.sha256(p.read_bytes()).hexdigest()
            for name, p in paths.items()} == NB_PINNED_SHA256


# sha256 of `tune --algorithm knn --keep all` JSON and of the model file its
# --save-model writes, at the defaults (seed 2018, all 13 features), recorded
# before z-scoring took its column stats from the moments pass naive Bayes
# uses. The model z-scores all five continuous columns and stores its scaled
# exemplars; k-NN's arithmetic makes no BLAS call, so no kernel choice moves it.
KNN_PINNED_SHA256 = {
    "tune-all": "848752db7c416a04cbd5fb6627e48d52b21a86491cb3de1c84dd6c6b92039307",
    "model": "82a645813dd3f4f3a551ba75092014772060370d7a4d31e37fc2a584a6e18b00",
}


def test_knn_outputs_pinned(tmp_path):
    """The z-scoring stats may be computed another way, but these bytes may not change."""
    paths = {name: tmp_path / f"{name}.json" for name in KNN_PINNED_SHA256}
    _run_cli(["tune", "--data", DATA_PATH, "--algorithm", "knn", "--keep", "all",
              "--format", "json", "--out", str(paths["tune-all"]),
              "--save-model", str(paths["model"])])
    assert {name: hashlib.sha256(p.read_bytes()).hexdigest()
            for name, p in paths.items()} == KNN_PINNED_SHA256


# sha256 of `pipeline --format json`, the rankings, wrapper subset, cv and
# compare reports in one file, at the defaults and at 5 folds, seed 3, subset
# seed 2 and stale limit 2, recorded before information gain counted each
# feature's bins in one class-count table. The compare report holds SVM
# numbers, so the BLAS caveat of PINNED_SHA256 holds here too.
PIPELINE_PINNED_SHA256 = {
    "defaults": "82e7981a4e943051a099e30f84d848a9a3e0e0cb1cf098aca4e5e36419655e9e",
    "seed-3": "9f39d4ce399f8221877dc9c1bc7ca67812b09226c0a3b1db3920ede160af71a5",
}
PIPELINE_PINNED_ARGS = {
    "defaults": [],
    "seed-3": ["--folds", "5", "--seed", "3", "--subset-seed", "2", "--stale-limit", "2"],
}


def test_pipeline_outputs_pinned(tmp_path):
    """Feature selection may be computed another way, but these bytes may not change."""
    paths = {name: tmp_path / f"{name}.json" for name in PIPELINE_PINNED_SHA256}
    for name, args in PIPELINE_PINNED_ARGS.items():
        _run_cli(["pipeline", "--data", DATA_PATH, *args, "--format", "json",
                  "--out", str(paths[name])])
    assert {name: hashlib.sha256(p.read_bytes()).hexdigest()
            for name, p in paths.items()} == PIPELINE_PINNED_SHA256


def test_data_pipeline_accounting(cleveland):
    """303 parsed, 6 dropped, 297 kept, 160/137 class balance — verified
    against a direct count over the raw file."""
    with open(DATA_PATH, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    assert len(lines) == 303
    incomplete = sum(1 for ln in lines if "?" in ln)
    assert incomplete == 6
    complete = [ln for ln in lines if "?" not in ln]
    raw_targets = [float(ln.split(",")[-1]) for ln in complete]
    negatives = sum(1 for t in raw_targets if t == 0.0)
    positives = len(raw_targets) - negatives
    assert (negatives, positives) == (160, 137)
    assert cleveland.n_rows == 297
    assert cleveland.class_counts() == (160, 137)
