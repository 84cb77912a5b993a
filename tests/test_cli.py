import csv
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cadml.cli
from cadml import __version__
from cadml.classifiers import ALGORITHMS, NBParams, fit_model, save_model
from cadml.cli import Report, cli, main
from cadml.dataset import SELECTED_FEATURES, load_dataset, select_columns
from cadml.feature_selection import EVALUATORS
from cadml.tuning import default_grids, default_scaling

from conftest import DATA_PATH


def run_cli(args):
    try:
        main(list(args))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    return 0


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_inspect_text(capsys):
    assert run_cli(["inspect", "--data", DATA_PATH]) == 0
    out = capsys.readouterr().out
    assert "303 parsed, 6 dropped, 297 kept" in out
    assert "160 negative / 137 positive" in out


def test_inspect_json(tmp_path):
    out = tmp_path / "inspect.json"
    assert run_cli(["inspect", "--data", DATA_PATH, "--format", "json",
                    "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["config"]["tool_version"] == __version__
    assert payload["report"]["parsed"] == 303
    assert payload["report"]["kept"] == 297
    assert len(payload["report"]["features"]) == 13


def test_inspect_csv(capsys):
    assert run_cli(["inspect", "--data", DATA_PATH, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "feature,kind,min,max"
    assert len(lines) == 14


def test_rank_both_evaluators(tmp_path):
    for evaluator in ("info_gain", "correlation"):
        out = tmp_path / f"{evaluator}.json"
        assert run_cli(["rank", "--data", DATA_PATH, "--evaluator", evaluator,
                        "--format", "json", "--out", str(out)]) == 0
        entries = read_json(out)["report"]["entries"]
        assert len(entries) == 13
        scores = [e["score"] for e in entries]
        assert scores == sorted(scores, reverse=True)


def test_rank_keep_subset(capsys):
    assert run_cli(["rank", "--data", DATA_PATH, "--evaluator", "correlation",
                    "--keep", "Age,Sex,Chol"]) == 0
    out = capsys.readouterr().out
    assert "Age" in out and "Thal" not in out


def test_cv_defaults_to_selected_features(tmp_path):
    out = tmp_path / "cv.json"
    assert run_cli(["cv", "--data", DATA_PATH, "--format", "json",
                    "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["config"]["keep"] == list(SELECTED_FEATURES)
    assert payload["config"]["algorithm"] == "nb"
    assert payload["config"]["seed"] == 2018
    assert payload["config"]["scaling"] is False
    assert payload["report"]["pooled"]["matrix"]["tp"] > 0
    assert len(payload["report"]["per_fold"]) == 10


def test_cv_keep_all_and_algorithms(tmp_path):
    out = tmp_path / "cv.json"
    assert run_cli(["cv", "--data", DATA_PATH, "--keep", "all",
                    "--algorithm", "knn", "--folds", "5",
                    "--format", "json", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["config"]["keep"] == "all"
    assert payload["config"]["scaling"] is True
    assert len(payload["report"]["per_fold"]) == 5


def test_tune_and_predict_roundtrip(tmp_path):
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "tune.json"
    assert run_cli(["tune", "--data", DATA_PATH, "--algorithm", "nb",
                    "--save-model", str(model_path),
                    "--format", "json", "--out", str(report_path)]) == 0
    payload = read_json(report_path)
    assert len(payload["report"]["candidates"]) == 2
    assert payload["report"]["best"]["algorithm"] == "nb"

    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    record = ",".join(str(v) for v in ds.X[0])
    pred_path = tmp_path / "pred.json"
    assert run_cli(["predict", "--model", str(model_path), "--record", record,
                    "--format", "json", "--out", str(pred_path)]) == 0
    pred = read_json(pred_path)["report"]["predictions"][0]
    assert pred["label"] in (0, 1)
    assert abs(sum(pred["posterior"]) - 1.0) < 1e-9


def test_tune_custom_grid(tmp_path):
    grid = json.dumps([{"algorithm": "knn", "k": 3}, {"algorithm": "knn", "k": 5}])
    out = tmp_path / "tune.json"
    assert run_cli(["tune", "--data", DATA_PATH, "--algorithm", "knn",
                    "--grid", grid, "--format", "json", "--out", str(out)]) == 0
    payload = read_json(out)
    assert [c["params"]["k"] for c in payload["report"]["candidates"]] == [3, 5]


def test_predict_without_records_is_usage_error(tmp_path):
    model_path = tmp_path / "model.json"
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    save_model(fit_model(ds, NBParams()), model_path)
    assert run_cli(["predict", "--model", str(model_path)]) == 1


def test_predict_wrong_record_length(tmp_path):
    model_path = tmp_path / "model.json"
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    save_model(fit_model(ds, NBParams()), model_path)
    assert run_cli(["predict", "--model", str(model_path),
                    "--record", "1,2,3"]) == 2


GOOD_RECORD = "1,150,1,2.3,2,0,7"  # the 7-feature view, Cp first


def edit_json(change):
    """A model-file edit that applies change to the parsed model in place."""
    def edit(text):
        d = json.loads(text)
        change(d)
        return json.dumps(d)
    return edit


def cut_exemplar_rows(d):
    for row in d["model"]["exemplars"]:
        row.pop()


def first_label_two(d):
    d["model"]["labels"][0] = 2


def first_exemplar_string(d):
    d["model"]["exemplars"][0][0] = str(d["model"]["exemplars"][0][0])


def first_exemplar_bools(d):
    d["model"]["exemplars"][0] = [False] * len(d["model"]["exemplars"][0])


def first_labels_bools(d):
    d["model"]["labels"][:3] = [True, False, 1.0]


def first_prob_negative(d):
    d["model"]["feature_stats"][0][0]["probs"][0] = -0.1


def set_first_table_values(values):
    """Set the values of Cp's frequency table, the first of the 7-feature view."""
    return edit_json(lambda d: d["model"]["feature_stats"][0][0].update(values=values))


def set_first_allowed_values(values):
    """Set the allowed values of Cp, the first feature of the 7-feature view."""
    return edit_json(lambda d: d["schema"][0].update(allowed_values=values))


def first_std_zero(d):
    d["scaling"]["std"][0] = 0


def set_gaussian(key, value):
    """Edit the Gaussian of MaxHeart, the second feature of the 7-feature view."""
    def change(d):
        d["model"]["feature_stats"][0][1][key] = value
    return edit_json(change)


@pytest.mark.parametrize("record,algorithm,edit_model", [
    ("x,150,1,2.3,2,0,7", "nb", None),
    ("?,150,1,2.3,2,0,7", "nb", None),
    ("nan,150,1,2.3,2,0,7", "nb", None),
    ("1,inf,1,2.3,2,0,7", "nb", None),
    ("5,150,1,2.3,2,0,7", "nb", None),  # Cp outside 1..4
    (GOOD_RECORD, "nb", lambda text: '{"format_version": 1}'),
    (GOOD_RECORD, "nb", lambda text: text.replace('"format_version": 1', '"format_version": 2')),
    (GOOD_RECORD, "nb", lambda text: "[]"),
    (GOOD_RECORD, "nb", lambda text: text[:-10]),  # truncated JSON
    # deeper than the json decoder's recursion limit
    (GOOD_RECORD, "nb", lambda text: "[" * 3000 + "]" * 3000),
    (GOOD_RECORD, "nb", lambda text: text.replace('"algorithm": "nb"', '"algorithm": "forest"')),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"]["feature_stats"][1].pop())),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"]["priors"].pop())),
    # feature_stats[0][0] is the frequency table of Cp
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"]["feature_stats"][0][0]["probs"].pop())),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"]["feature_stats"][0][0].update(
        values=[], probs=[]))),
    (GOOD_RECORD, "knn", edit_json(lambda d: d["scaling"]["mean"].pop())),
    (GOOD_RECORD, "knn", edit_json(lambda d: d["model"]["labels"].pop())),
    (GOOD_RECORD, "knn", edit_json(first_label_two)),
    (GOOD_RECORD, "knn", edit_json(cut_exemplar_rows)),
    (GOOD_RECORD, "svm", edit_json(lambda d: d["model"]["dual_coef"].pop())),
    (GOOD_RECORD, "nb", set_gaussian("var", 0)),
    (GOOD_RECORD, "nb", set_gaussian("var", -1)),
    (GOOD_RECORD, "nb", set_gaussian("mean", "x")),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"].update(priors=[0, 1]))),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"].update(priors=[-1, 1]))),
    (GOOD_RECORD, "knn", edit_json(first_std_zero)),
    (GOOD_RECORD, "knn", edit_json(lambda d: d["model"].update(k=999))),
    (GOOD_RECORD, "nb", edit_json(first_prob_negative)),
    (GOOD_RECORD, "svm", edit_json(lambda d: d["model"].update(bias=float("nan")))),
    (GOOD_RECORD, "svm", edit_json(lambda d: d["model"]["params"].update(sigma=float("inf")))),
    (GOOD_RECORD, "svm", edit_json(lambda d: d["model"]["params"].update(C=0))),
    (GOOD_RECORD, "svm", edit_json(lambda d: d["model"]["params"].update(sigma=-0.5))),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"]["params"].update(
        use_kernel_density="false"))),
    (GOOD_RECORD, "knn", edit_json(lambda d: d["model"].update(k=3.9))),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"]["params"].update(laplace=float("nan")))),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"]["params"].update(
        bandwidth_adjust=float("nan")))),
    (GOOD_RECORD, "svm", edit_json(lambda d: d["model"].update(converged="no"))),
    (GOOD_RECORD, "svm", edit_json(lambda d: d["model"].update(dual_objective=True))),
    (GOOD_RECORD, "knn", edit_json(lambda d: d["model"].update(version=2))),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["model"].update(version="x"))),
    (GOOD_RECORD, "nb", edit_json(lambda d: d.update(format_version=True))),
    (GOOD_RECORD, "svm", edit_json(lambda d: d["model"].update(bias="0.25"))),
    (GOOD_RECORD, "svm", edit_json(lambda d: d["model"].update(bias=10**400))),
    (GOOD_RECORD, "knn", edit_json(first_exemplar_string)),
    (GOOD_RECORD, "knn", edit_json(first_exemplar_bools)),
    (GOOD_RECORD, "knn", edit_json(first_labels_bools)),
    (GOOD_RECORD, "nb", set_first_table_values([[1.0], [2.0], [3.0], [4.0]])),
    (GOOD_RECORD, "nb", set_first_table_values("abcd")),
    (GOOD_RECORD, "nb", set_first_table_values(["1", "2", "3", "4"])),
    (GOOD_RECORD, "nb", set_first_table_values([True, False, True, False])),
    (GOOD_RECORD, "nb", set_first_table_values(None)),
    (GOOD_RECORD, "nb", set_first_table_values([None, None, None, None])),
    (GOOD_RECORD, "nb", set_first_allowed_values(["1", "2", "3", "4"])),
    (GOOD_RECORD, "nb", set_first_allowed_values("abcd")),
    (GOOD_RECORD, "nb", set_first_allowed_values([True, 2.0, 3.0, 4.0])),
    (GOOD_RECORD, "knn", set_first_allowed_values([[1.0], [2.0], [3.0], [4.0]])),
    (GOOD_RECORD, "nb", set_first_allowed_values([])),
    (GOOD_RECORD, "nb", edit_json(lambda d: d["schema"][1].update(allowed_values=[]))),
], ids=["non-numeric", "missing", "nan", "inf", "unseen-Cp", "no-schema", "format-2",
        "not-a-dict", "truncated", "nested-3000-deep", "unknown-algorithm", "nb-feature-stats-cut",
        "nb-one-prior", "nb-probs-cut", "nb-empty-table", "knn-scaling-cut", "knn-labels-cut",
        "knn-label-2", "knn-exemplars-narrow", "svm-dual-coef-cut", "nb-var-0",
        "nb-var-negative", "nb-mean-string", "nb-prior-0", "nb-prior-negative", "knn-std-0",
        "knn-k-999", "nb-prob-negative", "svm-bias-nan", "svm-sigma-inf",
        "svm-C-0", "svm-sigma-negative",
        "nb-kde-string", "knn-k-fraction", "nb-laplace-nan", "nb-bandwidth-nan",
        "svm-converged-string", "svm-dual-objective-bool", "knn-version-2", "nb-version-string",
        "format-true", "svm-bias-string", "svm-bias-huge-int", "knn-exemplar-string",
        "knn-exemplar-bools", "knn-labels-bools", "nb-values-nested", "nb-values-string",
        "nb-values-strings", "nb-values-bools", "nb-values-null", "nb-values-nulls", "allowed-values-strings",
        "allowed-values-string", "allowed-values-bool", "knn-allowed-values-nested",
        "allowed-values-empty", "continuous-allowed-values-empty"])
def test_predict_bad_input_is_data_error(tmp_path, capsys, record, algorithm, edit_model):
    model_path = tmp_path / "model.json"
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    save_model(fit_model(ds, ALGORITHMS[algorithm].params(),
                         scaling=default_scaling(algorithm)), model_path)
    if edit_model is not None:
        model_path.write_text(edit_model(model_path.read_text()))
    assert run_cli(["predict", "--model", str(model_path), "--record", record]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    # a bad model file is reported at load, not when the model is applied
    assert ("is not a cadml model" in err) == (edit_model is not None)


def test_kde_without_samples_is_data_error(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    save_model(fit_model(ds, NBParams(use_kernel_density=True)), model_path)
    # feature_stats[0][1] is the kernel density of MaxHeart in class 0
    cut = edit_json(lambda d: d["model"]["feature_stats"][0][1].update(samples=[]))
    model_path.write_text(cut(model_path.read_text()))
    assert run_cli(["predict", "--model", str(model_path), "--record", GOOD_RECORD]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "is not a cadml model" in err
    assert "kde without samples" in err


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_value_too_large_to_score_is_data_error(tmp_path, capsys, algorithm):
    """MaxHeart = 1e200 overflows when squared; predict, CV, the wrapper subset
    search and the correlation ranking on such a value stop with a data error
    instead of a numpy warning and a silent result."""
    model_path = tmp_path / "model.json"
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    save_model(fit_model(ds, ALGORITHMS[algorithm].params(),
                         scaling=default_scaling(algorithm)), model_path)
    huge = tmp_path / "huge.data"
    rows = Path(DATA_PATH).read_text().splitlines()
    # column 7 of the raw table is MaxHeart
    rows[0] = ",".join("1e200" if c == 7 else v for c, v in enumerate(rows[0].split(",")))
    huge.write_text("\n".join(rows) + "\n")
    for args in (["predict", "--model", str(model_path), "--record", "4,1e200,0,6.2,3,3,7"],
                 ["cv", "--data", str(huge), "--algorithm", algorithm],
                 ["subset", "--data", str(huge)],
                 ["rank", "--data", str(huge), "--evaluator", "correlation"]):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "too large" in err
        assert "Warning" not in err and "Traceback" not in err
    # information gain only compares and bins values, so nothing overflows
    assert run_cli(["rank", "--data", str(huge), "--evaluator", "info_gain"]) == 0
    assert capsys.readouterr().err == ""


def test_overflowing_hyperparameter_is_named(tmp_path, capsys):
    """An overflow inside a model names its algorithm and hyperparameters,
    here a bandwidth of 1e-308 on ordinary feature values (exit 2); one while
    z-scoring the training rows keeps the feature-value message."""
    grid = ('[{"algorithm":"nb","use_kernel_density":true,"laplace":0,'
            '"bandwidth_adjust":1e-308}]')
    assert run_cli(["tune", "--data", DATA_PATH, "--algorithm", "nb", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "data error: a feature value or hyperparameter is too large: the nb model with "
        "{'algorithm': 'nb', 'use_kernel_density': True, 'laplace': 0.0, "
        "'bandwidth_adjust': 1e-308} overflowed (")
    huge = tmp_path / "huge.data"
    rows = Path(DATA_PATH).read_text().splitlines()
    rows[0] = ",".join("1e200" if c == 7 else v for c, v in enumerate(rows[0].split(",")))
    huge.write_text("\n".join(rows) + "\n")
    assert run_cli(["cv", "--data", str(huge), "--algorithm", "svm"]) == 2
    assert capsys.readouterr().err.startswith("data error: a feature value is too large (")


def test_svm_that_does_not_converge_is_training_error():
    """C = 1e300 with sigma = 1e-300 makes every kernel entry 1.0, and SMO
    never meets its stopping test. The first fold's fit stops at the cap of
    500 steps per training row, and tune exits 3 with a message naming C,
    sigma and the step count, not a traceback. This takes about 3 s on a
    2-core host, against a 60 s limit (without the cap it ran past 5 minutes)."""
    grid = '[{"algorithm":"svm","C":1e300,"sigma":1e-300}]'
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "cadml.cli", "tune", "--data", DATA_PATH,
                           "--algorithm", "svm", "--grid", grid],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3 and "Traceback" not in proc.stderr
    assert ("the SVM with C=1e+300, sigma=1e-300 did not converge in 133500 SMO steps"
            in proc.stderr)


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_predict_data_matches_predict_batch(tmp_path, algorithm):
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    fitted = fit_model(ds, ALGORITHMS[algorithm].params(), scaling=default_scaling(algorithm))
    model_path, rows_path, out = tmp_path / "model.json", tmp_path / "rows.csv", tmp_path / "p.json"
    save_model(fitted, model_path)
    rows_path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in ds.X))
    assert run_cli(["predict", "--model", str(model_path), "--data", str(rows_path),
                    "--format", "json", "--out", str(out)]) == 0
    predictions = read_json(out)["report"]["predictions"]
    expected = fitted.predict_batch(ds.X)
    assert [p["label"] for p in predictions] == expected.tolist()
    for x, label in zip(ds.X[:20], expected):
        assert fitted.predict(x) == label
    if algorithm == "nb":
        assert [p["posterior"] for p in predictions] == fitted.posterior_batch(ds.X).tolist()


COMMANDS = {
    "inspect": ["inspect", "--data", DATA_PATH],
    "rank": ["rank", "--data", DATA_PATH, "--evaluator", "info_gain"],
    "subset": ["subset", "--data", DATA_PATH, "--folds", "5", "--stale-limit", "1"],
    "cv": ["cv", "--data", DATA_PATH, "--algorithm", "svm"],
    "tune": ["tune", "--data", DATA_PATH, "--algorithm", "knn"],
    "compare": ["compare", "--data", DATA_PATH, "--folds", "5"],
    "predict": ["predict", "--record", GOOD_RECORD, "--record", "4,109,1,2.4,2,1,3"],
}


@pytest.fixture(scope="module")
def nb_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "nb.json"
    save_model(fit_model(select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES),
                         NBParams()), path)
    return str(path)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_in_every_format(tmp_path, nb_model_path, command, fmt):
    out = tmp_path / f"report.{fmt}"
    args = COMMANDS[command] + (["--model", nb_model_path] if command == "predict" else [])
    assert run_cli([*args, "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        assert json.loads(text)["config"]["command"] == command
    elif fmt == "csv":
        header, *rows = csv.reader(text.splitlines())
        assert rows and all(len(row) == len(header) for row in rows)
        if command == "tune":
            assert [json.loads(row[0]) for row in rows] == \
                [p.to_dict() for p in default_grids()["knn"].candidates]
    else:
        assert text.endswith("\n") and len(text.splitlines()) > 1


def test_exit_code_usage_error():
    assert run_cli(["cv"]) == 1  # --data is required
    assert run_cli(["cv", "--data", DATA_PATH, "--algorithm", "forest"]) == 1
    assert run_cli(["nonsense"]) == 1
    for grid in ("[", "[]", '[{"algorithm": "forest"}]', '[{"algorithm": "knn"}]',
                 '[{"algorithm": "knn", "k": 3}, {"algorithm": "nb"}]'):
        assert run_cli(["tune", "--data", DATA_PATH, "--grid", grid]) == 1


def test_grid_nested_too_deep_is_usage_error(capsys):
    """A --grid value deeper than the json decoder's recursion limit."""
    assert run_cli(["tune", "--data", DATA_PATH, "--grid", "[" * 5000 + "]" * 5000]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: Invalid value for --grid") and "Traceback" not in err


@pytest.mark.parametrize("record", [
    {"algorithm": "nb", "use_kernel_density": "false", "laplace": 0, "bandwidth_adjust": 1},
    {"algorithm": "knn", "k": 3.9},
    {"algorithm": "knn", "k": True},
    {"algorithm": "nb", "use_kernel_density": False, "laplace": float("nan"),
     "bandwidth_adjust": 1},
    {"algorithm": "nb", "use_kernel_density": False, "laplace": 0,
     "bandwidth_adjust": float("nan")},
    {"algorithm": "svm", "C": 0, "sigma": 1},
    {"algorithm": "svm", "C": 1, "sigma": -0.5},
], ids=["kde-string", "k-fraction", "k-bool", "laplace-nan", "bandwidth-nan", "svm-C-0",
        "svm-sigma-negative"])
def test_tune_grid_takes_only_json_typed_values(capsys, record):
    assert run_cli(["tune", "--data", DATA_PATH, "--grid", json.dumps([record])]) == 1
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank", "cv", "tune", "compare"])
@pytest.mark.parametrize("keep", [",", " , ", ""])
def test_keep_naming_no_feature_is_usage_error(capsys, command, keep):
    extra = ["--evaluator", "info_gain"] if command == "rank" else []
    assert run_cli([command, "--data", DATA_PATH, "--keep", keep, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--keep" in err


@pytest.mark.parametrize("command", ["rank", "cv", "tune", "compare"])
def test_keep_repeating_a_feature_is_usage_error(capsys, command):
    extra = ["--evaluator", "info_gain"] if command == "rank" else []
    assert run_cli([command, "--data", DATA_PATH, "--keep", "Cp,Cp,Thal", *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--keep" in err and "repeats" in err


@pytest.mark.parametrize("algorithm", ["knn", "svm"])
def test_predict_text_without_posteriors(tmp_path, capsys, algorithm):
    """k-NN and SVM reports give one label per record and no posterior."""
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    fitted = fit_model(ds, ALGORITHMS[algorithm].params(), scaling=default_scaling(algorithm))
    model_path = tmp_path / "model.json"
    save_model(fitted, model_path)
    records = [GOOD_RECORD, "4,109,1,2.4,2,1,3"]
    X = np.array([[float(v) for v in record.split(",")] for record in records])
    assert run_cli(["predict", "--model", str(model_path), "--record", records[0],
                    "--record", records[1], "--format", "text"]) == 0
    labels = fitted.predict_batch(X).tolist()
    assert capsys.readouterr().out == "".join(f"label={label}\n" for label in labels)


def test_exit_code_missing_file():
    assert run_cli(["inspect", "--data", "no/such/file.csv"]) == 1


def test_exit_code_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    assert run_cli(["inspect", "--data", str(bad)]) == 2


@pytest.mark.parametrize("command", list(COMMANDS))
def test_data_file_not_utf8_is_data_error(tmp_path, capsys, nb_model_path, command):
    bad = tmp_path / "utf16.data"
    bad.write_bytes(b"\xff\xfe" + Path(DATA_PATH).read_bytes())
    if command == "predict":
        args = ["predict", "--model", nb_model_path, "--data", str(bad)]
    else:
        args = [str(bad) if arg == DATA_PATH else arg for arg in COMMANDS[command]]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize("command,option,value", [
    *((command, "--seed", "-1") for command in ("cv", "tune", "compare", "subset")),
    *((command, "--folds", folds) for folds in ("0", "1")
      for command in ("cv", "tune", "compare", "subset")),
    ("subset", "--stale-limit", "0"),
    *(("subset", "--min-improvement", value) for value in ("nan", "inf", "-inf", "-0.1")),
])
def test_out_of_range_number_is_usage_error(capsys, command, option, value):
    assert run_cli([command, "--data", DATA_PATH, option, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and option in err


def test_exit_code_training_error(tmp_path):
    # 4 complete rows cannot be split into 10 folds
    src = open(DATA_PATH, "r", encoding="utf-8").read().splitlines()
    small = tmp_path / "small.csv"
    small.write_text("\n".join(src[:8]) + "\n")
    assert run_cli(["cv", "--data", str(small)]) == 3


def test_line_numbers_count_as_editors_do(tmp_path, capsys):
    """A form feed at the end of line 1 ends no line, so the bad target of
    the third line is reported on line 3."""
    rows = Path(DATA_PATH).read_text().splitlines()[:3]
    rows[0] += "\f"
    rows[2] = rows[2].rsplit(",", 1)[0] + ",7"
    bad = tmp_path / "formfeed.data"
    bad.write_text("\n".join(rows) + "\n")
    assert run_cli(["inspect", "--data", str(bad)]) == 2
    assert capsys.readouterr().err == "data error: line 3: target value 7.0 outside 0..4\n"


def test_keep_unknown_feature_is_data_error():
    assert run_cli(["cv", "--data", DATA_PATH, "--keep", "Bogus"]) == 2


def test_subset_fast_run(tmp_path):
    out = tmp_path / "subset.json"
    assert run_cli(["subset", "--data", DATA_PATH, "--folds", "5",
                    "--stale-limit", "1", "--format", "json",
                    "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["config"]["seed"] == 1
    assert payload["report"]["objective"] > 0.5
    assert payload["report"]["selected"]


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("args", [["--help"], ["cv", "--help"]])
def test_help_flag(capsys, args):
    assert run_cli(args) == 0
    assert capsys.readouterr().out.startswith("Usage: ")


@pytest.mark.parametrize("args,message", [([], "Missing command."),
                                          (["nosuch"], "No such command 'nosuch'.")])
def test_missing_or_unknown_command_is_one_line_usage_error(capsys, args, message):
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n" and captured.out == ""


def test_predict_loads_no_training_module(nb_model_path):
    """A fresh process that imports the CLI and runs predict never loads the
    training modules, so the rank command spells out their evaluators."""
    code = ("import sys\n"
            "from cadml.cli import main\n"
            "try:\n"
            f"    main(['predict', '--model', {nb_model_path!r}, '--record', {GOOD_RECORD!r}])\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(*(m for m in sys.modules if m.startswith('cadml')), file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(proc.stderr.split())
    assert proc.stdout.startswith("label=") and "cadml.classifiers" in loaded
    assert not loaded & {"cadml.evaluation", "cadml.feature_selection", "cadml.tuning"}
    (evaluator,) = [p for p in cli.commands["rank"].params if p.name == "evaluator"]
    assert tuple(evaluator.type.choices) == EVALUATORS


OPTIONS = {  # each command's parameters, in the order its --help lists them
    "inspect": ["data_path", "header", "fmt", "out"],
    "rank": ["data_path", "header", "keep", "evaluator", "fmt", "out"],
    "subset": ["data_path", "header", "folds", "seed", "stale_limit", "min_improvement", "fmt",
               "out"],
    "cv": ["data_path", "header", "keep", "folds", "no_scale", "seed", "algorithm", "fmt", "out"],
    "tune": ["data_path", "header", "keep", "folds", "no_scale", "seed", "algorithm", "grid_json",
             "model_out", "fmt", "out"],
    "compare": ["data_path", "header", "keep", "folds", "seed", "no_scale", "fmt", "out"],
    "predict": ["model_path", "records", "data_path", "fmt", "out"],
}


def test_each_command_is_one_function_that_returns_its_report(nb_model_path):
    """Every command is registered with its options in order, and its module
    name is the plain function, which a script calls to get the Report."""
    assert {name: [p.name for p in command.params]
            for name, command in cli.commands.items()} == OPTIONS
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    calls = {
        "inspect": (DATA_PATH, False),
        "rank": (ds, {}, "info_gain"),
        "subset": (DATA_PATH, False, 2, 1, 1),
        "cv": (ds, {}, 2, "nb", 0, False),
        "tune": (ds, {}, 2, "knn", 0, False, None, None),
        "compare": (ds, {}, 2, 0, False),
        "predict": (nb_model_path, (GOOD_RECORD,), None),
    }
    for name, args in calls.items():
        command = getattr(cadml.cli, name)
        assert isinstance(command, types.FunctionType)
        report = command(*args)
        assert isinstance(report, Report) and report.config["command"] == name
