"""Arbitrary input to every subcommand ends in a documented exit code (0, or
1 usage, 2 data, 3 training error) and never in an escaping exception.

Each example runs cli.main in-process on one subcommand. Data files, model
files, --record, --grid, --keep and the numeric options are arbitrary text or
bytes, or valid input with an arbitrary edit, so that examples reach the
parser, the model-file checks and the training code alike. The report always
goes to a file in a temporary directory.
"""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cadml.classifiers import ALGORITHMS, fit_model, save_model
from cadml.cli import main
from cadml.dataset import CLEVELAND_SCHEMA, SELECTED_FEATURES, load_dataset, select_columns
from cadml.feature_selection import EVALUATORS
from cadml.tuning import default_scaling

from conftest import DATA_PATH

LINES = Path(DATA_PATH).read_text(encoding="utf-8").splitlines()
NAMES = [f.name for f in CLEVELAND_SCHEMA]
SELECTED_COLUMNS = [NAMES.index(name) for name in SELECTED_FEATURES]

anything = st.one_of(st.binary(max_size=300), st.text(max_size=300).map(str.encode))


def _edit(lines, edits):
    """lines with cell (row, column) of each edit replaced by its text."""
    lines = list(lines)
    for row, column, text in edits:
        if lines:
            cells = lines[row % len(lines)].split(",")
            cells[column % len(cells)] = text
            lines[row % len(lines)] = ",".join(cells)
    return lines


edits = st.one_of(st.just([]), st.lists(st.tuples(st.integers(0, 99), st.integers(0, 13),
                                                  st.text(max_size=8)), min_size=1, max_size=2))


def _with_header(order, lines):
    """A header line naming the columns in the given order, then lines with
    their feature cells in that order."""
    index = [NAMES.index(name) for name in order]
    return [",".join([*order, "num"]),
            *(",".join([*(cells[i] for i in index), cells[-1]])
              for cells in (line.split(",") for line in lines))]


def tables(header: bool):
    """8-40 rows of the Cleveland table, under a header line in any column
    order if header, with up to two cells replaced by arbitrary text."""
    rows = st.lists(st.sampled_from(LINES), min_size=8, max_size=40)
    if header:
        rows = st.builds(_with_header, st.permutations(NAMES), rows)
    return st.builds(lambda rows, edits: "\n".join(_edit(rows, edits)).encode(), rows, edits)


# the selected features of a Cleveland row: one record for a saved model
records = st.sampled_from(LINES).map(
    lambda line: ",".join(line.split(",")[c] for c in SELECTED_COLUMNS))
feature_files = st.one_of(
    anything,
    st.builds(lambda rows, edits: "\n".join(_edit(rows, edits)).encode(),
              st.lists(records, min_size=1, max_size=20), edits))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6)
grid_records = st.fixed_dictionaries(
    {"algorithm": st.sampled_from([*ALGORITHMS, "forest"])},
    optional={key: json_values | st.floats(0.01, 10) | st.integers(1, 9)
              for key in ("use_kernel_density", "laplace", "bandwidth_adjust", "k", "C",
                          "sigma")})
grids = st.one_of(st.text(max_size=40), st.lists(grid_records, max_size=3).map(json.dumps))
keeps = st.one_of(st.text(max_size=20), st.just("all"),
                  st.lists(st.sampled_from(NAMES), min_size=1, max_size=4).map(",".join))
numbers = st.one_of(st.integers(-3, 12).map(str), st.text(max_size=6),
                    st.sampled_from(["nan", "inf", "-inf", "1e400", "0.5", "0x10", "1_0",
                                     str(2**70)]))

OPTIONS = {  # the numeric options each training command takes
    "subset": ("--seed", "--folds", "--stale-limit", "--min-improvement"),
    "cv": ("--seed", "--folds"),
    "tune": ("--seed", "--folds"),
    "compare": ("--seed", "--folds"),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory for each example's files, holding one saved model per
    algorithm, fit on the selected features of the Cleveland table."""
    path = tmp_path_factory.mktemp("fuzz")
    ds = select_columns(load_dataset(DATA_PATH), SELECTED_FEATURES)
    for algorithm in ALGORITHMS:
        save_model(fit_model(ds, ALGORITHMS[algorithm].params(),
                             scaling=default_scaling(algorithm)), path / f"{algorithm}.json")
    return path


def _model_file(workdir, algorithm, key, value):
    """The saved model of algorithm with the entry key set to value, by
    position among the entries of the file, of its "model" record, of each
    "schema" entry and of each naive-Bayes stat record; key None leaves it
    whole."""
    model = json.loads((workdir / f"{algorithm}.json").read_text(encoding="utf-8"))
    if key is not None:
        records = [model, model["model"], *model["schema"],
                   *(stat for row in model["model"].get("feature_stats", []) for stat in row)]
        entries = [(record, k) for record in records for k in record]
        record, name = entries[key % len(entries)]
        record[name] = value
    return json.dumps(model).encode()


# a saved model, whole or with one entry set to an arbitrary JSON value
models = st.tuples(st.sampled_from(list(ALGORITHMS)), st.none() | st.integers(0, 99), json_values)


def run_cli(args):
    try:
        main(list(args))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    return 0


@given(command=st.sampled_from(["inspect", "rank", "subset", "cv", "tune", "compare",
                                "predict"]),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_input_gives_a_documented_exit_code(workdir, command, data):
    def write(name, content) -> str:
        path = workdir / name
        path.write_bytes(content)
        return str(path)

    fmt = data.draw(st.sampled_from(["text", "json", "csv"]))
    args = [command, "--format", fmt, "--out", str(workdir / "report")]
    valid = data.draw(st.integers(0, 3)) > 0  # three in four files are built from valid input
    if command == "predict":
        model = _model_file(workdir, *data.draw(models)) if valid else data.draw(anything)
        args += ["--model", write("model.json", model)]
        for record in data.draw(st.lists(records, max_size=3)
                                | st.lists(records | st.text(max_size=30), max_size=3)):
            args += ["--record", record]
        if data.draw(st.booleans()):
            args += ["--data", write("rows.csv", data.draw(feature_files))]
    else:
        header = data.draw(st.booleans())
        table = data.draw(tables(header)) if valid else data.draw(anything)
        args += ["--data", write("table.data", table)]
        if header:
            args.append("--header")
    if command in ("rank", "cv", "tune", "compare") and data.draw(st.booleans()):
        args += ["--keep", data.draw(keeps)]
    if command == "rank":
        args += ["--evaluator", data.draw(st.sampled_from(EVALUATORS))]
    if command in ("cv", "tune"):
        args += ["--algorithm", data.draw(st.sampled_from(list(ALGORITHMS)))]
    if command in ("cv", "tune", "compare") and data.draw(st.booleans()):
        args.append("--no-scale")
    if command == "tune":
        if data.draw(st.booleans()):
            args += ["--grid", data.draw(grids)]
        if data.draw(st.booleans()):
            args += ["--save-model", str(workdir / "saved.json")]
    if data.draw(st.booleans()):
        for option in OPTIONS.get(command, ()):
            if data.draw(st.booleans()):
                args += [option, data.draw(numbers)]
    elif command in OPTIONS:  # few enough folds for a table of 8 rows
        args += ["--folds", str(data.draw(st.integers(2, 3)))]
    assert run_cli(args) in (0, 1, 2, 3)
