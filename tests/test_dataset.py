import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadml.dataset import (
    BINARY,
    CLEVELAND_SCHEMA,
    CONTINUOUS,
    Dataset,
    FeatureSchema,
    SELECTED_FEATURES,
    _parse_cell,
    _validate_values,
    drop_incomplete,
    fit_standardization,
    load_dataset,
    parse_csv,
    parse_features,
    select_columns,
    standardize,
)
from cadml.errors import (
    DataError,
    DisallowedValue,
    EmptyDataset,
    NonNumericCell,
    OutOfRangeTarget,
    UnknownFeature,
    WrongFieldCount,
)

from conftest import make_dataset

GOOD_LINE = "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0"
MISSING_LINE = "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,?,6.0,2"


def test_parse_single_row():
    raw = parse_csv(GOOD_LINE + "\n")
    assert raw.n_rows == 1
    assert raw.n_incomplete == 0
    assert raw.cells[0][0] == 63.0
    assert raw.targets[0] == 0


def test_parse_skips_blank_lines():
    raw = parse_csv("\n" + GOOD_LINE + "\n\n" + MISSING_LINE + "\n")
    assert raw.n_rows == 2
    assert raw.n_incomplete == 1


def test_parse_wrong_field_count():
    with pytest.raises(WrongFieldCount):
        parse_csv("1,2,3\n")


def test_parse_non_numeric_cell():
    for token in ("abc", "inf", "-inf", "nan", "1e400"):
        bad = GOOD_LINE.replace("233.0", token)
        with pytest.raises(NonNumericCell):
            parse_csv(bad + "\n")


def test_parse_missing_target_rejected():
    bad = GOOD_LINE.rsplit(",", 1)[0] + ",?"
    with pytest.raises(DataError, match=r"^line 2, column 13: missing value '\?'$"):
        parse_csv(GOOD_LINE + "\n" + bad + "\n")


def test_parse_out_of_range_target():
    bad = GOOD_LINE.rsplit(",", 1)[0] + ",5"
    with pytest.raises(OutOfRangeTarget, match=r"^line 3: target value 5\.0 outside 0\.\.4$") as err:
        parse_csv(GOOD_LINE + "\n\n" + bad + "\n")
    assert err.value.line_no == 3


def test_header_permutation_reorders_columns():
    names = [f.name for f in CLEVELAND_SCHEMA]
    perm = list(reversed(names))
    fields = dict(zip(names, GOOD_LINE.split(",")[:-1]))
    line = ",".join(fields[n] for n in perm) + ",0"
    raw = parse_csv(",".join(perm) + ",target\n" + line + "\n", header=True)
    assert raw.n_rows == 1
    assert list(raw.cells[0]) == [float(fields[n]) for n in names]


def test_header_unknown_feature():
    header = ",".join(["Bogus"] + [f.name for f in CLEVELAND_SCHEMA[1:]]) + ",target"
    with pytest.raises(UnknownFeature):
        parse_csv(header + "\n" + GOOD_LINE + "\n", header=True)


def test_header_repeated_feature():
    names = [f.name for f in CLEVELAND_SCHEMA]
    header = ",".join(["Age", "Age"] + names[2:]) + ",target"
    with pytest.raises(DataError, match="header repeats Age and lacks Sex"):
        parse_csv(header + "\n" + GOOD_LINE + "\n", header=True)


def test_drop_incomplete_binarizes_target():
    """0 stays 0 and every diagnosis 1..4 becomes 1."""
    features = GOOD_LINE.rsplit(",", 1)[0]
    raw = parse_csv("".join(f"{features},{t}\n" for t in (0, 1, 2, 3, 4)))
    assert raw.targets.tolist() == [0, 1, 2, 3, 4]
    ds = drop_incomplete(raw)
    assert ds.y.dtype == np.int64 and ds.y.tolist() == [0, 1, 1, 1, 1]
    with pytest.raises(OutOfRangeTarget):
        parse_csv(f"{features},7\n")


def test_drop_incomplete_counts():
    raw = parse_csv(GOOD_LINE + "\n" + MISSING_LINE + "\n")
    ds = drop_incomplete(raw)
    assert ds.n_rows == 1
    assert ds.class_counts() == (1, 0)


def test_drop_incomplete_all_missing():
    raw = parse_csv(MISSING_LINE + "\n")
    with pytest.raises(EmptyDataset, match="^all rows contained missing values$"):
        drop_incomplete(raw)


@pytest.mark.parametrize("text, header", [
    ("", False), ("\n \n\t\n", False), ("", True),
    (",".join(f.name for f in CLEVELAND_SCHEMA) + ",target\n\n", True)])
def test_drop_incomplete_no_data_rows(text, header):
    raw = parse_csv(text, header=header)
    assert raw.n_rows == 0 and raw.n_incomplete == 0
    with pytest.raises(EmptyDataset, match="^the table has no data rows$"):
        drop_incomplete(raw)


def test_drop_incomplete_rejects_out_of_range_value():
    bad = GOOD_LINE.replace(",6.0,", ",5.0,")  # Thal must be 3/6/7
    raw = parse_csv(bad + "\n")
    with pytest.raises(DisallowedValue, match="Thal value 5.0"):
        drop_incomplete(raw)
    # reported by file line, past a dropped incomplete row and a blank line
    raw = parse_csv("\n".join([GOOD_LINE, MISSING_LINE, "", bad]) + "\n")
    with pytest.raises(DisallowedValue, match="^line 4: Thal value 5.0") as err:
        drop_incomplete(raw)
    assert err.value.line_no == 4


def test_parse_features():
    features = GOOD_LINE.rsplit(",", 1)[0]
    X = parse_features("\n" + features + "\n\n" + features + "\n", CLEVELAND_SCHEMA)
    assert X.shape == (2, 13)
    assert X[0, 0] == 63.0
    with pytest.raises(WrongFieldCount):
        parse_features(GOOD_LINE, CLEVELAND_SCHEMA)
    with pytest.raises(NonNumericCell):
        parse_features(features.replace("233.0", "inf"), CLEVELAND_SCHEMA)
    with pytest.raises(DataError, match="missing value"):
        parse_features(features.replace("233.0", "?"), CLEVELAND_SCHEMA)
    with pytest.raises(DisallowedValue, match="^line 1: Thal value 5.0"):
        parse_features(features.replace(",6.0", ",5.0"), CLEVELAND_SCHEMA)
    with pytest.raises(DisallowedValue, match="^line 4: Thal value 5.0") as err:
        parse_features(features + "\n\n\n" + features.replace(",6.0", ",5.0"),
                       CLEVELAND_SCHEMA)
    assert err.value.line_no == 4


@pytest.mark.parametrize("mark", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_line_numbers_count_only_cr_and_lf(mark):
    """Lines end at \\r\\n, \\r and \\n, as editors number them; the other
    breaks of str.splitlines, here at the end of line 1, end no line."""
    features = GOOD_LINE.rsplit(",", 1)[0]
    with pytest.raises(OutOfRangeTarget, match="^line 3: ") as err:
        parse_csv(f"{GOOD_LINE}{mark}\n{GOOD_LINE}\n{features},7\n")
    assert err.value.line_no == 3
    with pytest.raises(DisallowedValue, match="^line 3: Thal value 5.0"):
        parse_features(f"{features}{mark}\n{features}\n{features.replace(',6.0', ',5.0')}\n",
                       CLEVELAND_SCHEMA)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_tables_load(tmp_path, data_path, cleveland, newline):
    text = open(data_path, "r", encoding="utf-8").read()
    raw = parse_csv(text.replace("\n", newline))
    assert raw.lines == parse_csv(text).lines
    path = tmp_path / "table.data"
    path.write_bytes(text.replace("\n", newline).encode())
    for ds in (drop_incomplete(raw), load_dataset(path)):
        assert ds.n_rows == 297
        assert ds.X.tobytes() == cleveland.X.tobytes() and ds.y.tobytes() == cleveland.y.tobytes()


def cell_by_cell_parse_features(text, schema):
    """The first parse_features, which parsed every cell with _parse_cell."""
    rows, lines = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(schema):
            raise WrongFieldCount(line_no=line_no, expected=len(schema), got=len(fields))
        cells = [_parse_cell(tok, line_no, col) for col, tok in enumerate(fields)]
        if None in cells:
            raise DataError(f"line {line_no}, column {cells.index(None)}: missing value '?'")
        rows.append(cells)
        lines.append(line_no)
    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(schema))
    _validate_values(schema, X, lines)
    return X


def _outcome(parse, text, schema):
    try:
        return parse(text, schema)
    except DataError as exc:
        return type(exc), str(exc)


# padded and plain numbers, a value outside the binary column's {0, 1}, a
# pair that overflows when summed, and every kind of bad cell
TOKENS = ["0", "1", " 1 ", "\t0.5\u00a0", "-2.5e1", "1_0", "1e308", "?", " ? ",
          "nan", "inf", "-inf", "1e400", "abc", "", " "]


@settings(max_examples=300)
@given(st.lists(st.lists(st.sampled_from(TOKENS), min_size=0, max_size=5), max_size=6))
def test_parse_features_matches_cell_by_cell_parse(lines):
    """Blank lines, wrong field counts and bad cells give the same array, or
    the same exception and message, as parsing cell by cell."""
    schema = (FeatureSchema("a", CONTINUOUS), FeatureSchema("b", CONTINUOUS),
              FeatureSchema("c", BINARY, (0.0, 1.0)))
    text = "\n".join(",".join(tokens) for tokens in lines)
    got, want = (_outcome(parse, text, schema)
                 for parse in (parse_features, cell_by_cell_parse_features))
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


def cell_by_cell_parse_csv(text, schema, header):
    """The first parse_csv, which parsed every cell with _parse_cell and kept
    rows as tuples with None for '?', with the target errors naming their line
    and a '?' target worded as parse_features words it; returns (rows,
    targets, lines)."""
    n_fields = len(schema) + 1
    order = list(range(len(schema)))
    rows, targets, lines = [], [], []
    saw_header = not header
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise WrongFieldCount(line_no=line_no, expected=n_fields, got=len(fields))
        if not saw_header:
            names = [f.strip() for f in fields[:-1]]
            unknown = sorted(set(names) - {f.name for f in schema})
            if unknown:
                raise UnknownFeature(name=", ".join(unknown))
            missing = [f.name for f in schema if f.name not in names]
            if missing:
                repeated = sorted({n for n in names if names.count(n) > 1})
                raise DataError(f"line {line_no}: header repeats {', '.join(repeated)} "
                                f"and lacks {', '.join(missing)}")
            order = [names.index(f.name) for f in schema]
            saw_header = True
            continue
        cells = [_parse_cell(tok, line_no, col) for col, tok in enumerate(fields[:-1])]
        cells = [cells[pos] for pos in order]
        raw_target = _parse_cell(fields[-1], line_no, len(schema))
        if raw_target is None:
            raise DataError(f"line {line_no}, column {len(schema)}: missing value '?'")
        if raw_target not in (0.0, 1.0, 2.0, 3.0, 4.0):
            raise OutOfRangeTarget(line_no=line_no, value=raw_target)
        rows.append(tuple(cells))
        targets.append(int(raw_target))
        lines.append(line_no)
    return rows, targets, lines


def cell_by_cell_drop_incomplete(schema, rows, targets, lines):
    """The first drop_incomplete, row by row, with an empty table named as such."""
    if not rows:
        raise EmptyDataset("the table has no data rows")
    kept = [i for i, row in enumerate(rows) if None not in row]
    if not kept:
        raise EmptyDataset("all rows contained missing values")
    X = np.asarray([rows[i] for i in kept], dtype=np.float64)
    y = np.asarray([0 if targets[i] == 0 else 1 for i in kept], dtype=np.int64)
    _validate_values(schema, X, [lines[i] for i in kept])
    return X, y


def _load_outcome(text, schema, header, oracle):
    """The parsed row count, incomplete count and lines, then the cleaned X
    and y as bytes; the first DataError, as (type, message), ends the list."""
    outcome = []
    try:
        if oracle:
            rows, targets, lines = cell_by_cell_parse_csv(text, schema, header)
            outcome.append((len(rows), sum(None in row for row in rows), tuple(lines)))
            X, y = cell_by_cell_drop_incomplete(schema, rows, targets, lines)
        else:
            raw = parse_csv(text, schema, header=header)
            outcome.append((raw.n_rows, raw.n_incomplete, raw.lines))
            ds = drop_incomplete(raw)
            X, y = ds.X, ds.y
        outcome.append((X.dtype, X.shape, X.tobytes(), y.dtype, y.shape, y.tobytes()))
    except DataError as exc:
        outcome.append((type(exc), str(exc)))
    return outcome


LOAD_SCHEMA = (FeatureSchema("a", CONTINUOUS), FeatureSchema("b", CONTINUOUS),
               FeatureSchema("c", BINARY, (0.0, 1.0)))
LOAD_NAMES = [f.name for f in LOAD_SCHEMA]
_cell = st.sampled_from(["0", "1", " 1 ", "?", "-2.5e1", "1e308", "\t0.5\u00a0"])
TARGETS = ["0", "1", "2", "3", "4", "5", "?"]


def _row_of(kind):
    if kind == 0:  # any width, every token
        return st.lists(st.sampled_from(TOKENS + TARGETS), max_size=5)
    if kind == 1:  # the right width, every token
        return st.lists(st.sampled_from(TOKENS + TARGETS), min_size=4, max_size=4)
    # the right width, from numbers, '?' and the diagnoses
    return st.builds(lambda cells, target: cells + [target],
                     st.lists(_cell, min_size=3, max_size=3), st.sampled_from(TARGETS))


# no header, a permuted header, or one that repeats, lacks or misnames a column
_header = (st.none() | st.permutations(LOAD_NAMES)
           | st.lists(st.sampled_from(LOAD_NAMES + ["bogus"]), min_size=2, max_size=4))


@settings(max_examples=400)
@given(st.lists(st.integers(0, 4).flatmap(_row_of), max_size=6), _header,
       st.integers(0, 2))
def test_parse_csv_matches_cell_by_cell_parse(rows, header_names, blank_lines):
    """Blank lines, headers, wrong field counts, bad cells and bad targets give
    the same counts, lines, X and y, or the same exception and message, as
    parsing cell by cell and cleaning row by row."""
    header = header_names is not None
    text = "\n".join([" "] * blank_lines
                     + ([",".join(header_names + ["target"])] if header else [])
                     + [",".join(tokens) for tokens in rows])
    got, want = (_load_outcome(text, LOAD_SCHEMA, header, oracle) for oracle in (False, True))
    assert got == want


def test_cleveland_load(cleveland):
    assert cleveland.n_rows == 297
    assert cleveland.class_counts() == (160, 137)
    assert cleveland.feature_names == tuple(f.name for f in CLEVELAND_SCHEMA)


def test_select_columns(cleveland):
    view = select_columns(cleveland, SELECTED_FEATURES)
    assert view.feature_names == SELECTED_FEATURES
    assert view.n_rows == cleveland.n_rows
    j = cleveland.feature_names.index("MaxHeart")
    assert np.array_equal(view.X[:, 1], cleveland.X[:, j])
    with pytest.raises(UnknownFeature):
        select_columns(cleveland, ["NotAFeature"])


def test_standardize_continuous_only(cleveland):
    scaled, stats = standardize(cleveland)
    for j, feat in enumerate(cleveland.schema):
        col = scaled.X[:, j]
        if feat.kind == CONTINUOUS:
            assert abs(np.mean(col)) < 1e-10
            assert abs(np.std(col, ddof=1) - 1.0) < 1e-10
        else:
            assert np.array_equal(col, cleveland.X[:, j])


def test_standardize_zero_variance_passthrough():
    ds = make_dataset(np.ones((5, 1)), [0, 0, 1, 1, 1])
    scaled, stats = standardize(ds)
    assert np.array_equal(scaled.X, ds.X)
    assert stats.std[0] == 1.0 and stats.mean[0] == 0.0


def oracle_standardization(ds):
    """fit_standardization as a loop over columns: np.mean and np.std (ddof=1)
    of each continuous column, identity stats for the other columns, for a
    zero-variance column and for every column of a one-row table."""
    mean, std = np.zeros(len(ds.schema)), np.ones(len(ds.schema))
    for j, feat in enumerate(ds.schema):
        if feat.kind != CONTINUOUS:
            continue
        col = ds.X[:, j]
        s = np.std(col, ddof=1) if len(col) > 1 else 0.0
        if s > 0.0:
            mean[j], std[j] = np.mean(col), s
    return mean, std


@given(st.integers(1, 297), st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_fit_standardization_is_the_per_column_loop_bit_for_bit(cleveland, n, seed, rescale,
                                                                constant):
    """Random subsets of n of the table's 297 rows, some with every column
    scaled by its own power of ten, some with one column made constant."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(cleveland.n_rows, n, replace=False)
    X = cleveland.X[rows]
    if rescale:
        X = X * 10.0 ** rng.integers(-8, 9, X.shape[1])
    if constant:
        X[:, rng.integers(X.shape[1])] = X[0, rng.integers(X.shape[1])]
    ds = make_dataset(X, cleveland.y[rows], cleveland.schema)
    stats = fit_standardization(ds)
    mean, std = oracle_standardization(ds)
    assert stats.mean.tobytes() == mean.tobytes()
    assert stats.std.tobytes() == std.tobytes()


def test_schema_validation():
    with pytest.raises(ValueError):
        FeatureSchema("x", "weird")
    with pytest.raises(ValueError):
        FeatureSchema("x", "binary")  # needs allowed_values


def test_dataset_shape_check():
    with pytest.raises(Exception):
        Dataset(schema=(FeatureSchema("a", CONTINUOUS),),
                X=np.zeros((3, 2)), y=np.zeros(3, dtype=np.int64))
