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
    binarize_target,
    drop_incomplete,
    fit_standardization,
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
    with pytest.raises(NonNumericCell):
        parse_csv(bad + "\n")


def test_parse_out_of_range_target():
    bad = GOOD_LINE.rsplit(",", 1)[0] + ",5"
    with pytest.raises(OutOfRangeTarget):
        parse_csv(bad + "\n")


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


def test_binarize_target():
    assert binarize_target(0) == 0
    for v in (1, 2, 3, 4):
        assert binarize_target(v) == 1
    with pytest.raises(OutOfRangeTarget):
        binarize_target(7)


def test_drop_incomplete_counts():
    raw = parse_csv(GOOD_LINE + "\n" + MISSING_LINE + "\n")
    ds = drop_incomplete(raw)
    assert ds.n_rows == 1
    assert ds.class_counts() == (1, 0)


def test_drop_incomplete_all_missing():
    raw = parse_csv(MISSING_LINE + "\n")
    with pytest.raises(EmptyDataset):
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


def cell_by_cell_parse_features(text, schema):
    """The first parse_features, which parsed every cell with _parse_cell."""
    rows, lines = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(schema):
            raise WrongFieldCount(line_no, len(schema), len(fields))
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


def test_schema_validation():
    with pytest.raises(ValueError):
        FeatureSchema("x", "weird")
    with pytest.raises(ValueError):
        FeatureSchema("x", "binary")  # needs allowed_values


def test_dataset_shape_check():
    with pytest.raises(Exception):
        Dataset(schema=(FeatureSchema("a", CONTINUOUS),),
                X=np.zeros((3, 2)), y=np.zeros(3, dtype=np.int64))
