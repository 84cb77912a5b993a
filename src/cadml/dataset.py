"""Cleveland-format table handling: parsing, cleaning, column selection, scaling.

The canonical input is the UCI "processed" Cleveland layout: comma separated,
14 fields per line (13 features + diagnosis), no header, '?' for a missing
cell. A header variant is accepted where the first line names the columns.
Training tables (parse_csv) and target-free feature rows (parse_features) go
through one line reader; '?' is allowed only in a training table's feature
cells. _moments is the package's one mean and variance routine: z-scoring
and naive Bayes both take their column statistics from it.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DataError,
    DisallowedValue,
    EmptyDataset,
    LengthMismatch,
    NonNumericCell,
    OutOfRangeTarget,
    UnknownFeature,
    WrongFieldCount,
)

CONTINUOUS = "continuous"
ORDINAL = "ordinal"
CATEGORICAL = "categorical"
BINARY = "binary"


@dataclass(frozen=True)
class FeatureSchema:
    name: str
    kind: str
    allowed_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, ORDINAL, CATEGORICAL, BINARY):
            raise ValueError(f"bad feature kind {self.kind!r}")
        if not self.allowed_values and (self.kind, self.allowed_values) != (CONTINUOUS, None):
            raise ValueError(f"{self.name}: allowed_values must be a non-empty list")


CLEVELAND_SCHEMA: tuple[FeatureSchema, ...] = (
    FeatureSchema("Age", CONTINUOUS),
    FeatureSchema("Sex", BINARY, (0.0, 1.0)),
    FeatureSchema("Cp", CATEGORICAL, (1.0, 2.0, 3.0, 4.0)),
    FeatureSchema("Restbp", CONTINUOUS),
    FeatureSchema("Chol", CONTINUOUS),
    FeatureSchema("fbs", BINARY, (0.0, 1.0)),
    FeatureSchema("RestECG", CATEGORICAL, (0.0, 1.0, 2.0)),
    FeatureSchema("MaxHeart", CONTINUOUS),
    FeatureSchema("ExAng", BINARY, (0.0, 1.0)),
    FeatureSchema("OldPeak", CONTINUOUS),
    FeatureSchema("Slope", CATEGORICAL, (1.0, 2.0, 3.0)),
    FeatureSchema("MajorVessels", ORDINAL, (0.0, 1.0, 2.0, 3.0)),
    FeatureSchema("Thal", CATEGORICAL, (3.0, 6.0, 7.0)),
)

# The seven features kept after feature selection.
SELECTED_FEATURES = ("Cp", "MaxHeart", "ExAng", "OldPeak", "Slope", "MajorVessels", "Thal")
_split_lines = re.compile(r"\r\n?|\n").split  # as editors number lines, not str.splitlines


@dataclass(frozen=True)
class RawTable:
    """Parsed but uncleaned rows: cells (rows, features) float64 in schema order
    with NaN for '?', targets the raw 0..4 diagnosis (int64), lines the file line
    of each row."""

    schema: tuple[FeatureSchema, ...]
    cells: np.ndarray
    targets: np.ndarray
    lines: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_incomplete(self) -> int:
        return int(np.isnan(self.cells).any(axis=1).sum())


@dataclass(frozen=True)
class Dataset:
    schema: tuple[FeatureSchema, ...]
    X: np.ndarray  # shape (n, len(schema)), float64
    y: np.ndarray  # shape (n,), int64, values in {0, 1}

    def __post_init__(self):
        if self.X.shape != (len(self.y), len(self.schema)):
            raise LengthMismatch(expected=(len(self.y), len(self.schema)), got=self.X.shape)

    @property
    def n_rows(self) -> int:
        return len(self.y)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.schema)

    def class_counts(self) -> tuple[int, int]:
        return int(np.count_nonzero(self.y == 0)), int(np.count_nonzero(self.y == 1))

    def subset_rows(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return replace(self, X=self.X[idx], y=self.y[idx])


def _parse_cell(token: str, line_no: int, column: int) -> float | None:
    token = token.strip()
    if token == "?":
        return None
    try:
        value = float(token)
    except ValueError:
        raise NonNumericCell(line_no=line_no, column=column, value=token) from None
    if not math.isfinite(value):
        raise NonNumericCell(line_no=line_no, column=column, value=token)
    return value


def _read_rows(lines, width: int, first_line_no: int = 1, missing_ok: int = 0,
               targets: tuple[float, ...] | None = None):
    """Parse lines of `width` comma-separated numbers; returns (array, file lines).

    Blank lines are skipped. '?' reads as NaN in the first `missing_ok` columns
    and is an error in the others; with `targets`, the last column must hold
    one of those values. Errors come in file-line order.
    """
    values, line_nos = [], []  # values holds the rows' cells end to end
    for line_no, line in enumerate(lines, start=first_line_no):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise WrongFieldCount(line_no=line_no, expected=width, got=len(fields))
        try:  # float() strips whitespace as _parse_cell does
            cells = list(map(float, fields))
        except ValueError:
            cells = None
        if cells is None or not math.isfinite(sum(cells)):
            # the cell-by-cell parse names the first bad cell in column order;
            # it passes a line whose only fault was that its sum overflowed
            cells = [_parse_cell(tok, line_no, col) for col, tok in enumerate(fields)]
            if None in cells[missing_ok:]:
                col = cells.index(None, missing_ok)
                raise DataError(f"line {line_no}, column {col}: missing value '?'")
            cells = [math.nan if c is None else c for c in cells]
        if targets is not None and cells[-1] not in targets:
            raise OutOfRangeTarget(line_no=line_no, value=cells[-1])
        values += cells
        line_nos.append(line_no)
    return np.asarray(values, dtype=np.float64).reshape(len(line_nos), width), line_nos


def parse_csv(text: str, schema: tuple[FeatureSchema, ...] = CLEVELAND_SCHEMA,
              header: bool = False) -> RawTable:
    """Parse Cleveland-layout CSV text into a RawTable.

    Each non-empty line must have len(schema)+1 fields, the last a 0..4 target.
    With header=True the first non-empty line names the feature columns (any
    permutation of the schema names, target last) and data columns are
    reordered to schema order.
    """
    n_fields = len(schema) + 1
    lines = _split_lines(text)
    order = list(range(len(schema)))  # order[j] = position in the file of schema column j
    # index of the first data line: past the header, if there is one
    first = next((i + 1 for i, line in enumerate(lines) if line.strip()), 0) if header else 0
    if first:
        fields = lines[first - 1].split(",")
        if len(fields) != n_fields:
            raise WrongFieldCount(line_no=first, expected=n_fields, got=len(fields))
        names = [f.strip() for f in fields[:-1]]
        unknown = sorted(set(names) - {f.name for f in schema})
        if unknown:
            raise UnknownFeature(name=", ".join(unknown))
        missing = [f.name for f in schema if f.name not in names]
        if missing:  # as many columns as features, so some name repeats
            repeated = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"line {first}: header repeats {', '.join(repeated)} "
                            f"and lacks {', '.join(missing)}")
        order = [names.index(f.name) for f in schema]
    values, line_nos = _read_rows(lines[first:], n_fields, first + 1, missing_ok=len(schema),
                                  targets=(0.0, 1.0, 2.0, 3.0, 4.0))
    return RawTable(schema=tuple(schema), cells=values[:, order],
                    targets=values[:, -1].astype(np.int64), lines=tuple(line_nos))


def parse_features(text: str, schema: tuple[FeatureSchema, ...]) -> np.ndarray:
    """Parse rows of feature values without a target column, in schema order.

    Cells parse as in parse_csv, but a missing ('?') or out-of-schema value
    is an error; returns a (rows, len(schema)) array.
    """
    X, lines = _read_rows(_split_lines(text), len(schema))
    _validate_values(schema, X, lines)
    return X


def drop_incomplete(raw: RawTable) -> Dataset:
    """Remove every row with a missing cell and binarize the target: 0 stays 0, 1..4 -> 1."""
    if not raw.n_rows:
        raise EmptyDataset("the table has no data rows")
    keep = ~np.isnan(raw.cells).any(axis=1)
    if not keep.any():
        raise EmptyDataset("all rows contained missing values")
    X = raw.cells[keep]
    _validate_values(raw.schema, X, np.asarray(raw.lines)[keep].tolist())
    return Dataset(schema=raw.schema, X=X, y=(raw.targets[keep] > 0).astype(np.int64))


def _validate_values(schema, X, lines):
    """Check every allowed-values column; lines[i] is the file line of row i."""
    for j, feat in enumerate(schema):
        if feat.allowed_values is None:
            continue
        bad = ~np.isin(X[:, j], feat.allowed_values)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DisallowedValue(line_no=lines[i], feature=feat, value=float(X[i, j]))


def read_text(path) -> str:
    """The contents of a data file; a file that is not UTF-8 is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None


def load_dataset(path, header: bool = False) -> Dataset:
    return drop_incomplete(parse_csv(read_text(path), header=header))


def select_columns(ds: Dataset, keep) -> Dataset:
    """Restrict schema and rows to the named features, in the given order."""
    by_name = {f.name: j for j, f in enumerate(ds.schema)}
    for name in keep:
        if name not in by_name:
            raise UnknownFeature(name=name)
    idx = [by_name[name] for name in keep]
    return Dataset(
        schema=tuple(ds.schema[j] for j in idx),
        X=ds.X[:, idx],
        y=ds.y.copy(),
    )


@dataclass(frozen=True)
class Standardization:
    """Per-feature affine stats; identity (mean 0, std 1) for untouched columns."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


def _moments(block) -> tuple[np.ndarray, np.ndarray]:
    """np.mean(block, axis=1, keepdims=True) and np.var(block, axis=1, ddof=1) bit for bit, in
    the steps of numpy's own _var, which computes the mean too; np.std is the root of the var.
    Each row of a C-contiguous block gets the pairwise sums np.mean takes of that row alone."""
    n = block.shape[1]
    mean = np.add.reduce(block, axis=1, keepdims=True) / n
    dev = block - mean
    return mean, np.add.reduce(np.square(dev, out=dev), axis=1) / (n - 1)


def fit_standardization(ds: Dataset) -> Standardization:
    """Z-score stats for continuous features: each column's np.mean and
    np.std (ddof=1) bit for bit, from the moments pass nb_fit takes per class.

    Non-continuous and zero-variance columns, and all columns of a table of
    fewer than two rows, get identity stats so they pass through unchanged.
    """
    mean, std = np.zeros(len(ds.schema)), np.ones(len(ds.schema))
    if ds.n_rows > 1:
        cont = np.flatnonzero([f.kind == CONTINUOUS for f in ds.schema])
        m, var = _moments(ds.X.T[cont])  # C-contiguous (features x rows)
        s = np.sqrt(var)
        kept = s > 0.0
        mean[cont[kept]], std[cont[kept]] = m[kept, 0], s[kept]
    return Standardization(mean=mean, std=std)


def standardize(ds: Dataset):
    """Scale continuous features by their own stats; returns (scaled dataset, stats)."""
    stats = fit_standardization(ds)
    return replace(ds, X=stats.apply(ds.X)), stats

