"""Cleveland-format table handling: parsing, cleaning, column selection, scaling.

The canonical input is the UCI "processed" Cleveland layout: comma separated,
14 fields per line (13 features + diagnosis), no header, '?' for a missing
cell. A header variant is accepted where the first line names the columns.
"""
from __future__ import annotations

import math
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
        if self.kind != CONTINUOUS and not self.allowed_values:
            raise ValueError(f"{self.name}: non-continuous features need allowed_values")


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

# The seven features kept after feature selection and the six dropped ones.
SELECTED_FEATURES = ("Cp", "MaxHeart", "ExAng", "OldPeak", "Slope", "MajorVessels", "Thal")
REMOVED_FEATURES = ("Age", "Sex", "Chol", "fbs", "Restbp", "RestECG")


@dataclass(frozen=True)
class RawTable:
    """Parsed but uncleaned rows; cells may be None (missing), targets raw 0..4."""

    schema: tuple[FeatureSchema, ...]
    cells: tuple[tuple[float | None, ...], ...]
    targets: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_incomplete(self) -> int:
        return sum(1 for row in self.cells if any(c is None for c in row))


@dataclass(frozen=True)
class Dataset:
    schema: tuple[FeatureSchema, ...]
    X: np.ndarray  # shape (n, len(schema)), float64
    y: np.ndarray  # shape (n,), int64, values in {0, 1}

    def __post_init__(self):
        if self.X.shape != (len(self.y), len(self.schema)):
            raise LengthMismatch((len(self.y), len(self.schema)), self.X.shape)

    @property
    def n_rows(self) -> int:
        return len(self.y)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.schema)

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.y == 0)), int(np.sum(self.y == 1))

    def subset_rows(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return replace(self, X=self.X[idx].copy(), y=self.y[idx].copy())


def _parse_cell(token: str, line_no: int, column: int) -> float | None:
    token = token.strip()
    if token == "?":
        return None
    try:
        value = float(token)
    except ValueError:
        raise NonNumericCell(line_no, column, token) from None
    if not math.isfinite(value):
        raise NonNumericCell(line_no, column, token)
    return value


def parse_csv(text: str, schema: tuple[FeatureSchema, ...] = CLEVELAND_SCHEMA,
              header: bool = False) -> RawTable:
    """Parse Cleveland-layout CSV text into a RawTable.

    Each non-empty line must have len(schema)+1 fields. With header=True the
    first non-empty line names the feature columns (any permutation of the
    schema names, target last) and data columns are reordered to schema order.
    """
    n_fields = len(schema) + 1
    order = list(range(len(schema)))
    rows: list[tuple[float | None, ...]] = []
    targets: list[int] = []
    saw_header = not header
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise WrongFieldCount(line_no, n_fields, len(fields))
        if not saw_header:
            names = [f.strip() for f in fields[:-1]]
            unknown = sorted(set(names) - {f.name for f in schema})
            if unknown:
                raise UnknownFeature(", ".join(unknown))
            missing = [f.name for f in schema if f.name not in names]
            if missing:  # as many columns as features, so some name repeats
                repeated = sorted({n for n in names if names.count(n) > 1})
                raise DataError(f"line {line_no}: header repeats {', '.join(repeated)} "
                                f"and lacks {', '.join(missing)}")
            # order[j] = position in the file of schema column j
            order = [names.index(f.name) for f in schema]
            saw_header = True
            continue
        cells = [_parse_cell(tok, line_no, col) for col, tok in enumerate(fields[:-1])]
        cells = [cells[pos] for pos in order]
        raw_target = _parse_cell(fields[-1], line_no, len(schema))
        if raw_target is None:
            raise NonNumericCell(line_no, len(schema), "?")
        rows.append(tuple(cells))
        targets.append(_check_raw_target(raw_target))
    return RawTable(schema=tuple(schema), cells=tuple(rows), targets=tuple(targets))


def parse_features(text: str, schema: tuple[FeatureSchema, ...]) -> np.ndarray:
    """Parse rows of feature values without a target column, in schema order.

    Cells parse as in parse_csv, but a missing ('?') or out-of-schema value
    is an error; returns a (rows, len(schema)) array.
    """
    rows = []
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
    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(schema))
    _validate_values(schema, X)
    return X


def _check_raw_target(value: float) -> int:
    if value not in (0.0, 1.0, 2.0, 3.0, 4.0):
        raise OutOfRangeTarget(value)
    return int(value)


def binarize_target(raw_target: int) -> int:
    """Fold the raw 0..4 diagnosis into the binary reading: 0 stays 0, 1..4 -> 1."""
    _check_raw_target(float(raw_target))
    return 0 if raw_target == 0 else 1


def drop_incomplete(raw: RawTable) -> Dataset:
    """Remove every row with a missing cell and binarize the target."""
    keep_x, keep_y = [], []
    for cells, target in zip(raw.cells, raw.targets):
        if any(c is None for c in cells):
            continue
        keep_x.append(cells)
        keep_y.append(binarize_target(target))
    if not keep_x:
        raise EmptyDataset("all rows contained missing values")
    X = np.asarray(keep_x, dtype=np.float64)
    y = np.asarray(keep_y, dtype=np.int64)
    _validate_values(raw.schema, X)
    return Dataset(schema=raw.schema, X=X, y=y)


def _validate_values(schema, X):
    for j, feat in enumerate(schema):
        if feat.allowed_values is None:
            continue
        bad = ~np.isin(X[:, j], feat.allowed_values)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DisallowedValue(i + 1, feat, float(X[i, j]))


def load_dataset(path, schema=CLEVELAND_SCHEMA, header: bool = False) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    raw = parse_csv(text, schema, header=header)
    return drop_incomplete(raw)


def select_columns(ds: Dataset, keep) -> Dataset:
    """Restrict schema and rows to the named features, in the given order."""
    by_name = {f.name: j for j, f in enumerate(ds.schema)}
    for name in keep:
        if name not in by_name:
            raise UnknownFeature(name)
    idx = [by_name[name] for name in keep]
    return Dataset(
        schema=tuple(ds.schema[j] for j in idx),
        X=ds.X[:, idx].copy(),
        y=ds.y.copy(),
    )


@dataclass(frozen=True)
class Standardization:
    """Per-feature affine stats; identity (mean 0, std 1) for untouched columns."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


def fit_standardization(ds: Dataset) -> Standardization:
    """Z-score stats for continuous features (sample stddev, ddof=1).

    Non-continuous and zero-variance columns get identity stats so they pass
    through unchanged.
    """
    d = len(ds.schema)
    mean = np.zeros(d)
    std = np.ones(d)
    for j, feat in enumerate(ds.schema):
        if feat.kind != CONTINUOUS:
            continue
        col = ds.X[:, j]
        s = np.std(col, ddof=1) if len(col) > 1 else 0.0
        if s > 0.0:
            mean[j] = np.mean(col)
            std[j] = s
    return Standardization(mean=mean, std=std)


def standardize(ds: Dataset, stats: Standardization | None = None):
    """Scale continuous features; returns (scaled dataset, stats used)."""
    if stats is None:
        stats = fit_standardization(ds)
    elif len(stats.mean) != len(ds.schema):
        raise LengthMismatch(len(ds.schema), len(stats.mean))
    return replace(ds, X=stats.apply(ds.X)), stats

