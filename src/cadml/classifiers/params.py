"""Hyperparameter records for the three classifiers, and the shape check
that their models apply to the arrays of a model file."""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np


class _Params:
    """The dict form every record shares: its algorithm name plus its fields."""

    def to_dict(self):
        return {"algorithm": self.algorithm, **asdict(self)}

    @classmethod
    def from_dict(cls, d):
        return cls(**{f.name: _json_field(d[f.name], type(f.default), f.name)
                      for f in fields(cls)})


def _json_field(value, kind, name):
    """value of a JSON record as kind: a bool only from a JSON boolean, an int
    only from an integral number, a float only from a finite number; a JSON
    1 reads as 1.0 and 3.0 as 3, but "false" is not False and 3.9 is not 3."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is int:
        ok = number and (isinstance(value, int) or value.is_integer())
    else:
        # false for NaN, inf and an int too large for a float
        ok = number and abs(value) <= sys.float_info.max
    if not ok:
        raise ValueError(f"{name} must be a JSON {kind.__name__}, not {value!r}")
    return kind(value)


@dataclass(frozen=True)
class NBParams(_Params):
    use_kernel_density: bool = False
    laplace: float = 0.0
    bandwidth_adjust: float = 1.0

    algorithm = "nb"

    def __post_init__(self):
        if not 0 <= self.laplace < math.inf:
            raise ValueError("laplace must be finite and >= 0")
        if not 0 < self.bandwidth_adjust < math.inf:
            raise ValueError("bandwidth_adjust must be finite and > 0")


@dataclass(frozen=True)
class KNNParams(_Params):
    k: int = 5

    algorithm = "knn"

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("k must be an odd positive integer")


@dataclass(frozen=True)
class SVMParams(_Params):
    C: float = 0.25
    sigma: float = 0.1268408

    algorithm = "svm"

    def __post_init__(self):
        if not (0 < self.C < math.inf and 0 < self.sigma < math.inf):
            raise ValueError("C and sigma must be positive and finite")


HyperParams = NBParams | KNNParams | SVMParams


def as_shaped(value, shape, name, positive=False) -> np.ndarray:
    """value from a model file as a float64 array of the given shape, with
    entries that are JSON numbers (not strings or booleans), finite, and all
    above 0 if positive."""
    leaves = np.asarray(value, dtype=object)
    if leaves.shape != shape:
        raise ValueError(f"{name} has shape {leaves.shape}, expected {shape}")
    if not {type(v) for v in leaves.flat} <= {int, float}:
        raise ValueError(f"{name} must hold JSON numbers")
    array = leaves.astype(np.float64)
    if not np.isfinite(array).all() or (positive and not (array > 0).all()):
        raise ValueError(f"{name} must hold finite{' positive' if positive else ''} numbers")
    return array
