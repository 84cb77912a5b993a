"""Hyperparameter records for the three classifiers, and the shape check
that their models apply to the arrays of a model file."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np


class _Params:
    """The dict form every record shares: its algorithm name plus its fields."""

    def to_dict(self):
        return {"algorithm": self.algorithm, **asdict(self)}

    @classmethod
    def from_dict(cls, d):
        # coerce each field to the type of its default, so a JSON 1 reads as 1.0
        return cls(**{f.name: type(f.default)(d[f.name]) for f in fields(cls)})


@dataclass(frozen=True)
class NBParams(_Params):
    use_kernel_density: bool = False
    laplace: float = 0.0
    bandwidth_adjust: float = 1.0

    algorithm = "nb"

    def __post_init__(self):
        if self.laplace < 0:
            raise ValueError("laplace must be >= 0")
        if self.bandwidth_adjust <= 0:
            raise ValueError("bandwidth_adjust must be > 0")


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
    finite entries that are all above 0 if positive."""
    array = np.asarray(value, dtype=np.float64)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all() or (positive and not (array > 0).all()):
        raise ValueError(f"{name} must hold finite{' positive' if positive else ''} numbers")
    return array
