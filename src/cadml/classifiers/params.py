"""Hyperparameter records for the three classifiers."""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields


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
        if self.C <= 0 or self.sigma <= 0:
            raise ValueError("C and sigma must be > 0")


HyperParams = NBParams | KNNParams | SVMParams
