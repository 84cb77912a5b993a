"""Naive Bayes with Gaussian or kernel-density likelihoods for continuous
features and (Laplace-smoothed) frequency tables for the discrete kinds.

Posteriors are computed in log space and renormalized; prediction ties break
toward class 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import CONTINUOUS, Dataset
from ..errors import LengthMismatch, SingleClassData, TooFewRows
from .params import NBParams, as_shaped

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _variance_floor(global_var: float) -> float:
    # prevents degenerate zero-variance spikes without disturbing normal fits
    return 1e-9 * (global_var + 1e-12)


def _silverman_bandwidth(values: np.ndarray) -> float:
    n = len(values)
    s = np.std(values, ddof=1) if n > 1 else 0.0
    iqr = float(np.subtract(*np.percentile(values, [75, 25])))
    spread = min(s, iqr / 1.34) if iqr > 0 else s
    if spread <= 0:
        spread = max(abs(float(np.mean(values))), 1.0) * 1e-3
    return 0.9 * spread * n ** (-0.2)


@dataclass(frozen=True)
class _GaussianStat:
    mean: float
    var: float

    def log_likelihood(self, column: np.ndarray) -> np.ndarray:
        # libm pow, like ** on a Python float: x * x differs in the last bit
        # on about 1 input in 1200, and the tests pin these scores bit for bit
        return -_LOG_SQRT_2PI - 0.5 * math.log(self.var) \
            - 0.5 * np.float_power(column - self.mean, 2.0) / self.var

    def to_dict(self):
        return {"type": "gaussian", "mean": self.mean, "var": self.var}

    @classmethod
    def from_dict(cls, s):
        return cls(mean=float(as_shaped(s["mean"], (), "mean")),
                   var=float(as_shaped(s["var"], (), "var", positive=True)))


@dataclass(frozen=True)
class _KDEStat:
    samples: np.ndarray
    bandwidth: float

    def log_likelihood(self, column: np.ndarray) -> np.ndarray:
        h = self.bandwidth
        z = (column[:, None] - self.samples) / h
        logs = -_LOG_SQRT_2PI - math.log(h) - 0.5 * z * z
        m = np.max(logs, axis=1)
        sums = np.sum(np.exp(logs - m[:, None]), axis=1)
        # math.log, not np.log, which differs in the last bit on about 1
        # input in 6400 (see the Gaussian square above)
        return m + np.array([math.log(s) for s in sums]) - math.log(len(self.samples))

    def to_dict(self):
        return {"type": "kde", "samples": [float(v) for v in self.samples],
                "bandwidth": self.bandwidth}

    @classmethod
    def from_dict(cls, s):
        samples = as_shaped(s["samples"], (len(s["samples"]),), "samples")
        if len(samples) == 0:
            raise ValueError("kde without samples")
        return cls(samples=samples,
                   bandwidth=float(as_shaped(s["bandwidth"], (), "bandwidth", positive=True)))


@dataclass(frozen=True)
class _FrequencyStat:
    values: tuple[float, ...]
    probs: np.ndarray  # aligned with values

    def log_likelihood(self, column: np.ndarray) -> np.ndarray:
        # one log-probability per value, then -inf for a value the table lacks;
        # unseen value without smoothing has probability 0
        logp = np.array([math.log(p) if p > 0 else -math.inf for p in self.probs]
                        + [-math.inf])
        hit = column[:, None] == np.asarray(self.values)
        return logp[np.where(hit.any(axis=1), hit.argmax(axis=1), len(self.values))]

    def to_dict(self):
        return {"type": "frequency", "values": list(self.values),
                "probs": [float(p) for p in self.probs]}

    @classmethod
    def from_dict(cls, s):
        values = tuple(s["values"])
        if not values:
            raise ValueError("frequency table without values")
        probs = as_shaped(s["probs"], (len(values),), "probs")
        if (probs > 1).any() or (probs < 0).any():
            raise ValueError("probs outside [0, 1]")
        return cls(values=values, probs=probs)


_STATS = {"gaussian": _GaussianStat, "kde": _KDEStat, "frequency": _FrequencyStat}


def posterior_from_log_joint(logs: np.ndarray) -> np.ndarray:
    """Class posteriors of (n, 2) log-joints, renormalized over each row's
    finite entries, uniform for a row with none. Overwrites logs."""
    finite = np.isfinite(logs)
    none = ~finite.any(axis=1)
    logs[none], finite[none] = 0.0, True
    m = np.max(logs, axis=1, where=finite, initial=-np.inf, keepdims=True)
    probs = np.where(finite, np.exp(logs - m), 0.0)
    return probs / probs.sum(axis=1, keepdims=True)


def labels_from_log_joint(logs: np.ndarray) -> np.ndarray:
    """The predicted class of each row of (n, 2) log-joints; ties go to class 0."""
    post = posterior_from_log_joint(logs)
    return np.where(post[:, 0] >= post[:, 1], 0, 1)


class NBModel:
    def __init__(self, schema, priors, feature_stats, params: NBParams):
        self.schema = schema
        self.priors = priors  # shape (2,)
        self.feature_stats = feature_stats  # [class][feature] -> stat
        self.params = params

    @property
    def n_features(self) -> int:
        return len(self.schema)

    def log_joint(self, X) -> np.ndarray:
        """log P(class) + sum of the feature log-likelihoods, shape (n, 2)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise LengthMismatch(self.n_features, X.shape)
        out = np.tile(np.log(self.priors), (len(X), 1))
        for c in (0, 1):
            for j, stat in enumerate(self.feature_stats[c]):
                out[:, c] += stat.log_likelihood(X[:, j])
        return out

    def posterior(self, x) -> np.ndarray:
        """P(class | x), non-negative, summing to 1."""
        return self.posterior_batch(np.asarray(x, dtype=np.float64)[None, :])[0]

    def posterior_batch(self, X) -> np.ndarray:
        """P(class | x) of each row of X, shape (n, 2)."""
        return posterior_from_log_joint(self.log_joint(X))

    def predict(self, x) -> int:
        return int(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X) -> np.ndarray:
        return labels_from_log_joint(self.log_joint(X))

    def to_dict(self):
        return {
            "algorithm": "nb",
            "version": 1,
            "params": self.params.to_dict(),
            "priors": [float(p) for p in self.priors],
            "feature_stats": [[stat.to_dict() for stat in row] for row in self.feature_stats],
        }

    @classmethod
    def from_dict(cls, d, schema):
        stats = [[_STATS[s["type"]].from_dict(s) for s in row] for row in d["feature_stats"]]
        if len(stats) != 2 or any(len(row) != len(schema) for row in stats):
            raise ValueError(f"feature_stats is not 2 x {len(schema)}")
        return cls(schema=schema, priors=as_shaped(d["priors"], (2,), "priors", positive=True),
                   feature_stats=stats, params=NBParams.from_dict(d["params"]))


def nb_fit(ds: Dataset, params: NBParams = NBParams()) -> NBModel:
    neg, pos = ds.class_counts()
    if neg == 0 or pos == 0:
        raise SingleClassData("both classes required to fit naive Bayes")
    if neg < 2 or pos < 2:
        raise TooFewRows("need at least 2 rows per class")
    n = ds.n_rows
    priors = np.array([neg / n, pos / n])
    feature_stats = []
    for c in (0, 1):
        Xc = ds.X[ds.y == c]
        row = []
        for j, feat in enumerate(ds.schema):
            col = Xc[:, j]
            if feat.kind == CONTINUOUS:
                if params.use_kernel_density:
                    h = _silverman_bandwidth(col) * params.bandwidth_adjust
                    row.append(_KDEStat(samples=col.copy(), bandwidth=h))
                else:
                    floor = _variance_floor(float(np.var(ds.X[:, j], ddof=1)))
                    var = max(float(np.var(col, ddof=1)), floor)
                    row.append(_GaussianStat(mean=float(np.mean(col)), var=var))
            else:
                values = feat.allowed_values or tuple(sorted(set(ds.X[:, j])))
                counts = np.array([float(np.sum(col == v)) for v in values])
                probs = (counts + params.laplace) / (len(col) + params.laplace * len(values))
                row.append(_FrequencyStat(values=tuple(values), probs=probs))
        feature_stats.append(row)
    return NBModel(schema=ds.schema, priors=priors, feature_stats=feature_stats, params=params)
