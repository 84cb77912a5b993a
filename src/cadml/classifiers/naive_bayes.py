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
from .params import NBParams

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


@dataclass(frozen=True)
class _KDEStat:
    samples: np.ndarray
    bandwidth: float


@dataclass(frozen=True)
class _FrequencyStat:
    values: tuple[float, ...]
    probs: np.ndarray  # aligned with values


class NBModel:
    def __init__(self, schema, priors, feature_stats, params: NBParams):
        self.schema = schema
        self.priors = priors  # shape (2,)
        self.feature_stats = feature_stats  # [class][feature] -> stat
        self.params = params

    @property
    def n_features(self) -> int:
        return len(self.schema)

    def _log_likelihood(self, stat, value: float) -> float:
        if isinstance(stat, _GaussianStat):
            return -_LOG_SQRT_2PI - 0.5 * math.log(stat.var) \
                - 0.5 * (value - stat.mean) ** 2 / stat.var
        if isinstance(stat, _KDEStat):
            h = stat.bandwidth
            z = (value - stat.samples) / h
            logs = -_LOG_SQRT_2PI - math.log(h) - 0.5 * z * z
            m = float(np.max(logs))
            return m + math.log(float(np.sum(np.exp(logs - m)))) - math.log(len(stat.samples))
        # frequency table; unseen value without smoothing has probability 0
        try:
            p = float(stat.probs[stat.values.index(value)])
        except ValueError:
            p = 0.0
        return math.log(p) if p > 0 else -math.inf

    def log_joint(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise LengthMismatch(self.n_features, x.shape)
        out = np.log(self.priors).astype(np.float64)
        for c in (0, 1):
            for j in range(self.n_features):
                out[c] += self._log_likelihood(self.feature_stats[c][j], float(x[j]))
        return out

    def posterior(self, x) -> np.ndarray:
        """P(class | x), non-negative, summing to 1."""
        return self.posterior_batch(np.asarray(x, dtype=np.float64)[None, :])[0]

    def posterior_batch(self, X) -> np.ndarray:
        """P(class | x) of each row of X, shape (n, 2)."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((len(X), 2))
        for i, x in enumerate(X):
            logs = self.log_joint(x)
            if np.all(np.isinf(logs)):
                out[i] = 0.5
                continue
            m = np.max(logs[np.isfinite(logs)])
            probs = np.where(np.isfinite(logs), np.exp(logs - m), 0.0)
            out[i] = probs / probs.sum()
        return out

    def predict(self, x) -> int:
        return int(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X) -> np.ndarray:
        post = self.posterior_batch(X)
        return np.where(post[:, 0] >= post[:, 1], 0, 1)

    def to_dict(self):
        stats = []
        for c in (0, 1):
            row = []
            for stat in self.feature_stats[c]:
                if isinstance(stat, _GaussianStat):
                    row.append({"type": "gaussian", "mean": stat.mean, "var": stat.var})
                elif isinstance(stat, _KDEStat):
                    row.append({"type": "kde", "samples": [float(v) for v in stat.samples],
                                "bandwidth": stat.bandwidth})
                else:
                    row.append({"type": "frequency", "values": list(stat.values),
                                "probs": [float(p) for p in stat.probs]})
            stats.append(row)
        return {
            "algorithm": "nb",
            "version": 1,
            "params": self.params.to_dict(),
            "priors": [float(p) for p in self.priors],
            "feature_stats": stats,
        }

    @classmethod
    def from_dict(cls, d, schema):
        stats = []
        for row in d["feature_stats"]:
            out = []
            for s in row:
                if s["type"] == "gaussian":
                    out.append(_GaussianStat(mean=s["mean"], var=s["var"]))
                elif s["type"] == "kde":
                    out.append(_KDEStat(samples=np.asarray(s["samples"]), bandwidth=s["bandwidth"]))
                else:
                    out.append(_FrequencyStat(values=tuple(s["values"]),
                                              probs=np.asarray(s["probs"])))
            stats.append(out)
        return cls(schema=schema, priors=np.asarray(d["priors"]),
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
