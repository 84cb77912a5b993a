"""Naive Bayes with Gaussian or kernel-density likelihoods for continuous
features and (Laplace-smoothed) frequency tables for the discrete kinds.

Fitting and scoring take whole-array passes per class. nb_fit reduces the
rows of one C-contiguous (features x rows) block of a class's continuous
columns, the pairwise sums np.mean, np.var and np.percentile take of one
column, and counts each frequency table with one comparison. An NBModel
stacks each class's parameters by likelihood kind, and log_likelihoods
scores a class in one pass per kind, each column bit for bit the
per-feature likelihood.

Posteriors are computed in log space and renormalized; a row's score is
P(1|x) - P(0|x), so equal posteriors score 0, which labels class 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import CONTINUOUS, Dataset
from ..errors import SingleClassData, TooFewRows
from .params import NBParams, as_shaped

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# kernel terms per kernel-density pass: 512 kB temporaries, which stay in a
# 2 MB L2 cache; passes of 1 << 20 scored 5000 rows half as fast
_KDE_BLOCK = 1 << 16


# Each kind's scorer(stats) stacks the parameters of k features of one class
# and returns the function from their (k, n) columns to their log-likelihoods.
@dataclass(frozen=True)
class _GaussianStat:
    mean: float
    var: float

    @staticmethod
    def scorer(stats):
        mean, var = np.array([[s.mean, s.var] for s in stats]).T[:, :, None]
        const = np.array([[-_LOG_SQRT_2PI - 0.5 * math.log(s.var)] for s in stats])
        # libm pow, like ** on a Python float: x * x differs in the last bit
        # on about 1 input in 1200, and the tests pin these scores bit for bit
        return lambda X: const - 0.5 * np.float_power(X - mean, 2.0) / var

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

    @staticmethod
    def scorer(stats):  # of features with one sample count
        samples = np.array([s.samples for s in stats])[:, None, :]
        h, const = np.array([[s.bandwidth, -_LOG_SQRT_2PI - math.log(s.bandwidth)]
                             for s in stats]).T[:, :, None, None]
        log_count, step = math.log(samples.shape[2]), max(1, _KDE_BLOCK // samples.size)

        def score(X):
            out = np.empty(X.shape)
            for i in range(0, X.shape[1], step):
                z = (X[:, i:i + step, None] - samples) / h
                logs = const - 0.5 * z * z
                m = np.max(logs, axis=2)
                sums = np.sum(np.exp(logs - m[:, :, None]), axis=2)
                # math.log, not np.log, which differs in the last bit on
                # about 1 input in 6400 (see the Gaussian square above)
                out[:, i:i + step] = m + np.reshape(
                    list(map(math.log, sums.ravel().tolist())), sums.shape) - log_count
            return out
        return score

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


def _padded(rows, width: int, fill: float) -> np.ndarray:
    return np.array([[*row, *[fill] * (width - len(row))] for row in rows])


@dataclass(frozen=True)
class _FrequencyStat:
    values: tuple[float, ...]
    probs: np.ndarray  # aligned with values

    @staticmethod
    def scorer(stats):
        # padded with NaN, which equals no value, and -inf: logp[:, width]
        # scores a value a table lacks, as 0 probability (unsmoothed) does
        width = max(len(s.values) for s in stats)
        values = _padded([s.values for s in stats], width, math.nan)[:, :, None]
        logp = _padded([[math.log(p) if p > 0 else -math.inf for p in s.probs.tolist()]
                        for s in stats], width + 1, -math.inf)
        tables = np.arange(len(stats))[:, None]

        def score(X):
            hit = X[:, None, :] == values
            return logp[tables, np.where(hit.any(axis=1), hit.argmax(axis=1), width)]
        return score

    def to_dict(self):
        return {"type": "frequency", "values": list(self.values),
                "probs": [float(p) for p in self.probs]}

    @classmethod
    def from_dict(cls, s):
        values = as_shaped(s["values"], (len(s["values"]),), "values")
        if len(values) == 0:
            raise ValueError("frequency table without values")
        probs = as_shaped(s["probs"], (len(values),), "probs")
        if (probs > 1).any() or (probs < 0).any():
            raise ValueError("probs outside [0, 1]")
        return cls(values=tuple(values.tolist()), probs=probs)


_STATS = {"gaussian": _GaussianStat, "kde": _KDEStat, "frequency": _FrequencyStat}


def posterior_from_log_joint(logs: np.ndarray) -> np.ndarray:
    """Class posteriors of (n, 2) log-joints, renormalized over each row's
    finite entries, uniform for a row with none. Overwrites logs."""
    finite = np.isfinite(logs)
    none = ~(finite[:, 0] | finite[:, 1])
    logs[none], finite[none] = 0.0, True
    kept = np.where(finite, logs, -np.inf)
    probs = np.where(finite, np.exp(logs - np.maximum(kept[:, :1], kept[:, 1:])), 0.0)
    return probs / (probs[:, :1] + probs[:, 1:])


def score_from_log_joint(logs: np.ndarray) -> np.ndarray:
    """P(1|x) - P(0|x) of each row of (n, 2) log-joints. IEEE subtraction
    keeps the sign of a difference, so the score is above 0 exactly where
    P(1|x) > P(0|x), and 0 where they are equal. Overwrites logs."""
    post = posterior_from_log_joint(logs)
    return post[:, 1] - post[:, 0]


class NBModel:
    def __init__(self, priors, feature_stats, params: NBParams):
        self.priors = priors  # shape (2,)
        self.feature_stats = feature_stats  # [class][feature] -> stat
        self.params = params
        # per class, (feature indices, scorer) of each kind and sample count
        self._scorers = []
        for row in feature_stats:
            groups = {}
            for j, stat in enumerate(row):
                groups.setdefault((type(stat), len(getattr(stat, "samples", ()))), []).append(j)
            self._scorers.append([(idx, kind.scorer([row[j] for j in idx]))
                                  for (kind, _), idx in groups.items()])

    def log_likelihoods(self, X, c: int) -> np.ndarray:
        """log P(x_j | class c) of each row and feature of X, shape (n, d)."""
        out = np.empty(X.shape[::-1])  # features x rows
        for idx, score in self._scorers[c]:
            out[idx] = score(X.T[idx])
        return out.T

    def log_joint(self, X) -> np.ndarray:
        """log P(class) + sum of the feature log-likelihoods, shape (n, 2)."""
        out = np.tile(np.log(self.priors), (len(X), 1))
        for c in (0, 1):
            for column in self.log_likelihoods(X, c).T:
                out[:, c] += column
        return out

    def posterior_batch(self, X) -> np.ndarray:
        """P(class | x) of each row of X, shape (n, 2)."""
        return posterior_from_log_joint(self.log_joint(X))

    def score_batch(self, X) -> np.ndarray:
        return score_from_log_joint(self.log_joint(X))

    def to_dict(self):
        return {
            "params": self.params.to_dict(),
            "priors": [float(p) for p in self.priors],
            "feature_stats": [[stat.to_dict() for stat in row] for row in self.feature_stats],
        }

    @classmethod
    def from_dict(cls, d, schema):
        stats = [[_STATS[s["type"]].from_dict(s) for s in row] for row in d["feature_stats"]]
        if len(stats) != 2 or any(len(row) != len(schema) for row in stats):
            raise ValueError(f"feature_stats is not 2 x {len(schema)}")
        return cls(priors=as_shaped(d["priors"], (2,), "priors", positive=True),
                   feature_stats=stats, params=NBParams.from_dict(d["params"]))


def nb_fit(ds: Dataset, params: NBParams = NBParams()) -> NBModel:
    neg, pos = ds.class_counts()
    if neg == 0 or pos == 0:
        raise SingleClassData("both classes required to fit naive Bayes")
    if neg < 2 or pos < 2:
        raise TooFewRows("need at least 2 rows per class")
    cont = [j for j, f in enumerate(ds.schema) if f.kind == CONTINUOUS]
    tables = [(j, f.allowed_values) for j, f in enumerate(ds.schema) if f.kind != CONTINUOUS]
    in_class = [ds.y == 0, ds.y == 1]
    indicators = np.array(in_class, dtype=float)
    stats = [[None] * len(ds.schema) for _ in in_class]
    columns = ds.X.T[cont]
    if not params.use_kernel_density:
        # the floor keeps a zero-variance column from a degenerate spike
        floor = 1e-9 * (np.var(columns, axis=1, ddof=1) + 1e-12)
    for row, rows in zip(stats, in_class):
        block = columns.compress(rows, axis=1)  # C-contiguous (features x rows)
        if params.use_kernel_density:
            # Silverman's rule: 0.9 n^-1/5 times the smaller of the standard
            # deviation and IQR / 1.34, or else max(|mean|, 1) / 1000
            spread = np.std(block, axis=1, ddof=1)
            iqr = np.subtract(*np.percentile(block, [75, 25], axis=1))
            spread = np.where(iqr > 0, np.minimum(spread, iqr / 1.34), spread)
            spread = np.where(spread <= 0,
                              np.maximum(np.abs(np.mean(block, axis=1)), 1.0) * 1e-3, spread)
            h = 0.9 * spread * block.shape[1] ** (-0.2) * params.bandwidth_adjust
            for j, samples, bandwidth in zip(cont, block, h.tolist()):
                row[j] = _KDEStat(samples=samples, bandwidth=bandwidth)
        else:
            var = np.maximum(np.var(block, axis=1, ddof=1), floor).tolist()
            for j, mean, v in zip(cont, np.mean(block, axis=1).tolist(), var):
                row[j] = _GaussianStat(mean=mean, var=v)
    for j, v in tables:
        # one comparison with the table's values; the product with the class
        # indicators counts each class's hits
        counts = indicators @ (ds.X[:, j, None] == np.array(v))
        probs = (counts + params.laplace) / (np.array([[neg], [pos]]) + params.laplace * len(v))
        for row, p in zip(stats, probs):
            row[j] = _FrequencyStat(values=tuple(v), probs=p)
    return NBModel(priors=np.array([neg, pos]) / ds.n_rows, feature_stats=stats, params=params)
