"""Naive Bayes with Gaussian or kernel-density likelihoods for continuous
features and (Laplace-smoothed) frequency tables for the discrete kinds.

nb_fit takes whole-array passes per class, its moments from the routine that
z-scoring uses (dataset._moments), and an NBModel holds one set of parameter
arrays per class and likelihood kind, which scores its features' columns in
one pass, bit for bit per feature; per-feature records exist only in the
model file. log_likelihoods is the one loop over the kinds: log_joint and the
wrapper search add its block of a class in schema order. Posteriors are
computed in log space, a non-finite log-joint counting as -inf, and
renormalized; a row's score is P(1|x) - P(0|x), so equal posteriors score 0,
which labels class 0.
"""
from __future__ import annotations

import math

import numpy as np

from ..dataset import CONTINUOUS, Dataset, _moments
from ..errors import SingleClassData, TooFewRows
from .params import NBParams, as_shaped

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# kernel terms per kernel-density pass: 512 kB temporaries, which stay in a
# 2 MB L2 cache; passes of 1 << 20 scored 5000 rows half as fast
_KDE_BLOCK = 1 << 16


# Each kind holds the parameters of k features (schema indices `features`) of one class, maps
# their (k, n) columns to log-likelihoods, and reads and writes their model-file records.
class _Gaussian:
    def __init__(self, features, mean, var):  # mean, var: (k, 1)
        self.features, self.mean, self.var = features, mean, var
        self.const = np.array([[-_LOG_SQRT_2PI - 0.5 * math.log(v)] for v in var.ravel().tolist()])

    def __call__(self, X):
        # libm pow, as ** on a float: x * x differs in the last bit on about 1 input in 1200
        return self.const - 0.5 * np.float_power(X - self.mean, 2.0) / self.var

    def records(self):
        return [{"type": "gaussian", "mean": m, "var": v}
                for m, v in zip(self.mean.ravel().tolist(), self.var.ravel().tolist())]

    @classmethod
    def read(cls, s):
        return (cls, 0), ([float(as_shaped(s["mean"], (), "mean"))],
                          [float(as_shaped(s["var"], (), "var", positive=True))])


class _Kernel:
    def __init__(self, features, samples, bandwidth):  # (k, m) samples, (k, 1) bandwidths
        self.features, self.samples, self.h = features, samples[:, None], bandwidth[:, :, None]
        self.const = -_LOG_SQRT_2PI - np.array([[[math.log(h)]] for h in bandwidth.flat])

    def __call__(self, X):
        step, log_count = max(1, _KDE_BLOCK // self.samples.size), math.log(self.samples.shape[2])
        out = np.empty(X.shape)
        for i in range(0, X.shape[1], step):
            z = X[:, i:i + step, None] - self.samples
            z /= self.h
            logs = np.subtract(self.const, np.multiply(0.5 * z, z, out=z), out=z)  # in place
            m = np.max(logs, axis=2)
            sums = np.sum(np.exp(np.subtract(logs, m[:, :, None], out=logs), out=logs), axis=2)
            # math.log: np.log differs in the last bit on about 1 input in 6400
            out[:, i:i + step] = m + np.reshape(
                list(map(math.log, sums.ravel().tolist())), sums.shape) - log_count
        return out

    def records(self):
        return [{"type": "kde", "samples": s, "bandwidth": h}
                for s, h in zip(self.samples[:, 0].tolist(), self.h.ravel().tolist())]

    @classmethod
    def read(cls, s):
        samples = as_shaped(s["samples"], (len(s["samples"]),), "samples")
        if len(samples) == 0:
            raise ValueError("kde without samples")
        bandwidth = float(as_shaped(s["bandwidth"], (), "bandwidth", positive=True))
        return (cls, len(samples)), (samples, [bandwidth])


class _Table:
    def __init__(self, features, values, probs):  # (k, w), both NaN past a table's end
        self.features, self.values, self.probs = features, values, probs
        # log P of each cell, then -inf for a value the table lacks, as for P = 0 or a padded cell
        self.logp = np.array([[math.log(p) if p > 0 else -math.inf for p in row] + [-math.inf]
                              for row in probs.tolist()])

    def __call__(self, X):
        k, w = self.values.shape
        hit = np.ones((k, w + 1, X.shape[1]), dtype=bool)  # a value hits row w if no other
        np.equal(X[:, None, :], self.values[:, :, None], out=hit[:, :w])  # NaN equals none
        return self.logp[np.arange(k)[:, None], hit.argmax(axis=1)]

    def records(self):
        return [{"type": "frequency", "values": v[~np.isnan(v)].tolist(),
                 "probs": p[~np.isnan(v)].tolist()} for v, p in zip(self.values, self.probs)]

    @classmethod
    def read(cls, s):
        values = as_shaped(s["values"], (len(s["values"]),), "values")
        if len(values) == 0:
            raise ValueError("frequency table without values")
        probs = as_shaped(s["probs"], (len(values),), "probs")
        if (probs > 1).any() or (probs < 0).any():
            raise ValueError("probs outside [0, 1]")
        return (cls, 0), (values, probs)


_KINDS = {"gaussian": _Gaussian, "kde": _Kernel, "frequency": _Table}


def _padded(rows) -> np.ndarray:
    """Rows of numbers as one array, the shorter ones padded with NaN."""
    width = max(map(len, rows))
    return np.array([[*row, *[math.nan] * (width - len(row))] for row in rows])


def posterior_from_log_joint(logs: np.ndarray) -> np.ndarray:
    """Class posteriors of (n, 2) log-joints: every non-finite log-joint counts
    as -inf, each row less its maximum is exponentiated and normalized, and a
    row with no finite entry is uniform. Overwrites logs."""
    np.copyto(logs, -np.inf, where=~(logs < np.inf))  # NaN and +inf fail logs < inf
    top = np.maximum(logs[:, :1], logs[:, 1:])
    uniform = top[:, 0] == -np.inf
    logs[uniform], top[uniform] = 0.0, 0.0
    np.exp(np.subtract(logs, top, out=logs), out=logs)
    return logs / (logs[:, :1] + logs[:, 1:])


def score_from_log_joint(logs: np.ndarray) -> np.ndarray:
    """P(1|x) - P(0|x) of each row of (n, 2) log-joints. IEEE subtraction
    keeps the sign of a difference, so the score is above 0 exactly where
    P(1|x) > P(0|x), and 0 where they are equal. Overwrites logs."""
    post = posterior_from_log_joint(logs)
    return post[:, 1] - post[:, 0]


class NBModel:
    def __init__(self, priors, kinds, params: NBParams):
        # priors: shape (2,); kinds: per class, likelihood kinds that cover each feature once
        self.priors, self.kinds, self.params = priors, kinds, params

    def log_likelihoods(self, X, c: int) -> np.ndarray:
        """log P(x_j | class c) of each feature j and row of X, shape (d, n)."""
        out = np.empty(X.shape[::-1])
        for kind in self.kinds[c]:
            out[kind.features] = kind(X.T[kind.features])
        return out

    def log_joint(self, X) -> np.ndarray:
        """log P(class) plus the feature log-likelihoods in schema order, shape (n, 2)."""
        # sum frees one class's block before the next class's is built
        return np.array([sum(self.log_likelihoods(X, c), np.full(len(X), log_prior))
                         for c, log_prior in enumerate(np.log(self.priors).tolist())]).T

    def posterior_batch(self, X) -> np.ndarray:
        """P(class | x) of each row of X, shape (n, 2)."""
        return posterior_from_log_joint(self.log_joint(X))

    def score_batch(self, X) -> np.ndarray:
        return score_from_log_joint(self.log_joint(X))

    def to_dict(self):
        rows = [{j: r for kind in kinds for j, r in zip(kind.features.tolist(), kind.records())}
                for kinds in self.kinds]
        return {"params": self.params.to_dict(), "priors": [float(p) for p in self.priors],
                "feature_stats": [[row[j] for j in sorted(row)] for row in rows]}

    @classmethod
    def from_dict(cls, d, schema):
        rows = [[_KINDS[s["type"]].read(s) for s in row] for row in d["feature_stats"]]
        if len(rows) != 2 or any(len(row) != len(schema) for row in rows):
            raise ValueError(f"feature_stats is not 2 x {len(schema)}")
        kinds = []
        for row in rows:
            groups = {}  # feature indices by kind, kernels by sample count
            for j, (key, _) in enumerate(row):
                groups.setdefault(key, []).append(j)
            kinds.append([kind(np.array(js), *map(_padded, zip(*(row[j][1] for j in js))))
                          for (kind, _), js in groups.items()])
        return cls(priors=as_shaped(d["priors"], (2,), "priors", positive=True),
                   kinds=kinds, params=NBParams.from_dict(d["params"]))


def _quartiles(block) -> np.ndarray:
    """np.percentile(block, [75, 25], axis=1) bit for bit: Hyndman and Fan's type 7, the
    linear interpolation between two order statistics np.partition places, as numpy's _lerp."""
    at = [(block.shape[1] - 1) * q for q in (0.75, 0.25)]
    below = [math.floor(v) for v in at]
    part = np.partition(block, sorted({*below, *(k + 1 for k in below)}), axis=1)
    a, b, t = part[:, below], part[:, [k + 1 for k in below]], np.array(at) - below
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t).T


def nb_fit(ds: Dataset, params: NBParams = NBParams()) -> NBModel:
    neg, pos = ds.class_counts()
    if neg == 0 or pos == 0:
        raise SingleClassData("both classes required to fit naive Bayes")
    if neg < 2 or pos < 2:
        raise TooFewRows("need at least 2 rows per class")
    continuous = np.array([f.kind == CONTINUOUS for f in ds.schema])
    cont, tables = np.flatnonzero(continuous), np.flatnonzero(~continuous)
    in_class, kinds = [ds.y == 0, ds.y == 1], [[], []]
    columns = ds.X.T[cont]
    if not params.use_kernel_density:
        # the floor keeps a zero-variance column from a degenerate spike
        floor = 1e-9 * (_moments(columns)[1] + 1e-12)
    for row, rows in zip(kinds, in_class if len(cont) else ()):  # no kind of no features
        block = columns.compress(rows, axis=1)  # C-contiguous (features x rows)
        mean, var = _moments(block)
        if params.use_kernel_density:
            # Silverman's rule: 0.9 n^-1/5 times the smaller of the standard
            # deviation and IQR / 1.34, or else max(|mean|, 1) / 1000
            spread, iqr = np.sqrt(var), np.subtract(*_quartiles(block))
            spread = np.where(iqr > 0, np.minimum(spread, iqr / 1.34), spread)
            spread = np.where(spread <= 0, np.maximum(np.abs(mean[:, 0]), 1.0) * 1e-3, spread)
            h = 0.9 * spread * block.shape[1] ** (-0.2) * params.bandwidth_adjust
            row.append(_Kernel(cont, block, h[:, None]))
        else:
            row.append(_Gaussian(cont, mean, np.maximum(var, floor)[:, None]))
    if len(tables):
        values = _padded([ds.schema[j].allowed_values for j in tables])
        # one comparison (tables x values x rows), one product with the class indicators
        hits = ds.X.T[tables][:, None, :] == values[:, :, None]
        counts = (hits.reshape(-1, ds.n_rows) @ np.array(in_class, dtype=float).T).T
        pads = np.isnan(values)
        probs = (counts.reshape(2, *values.shape) + params.laplace) / (
            np.array([[[neg]], [[pos]]]) + params.laplace * (~pads).sum(axis=1, keepdims=True))
        probs[:, pads] = math.nan
        for row, p in zip(kinds, probs):
            row.append(_Table(tables, values, p))
    return NBModel(priors=np.array([neg, pos]) / ds.n_rows, kinds=kinds, params=params)
