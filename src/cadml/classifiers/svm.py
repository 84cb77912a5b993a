"""Soft-margin RBF SVM trained by sequential minimal optimization.

Kernel convention is exp(-sigma * ||x - y||^2), so the sigma reported by the
radial-SVM toolchains can be used verbatim. Labels are mapped {0 -> -1,
1 -> +1} internally; the decision function is
f(x) = sum_i alpha_i y_i K(x_i, x) + b with f(x) > 0 meaning class 1.

The solver (smo) is pairwise coordinate ascent over the dual on a full
precomputed Gram matrix. Each iteration takes the maximal violating point
(Keerthi et al., Neural Computation 13, 2001) and the partner of largest
second-order gain (Fan, Chen & Lin, JMLR 6, 2005; LIBSVM's WSS2), and keeps
one gradient vector up to date. The violation gap of that pair is the
stopping test, and the centre of the interval it spans is the bias.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..dataset import Dataset
from ..errors import LengthMismatch, SingleClassData
from .params import SVMParams, _json_field, as_shaped

_ALPHA_EPS = 1e-12
_CHUNK_ROWS = 1024  # SVMModel.decision holds a support-vectors x _CHUNK_ROWS Gram block
_GRAM_ROWS = 16  # rbf_gram adds the squared norms in blocks of this many rows


def rbf_gram(X, Y, sigma: float) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    # one (len(X), len(Y)) buffer, updated in place; the operation order is
    # |x|^2 + |y|^2 - 2 x.y, clamp at 0, times -sigma, exp; |x|^2 + |y|^2 is
    # formed _GRAM_ROWS rows at a time, so it needs no second such buffer
    sx, sy = np.sum(X**2, axis=1), np.sum(Y**2, axis=1)
    out = 2.0 * X @ Y.T
    for s in range(0, len(X), _GRAM_ROWS):
        rows = out[s:s + _GRAM_ROWS]
        np.subtract(sx[s:s + _GRAM_ROWS, None] + sy, rows, out=rows)
    np.maximum(out, 0.0, out=out)
    out *= -sigma
    return np.exp(out, out=out)


def dual_objective(K, y, alpha) -> float:
    ay = alpha * y
    return float(np.sum(alpha) - 0.5 * ay @ K @ ay)


def kkt_residuals(K, y, alpha, b, C) -> np.ndarray:
    """Per-point violation of the dual optimality conditions (0 when satisfied)."""
    u = y * (K @ (alpha * y) + b)
    res = np.empty_like(u)
    lower = alpha <= _ALPHA_EPS
    upper = alpha >= C - _ALPHA_EPS
    mid = ~lower & ~upper
    res[lower] = np.maximum(0.0, 1.0 - u[lower])
    res[upper] = np.maximum(0.0, u[upper] - 1.0)
    res[mid] = np.abs(1.0 - u[mid])
    return res


class SMOResult(NamedTuple):
    alpha: np.ndarray
    bias: float
    converged: bool
    objective_trace: list  # dual objective after each iteration


def smo(K, y, C: float, tol: float = 1e-3, max_iter: int | None = None) -> SMOResult:
    """Maximize the dual over 0 <= alpha <= C, sum(alpha * y) = 0.

    r = y - K (alpha * y) is the bias each point would need to sit on its
    margin. "up" holds the points whose alpha_i y_i may grow, "low" those
    whose alpha_i y_i may shrink; the KKT conditions hold when
    m = max r[up] <= M = min r[low], and any bias in [m, M] then works.
    Each step moves alpha_i y_i up and alpha_j y_j down by the same t, which
    raises the objective by t b - t^2 a / 2 with b = r_i - r_j and
    a = K_ii + K_jj - 2 K_ij; i attains m and j maximizes b^2 / a.

    The default cap on iterations is LIBSVM's, max(10^7, 100 n): a large C
    on a near-linear kernel takes tens of thousands of steps on 297 rows.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if max_iter is None:
        max_iter = max(10_000_000, 100 * n)
    r = y.copy()
    diag = np.diag(K).copy()
    up = y > 0
    low = ~up
    # the scalar steps run on Python floats and bools: indexing a numpy
    # array boxes a new scalar on every read
    alpha, labels, pos = [0.0] * n, y.tolist(), up.tolist()
    a, gain, step = np.empty(n), np.empty(n), np.empty(n)
    objective, trace = 0.0, []
    for it in range(max_iter + 1):
        r_up = np.where(up, r, -np.inf)
        i = int(r_up.argmax())
        r_low = np.where(low, r, np.inf)
        m, M = r_up.item(i), float(r_low.min())
        if m - M < tol or it == max_iter:
            break
        b = np.subtract(m, r_low, out=r_low)
        # j maximizes b^2 / a over b > 0; clamped to 0, the rest gain nothing
        np.maximum(b, 0.0, out=b)
        K_i = K[i]
        # a is 0 for a duplicate of row i; the floor sends that step to a bound
        np.add(diag, diag[i], out=a)
        a -= 2.0 * K_i
        np.maximum(a, 1e-12, out=a)
        np.multiply(b, b, out=gain)
        gain /= a
        j = int(gain.argmax())
        b_j, a_j = b.item(j), a.item(j)
        t = min(b_j / a_j, C - alpha[i] if pos[i] else alpha[i],
                alpha[j] if pos[j] else C - alpha[j])
        alpha[i] += labels[i] * t
        alpha[j] -= labels[j] * t
        np.subtract(K_i, K[j], out=step)
        step *= t
        r -= step
        objective += t * (b_j - 0.5 * t * a_j)
        trace.append(objective)
        for k in (i, j):
            below_c, above_0 = alpha[k] < C - _ALPHA_EPS, alpha[k] > _ALPHA_EPS
            up[k], low[k] = (below_c, above_0) if pos[k] else (above_0, below_c)
    return SMOResult(np.array(alpha), 0.5 * (m + M), m - M < tol, trace)


class SVMModel:
    def __init__(self, support_vectors, dual_coef, bias, params: SVMParams,
                 dual_objective_value, converged=True, objective_trace=None):
        self.support_vectors = np.asarray(support_vectors, dtype=np.float64)
        self.dual_coef = np.asarray(dual_coef, dtype=np.float64)  # alpha_i * y_i
        self.bias = float(bias)
        self.params = params
        self.dual_objective = float(dual_objective_value)
        self.converged = bool(converged)
        self.objective_trace = objective_trace or []

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]

    def decision(self, X) -> np.ndarray:
        """f(x) of each row of X."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise LengthMismatch(self.n_features, X.shape)
        f = np.empty(len(X))
        for s in range(0, len(X), _CHUNK_ROWS):
            f[s:s + _CHUNK_ROWS] = self.dual_coef @ rbf_gram(
                self.support_vectors, X[s:s + _CHUNK_ROWS], self.params.sigma)
        return f + self.bias

    def predict_batch(self, X) -> np.ndarray:
        return (self.decision(X) > 0.0).astype(np.int64)

    def to_dict(self):
        return {
            "algorithm": "svm",
            "version": 1,
            "params": self.params.to_dict(),
            "support_vectors": [[float(v) for v in row] for row in self.support_vectors],
            "dual_coef": [float(v) for v in self.dual_coef],
            "bias": self.bias,
            "dual_objective": self.dual_objective,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, d, schema):
        dual_coef = as_shaped(d["dual_coef"], (len(d["dual_coef"]),), "dual_coef")
        return cls(
            support_vectors=as_shaped(d["support_vectors"], (len(dual_coef), len(schema)),
                                      "support_vectors"),
            dual_coef=dual_coef,
            bias=as_shaped(d["bias"], (), "bias"),
            params=SVMParams.from_dict(d["params"]),
            dual_objective_value=_json_field(d["dual_objective"], float, "dual_objective"),
            converged=_json_field(d["converged"], bool, "converged"),
        )


def svm_fit(ds: Dataset, params: SVMParams = SVMParams()) -> SVMModel:
    neg, pos = ds.class_counts()
    if neg == 0 or pos == 0:
        raise SingleClassData("both classes required to fit the SVM")
    y = np.where(ds.y == 1, 1.0, -1.0)
    K = rbf_gram(ds.X, ds.X, params.sigma)
    res = smo(K, y, params.C)
    sv = res.alpha > _ALPHA_EPS
    return SVMModel(
        support_vectors=ds.X[sv].copy(),
        dual_coef=(res.alpha * y)[sv],
        bias=res.bias,
        params=params,
        dual_objective_value=dual_objective(K, y, res.alpha),
        converged=res.converged,
        objective_trace=res.objective_trace,
    )
