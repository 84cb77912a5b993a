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
stopping test, and the centre of the interval it spans is the bias. The
curvature of every pair, K_ii + K_jj - 2 K_ij, is one n x n matrix built
when the solve starts, so a step reads its row instead of forming it.

A grid search solves its fold problems in batches (lockstep.solve_folds);
svm_fit takes the SMOResult of one, or solves its own with smo.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..dataset import Dataset
from ..errors import NotConverged, SingleClassData
from .params import SVMParams, _json_field, as_shaped

_ALPHA_EPS = 1e-12
_CHUNK_ROWS = 1024  # SVMModel.score_batch holds a support-vectors x _CHUNK_ROWS Gram block
_GRAM_ROWS = 16  # rbf_gram and smo add the squared norms or diagonals in blocks of this many rows
_STEPS_PER_ROW = 500  # smo's default cap is this many steps per training row
_TOL = 1e-3  # the violation gap at which smo and smo_lockstep stop


def rbf_gram(X, Y, sigma: float, out=None) -> np.ndarray:
    """The (len(X), len(Y)) Gram matrix, written into out when given."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    # one (len(X), len(Y)) buffer, updated in place; the operation order is
    # |x|^2 + |y|^2 - 2 x.y, clamp at 0, times -sigma, exp; |x|^2 + |y|^2 is
    # formed _GRAM_ROWS rows at a time, so it needs no second such buffer
    sx, sy = np.sum(X**2, axis=1), np.sum(Y**2, axis=1)
    out = np.matmul(2.0 * X, Y.T, out=out)
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
    dual_objective: float  # dual_objective(K, y, alpha) on the problem's own Gram matrix


def smo(K, y, C: float, tol: float = _TOL, max_iter: int | None = None) -> SMOResult:
    """Maximize the dual over 0 <= alpha <= C, sum(alpha * y) = 0.

    r = y - K (alpha * y) is the bias each point would need to sit on its
    margin. "up" holds the points whose alpha_i y_i may grow, "low" those
    whose alpha_i y_i may shrink; the KKT conditions hold when
    m = max r[up] <= M = min r[low], and any bias in [m, M] then works.
    Each step moves alpha_i y_i up and alpha_j y_j down by the same t, which
    raises the objective by t b - t^2 a / 2 with b = r_i - r_j and
    a = K_ii + K_jj - 2 K_ij; i attains m and j maximizes b^2 / a.

    The default cap on iterations is 500 n. The most any fit of the test
    suite or of the default grids (seeds 2018 and 1-8, 7 and 13 features)
    takes is 14,416 steps on 297 rows, C = 1000 on a near-linear kernel,
    about 49 n; the cap leaves ten times that.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if max_iter is None:
        max_iter = _STEPS_PER_ROW * n
    r = y.copy()
    diag = np.diag(K)
    # A[i, j] = K_ii + K_jj - 2 K_ij, filled in place a block of rows at a
    # time; it is 0 for a duplicate of row i, and the floor sends that step
    # to a bound
    A = np.empty((n, n))
    for s in range(0, n, _GRAM_ROWS):
        rows = A[s:s + _GRAM_ROWS]
        np.multiply(K[s:s + _GRAM_ROWS], 2.0, out=rows)
        np.subtract(diag[s:s + _GRAM_ROWS, None] + diag, rows, out=rows)
    np.maximum(A, 1e-12, out=A)
    # r + up_pen is r over "up" and -inf elsewhere, r + low_pen is r over
    # "low" and +inf elsewhere: np.where's values at a third of its cost, as
    # r is finite (an overflow raises inside a fit) and never -0.0, since
    # it starts at y and x - s is -0.0 only for x = -0.0
    pos = y > 0
    up_pen, low_pen = np.where(pos, 0.0, -math.inf), np.where(pos, math.inf, 0.0)
    # the scalar steps run on Python floats and bools: indexing a numpy
    # array boxes a new scalar on every read
    alpha, labels, pos = [0.0] * n, y.tolist(), pos.tolist()
    r_up, r_low, gain, step = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    objective, trace = 0.0, []
    for it in range(max_iter + 1):
        np.add(r, up_pen, out=r_up)
        i = int(r_up.argmax())
        np.add(r, low_pen, out=r_low)
        # the entry at argmin is the minimum, read for half the cost of min()
        m, M = r_up.item(i), r_low.item(r_low.argmin())
        if m - M < tol or it == max_iter:
            break
        b = np.subtract(m, r_low, out=r_low)
        # j maximizes b^2 / a over b > 0; clamped to 0, the rest gain nothing
        np.maximum(b, 0.0, out=b)
        a = A[i]
        np.multiply(b, b, out=gain)
        gain /= a
        j = int(gain.argmax())
        b_j, a_j = b.item(j), a.item(j)
        t = min(b_j / a_j, C - alpha[i] if pos[i] else alpha[i],
                alpha[j] if pos[j] else C - alpha[j])
        alpha[i] += labels[i] * t
        alpha[j] -= labels[j] * t
        np.subtract(K[i], K[j], out=step)
        step *= t
        r -= step
        objective += t * (b_j - 0.5 * t * a_j)
        trace.append(objective)
        for k in (i, j):
            below_c, above_0 = alpha[k] < C - _ALPHA_EPS, alpha[k] > _ALPHA_EPS
            up, low = (below_c, above_0) if pos[k] else (above_0, below_c)
            up_pen[k], low_pen[k] = 0.0 if up else -math.inf, 0.0 if low else math.inf
    alpha = np.array(alpha)
    return SMOResult(alpha, 0.5 * (m + M), m - M < tol, trace, dual_objective(K, y, alpha))


class SVMModel:
    converged = True  # svm_fit raises NotConverged, and from_dict rejects false

    def __init__(self, support_vectors, dual_coef, bias, params: SVMParams,
                 dual_objective_value, objective_trace=None):
        self.support_vectors = np.asarray(support_vectors, dtype=np.float64)
        self.dual_coef = np.asarray(dual_coef, dtype=np.float64)  # alpha_i * y_i
        self.bias = float(bias)
        self.params = params
        self.dual_objective = float(dual_objective_value)
        self.objective_trace = objective_trace or []

    def score_batch(self, X) -> np.ndarray:
        """f(x) of each row of X."""
        f = np.empty(len(X))
        for s in range(0, len(X), _CHUNK_ROWS):
            f[s:s + _CHUNK_ROWS] = self.dual_coef @ rbf_gram(
                self.support_vectors, X[s:s + _CHUNK_ROWS], self.params.sigma)
        return f + self.bias

    def to_dict(self):
        return {
            "params": self.params.to_dict(),
            "support_vectors": [[float(v) for v in row] for row in self.support_vectors],
            "dual_coef": [float(v) for v in self.dual_coef],
            "bias": self.bias,
            "dual_objective": self.dual_objective,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, d, schema):
        if not _json_field(d["converged"], bool, "converged"):
            raise ValueError("converged is false: no fit saves an unconverged SVM")
        dual_coef = as_shaped(d["dual_coef"], (len(d["dual_coef"]),), "dual_coef")
        return cls(
            support_vectors=as_shaped(d["support_vectors"], (len(dual_coef), len(schema)),
                                      "support_vectors"),
            dual_coef=dual_coef,
            bias=as_shaped(d["bias"], (), "bias"),
            params=SVMParams.from_dict(d["params"]),
            dual_objective_value=_json_field(d["dual_objective"], float, "dual_objective"),
        )


def svm_fit(ds: Dataset, params: SVMParams = SVMParams(), solved=None) -> SVMModel:
    """Fit on ds; solved, when given, is the SMOResult of ds at params from
    lockstep.solve_folds, and otherwise smo solves it here. A solve that
    reaches smo's step cap raises NotConverged."""
    neg, pos = ds.class_counts()
    if neg == 0 or pos == 0:
        raise SingleClassData("both classes required to fit the SVM")
    y = np.where(ds.y == 1, 1.0, -1.0)
    if solved is None:
        solved = smo(rbf_gram(ds.X, ds.X, params.sigma), y, params.C)
    if not solved.converged:
        raise NotConverged(C=params.C, sigma=params.sigma, steps=len(solved.objective_trace))
    sv = solved.alpha > _ALPHA_EPS
    return SVMModel(
        support_vectors=ds.X[sv].copy(),
        dual_coef=(solved.alpha * y)[sv],
        bias=solved.bias,
        params=params,
        dual_objective_value=solved.dual_objective,
        objective_trace=solved.objective_trace,
    )
