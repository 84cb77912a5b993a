"""Soft-margin RBF SVM trained by sequential minimal optimization.

Kernel convention is exp(-sigma * ||x - y||^2), so the sigma reported by the
radial-SVM toolchains can be used verbatim. Labels are mapped {0 -> -1,
1 -> +1} internally; the decision function is
f(x) = sum_i alpha_i y_i K(x_i, x) + b with f(x) > 0 meaning class 1.

The solver is Platt-style SMO: pairwise coordinate ascent over the dual with
KKT-violation working-set selection and the max |E1 - E2| second-choice
heuristic, an error cache, and a full precomputed Gram matrix. Candidate
scans start from a rotating (but deterministic) offset.
"""
from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from ..errors import LengthMismatch, SingleClassData
from .params import SVMParams, as_shaped

_ALPHA_EPS = 1e-12


def rbf_gram(X, Y, sigma: float) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    # one (len(X), len(Y)) buffer, updated in place; the operation order is
    # |x|^2 + |y|^2 - 2 x.y, clamp at 0, times -sigma, exp
    out = np.sum(X**2, axis=1)[:, None] + np.sum(Y**2, axis=1)[None, :]
    out -= 2.0 * X @ Y.T
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


def _recenter_bias(K, y, alpha, C, fallback) -> float:
    """Place the bias at the center of the interval allowed by the KKT
    conditions. When every alpha sits on a bound the bias is only
    interval-determined, and the value left over from the final working-set
    step can sit outside that interval."""
    g = K @ (alpha * y)
    r = y - g
    at_lower = alpha <= _ALPHA_EPS
    at_upper = alpha >= C - _ALPHA_EPS
    lower_set = (~at_upper & (y > 0)) | (~at_lower & (y < 0))
    upper_set = (~at_upper & (y < 0)) | (~at_lower & (y > 0))
    if not np.any(lower_set) or not np.any(upper_set):
        return float(fallback)
    return float(0.5 * (np.max(r[lower_set]) + np.min(r[upper_set])))


class _SMOSolver:
    def __init__(self, K, y, C, tol):
        self.K = K
        self.y = y.astype(np.float64)
        self.C = C
        self.tol = tol
        self.n = len(y)
        self.alpha = np.zeros(self.n)
        self.b = 0.0
        self.E = -self.y.copy()  # f == 0 initially
        self._offset = 0

    def _take_step(self, i1, i2) -> bool:
        if i1 == i2:
            return False
        a1, a2 = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        E1, E2 = self.E[i1], self.E[i2]
        s = y1 * y2
        if s > 0:
            L, H = max(0.0, a1 + a2 - self.C), min(self.C, a1 + a2)
        else:
            L, H = max(0.0, a2 - a1), min(self.C, self.C + a2 - a1)
        if H - L < _ALPHA_EPS:
            return False
        k11, k22, k12 = self.K[i1, i1], self.K[i2, i2], self.K[i1, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 1e-12:
            a2_new = a2 + y2 * (E1 - E2) / eta
            a2_new = min(H, max(L, a2_new))
        else:
            # flat or concave-up direction: the maximum sits at a bound
            grad = y2 * (E1 - E2)
            if grad > 1e-12:
                a2_new = H
            elif grad < -1e-12:
                a2_new = L
            else:
                return False
        if abs(a2_new - a2) < _ALPHA_EPS * (a2_new + a2 + _ALPHA_EPS):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        if a1_new < 0.0:
            a1_new = 0.0
        elif a1_new > self.C:
            a1_new = self.C
        d1, d2 = a1_new - a1, a2_new - a2
        b1 = self.b - E1 - y1 * d1 * k11 - y2 * d2 * k12
        b2 = self.b - E2 - y1 * d1 * k12 - y2 * d2 * k22
        if 0.0 < a1_new < self.C:
            b_new = b1
        elif 0.0 < a2_new < self.C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        self.E += y1 * d1 * self.K[i1] + y2 * d2 * self.K[i2] + (b_new - self.b)
        self.alpha[i1], self.alpha[i2] = a1_new, a2_new
        self.b = b_new
        return True

    def _examine(self, i2) -> bool:
        a2, y2, E2 = self.alpha[i2], self.y[i2], self.E[i2]
        r2 = E2 * y2
        if not ((r2 < -self.tol and a2 < self.C) or (r2 > self.tol and a2 > 0.0)):
            return False
        non_bound = np.flatnonzero((self.alpha > _ALPHA_EPS) & (self.alpha < self.C - _ALPHA_EPS))
        if len(non_bound) > 1:
            i1 = int(non_bound[np.argmax(np.abs(self.E[non_bound] - E2))])
            if self._take_step(i1, i2):
                return True
        self._offset += 1
        for pool in (non_bound, np.arange(self.n)):
            if len(pool) == 0:
                continue
            start = self._offset % len(pool)
            for j in range(len(pool)):
                if self._take_step(int(pool[(start + j) % len(pool)]), i2):
                    return True
        return False

    def solve(self, max_passes: int):
        trace = []
        examine_all = True
        passes = 0
        while passes < max_passes:
            num_changed = 0
            targets = (
                range(self.n)
                if examine_all
                else np.flatnonzero((self.alpha > _ALPHA_EPS) & (self.alpha < self.C - _ALPHA_EPS))
            )
            for i in targets:
                if self._examine(int(i)):
                    num_changed += 1
            trace.append(dual_objective(self.K, self.y, self.alpha))
            passes += 1
            if examine_all:
                if num_changed == 0:
                    return True, trace
                examine_all = False
            elif num_changed == 0:
                examine_all = True
        return False, trace


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
        return self.dual_coef @ rbf_gram(self.support_vectors, X, self.params.sigma) + self.bias

    def predict(self, x) -> int:
        return int(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

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
        dual_coef = np.asarray(d["dual_coef"], dtype=np.float64)
        if dual_coef.ndim != 1:
            raise ValueError(f"dual_coef has shape {dual_coef.shape}")
        return cls(
            support_vectors=as_shaped(d["support_vectors"], (len(dual_coef), len(schema)),
                                      "support_vectors"),
            dual_coef=dual_coef,
            bias=d["bias"],
            params=SVMParams.from_dict(d["params"]),
            dual_objective_value=d["dual_objective"],
            converged=d["converged"],
        )


def svm_fit(ds: Dataset, params: SVMParams = SVMParams(), tol: float = 1e-3,
            max_passes: int = 10000) -> SVMModel:
    neg, pos = ds.class_counts()
    if neg == 0 or pos == 0:
        raise SingleClassData("both classes required to fit the SVM")
    y = np.where(ds.y == 1, 1.0, -1.0)
    K = rbf_gram(ds.X, ds.X, params.sigma)
    solver = _SMOSolver(K, y, params.C, tol)
    converged, trace = solver.solve(max_passes)
    solver.b = _recenter_bias(K, y, solver.alpha, params.C, solver.b)
    sv = solver.alpha > _ALPHA_EPS
    model = SVMModel(
        support_vectors=ds.X[sv].copy(),
        dual_coef=(solver.alpha * y)[sv],
        bias=solver.b,
        params=params,
        dual_objective_value=dual_objective(K, y, solver.alpha),
        converged=converged,
        objective_trace=trace,
    )
    # diagnostics for solver verification; not part of the serialized model
    model.alpha = solver.alpha
    model.train_y = y
    model.train_gram = K
    return model
