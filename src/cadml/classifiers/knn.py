"""k-nearest neighbors with Euclidean distance and majority vote.

Equal distances break by exemplar index; k is odd, so the two classes never
tie on votes.
"""
from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from ..errors import LengthMismatch, TooFewRows
from .params import KNNParams, as_shaped

_CHUNK_ROWS = 8  # predict_batch holds a _CHUNK_ROWS x exemplars x features block


class KNNModel:
    def __init__(self, X, y, k: int):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.params = KNNParams(k=k)
        if k > len(self.y):
            raise TooFewRows(f"k={k} exceeds {len(self.y)} exemplars")

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise LengthMismatch(self.n_features, X.shape)
        k = self.params.k
        out = np.empty(len(X), dtype=np.int64)
        for s in range(0, len(X), _CHUNK_ROWS):
            d = np.sqrt(np.sum((X[s:s + _CHUNK_ROWS, None, :] - self.X) ** 2, axis=2))
            # stable sort: distance ties resolve by exemplar index
            nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
            out[s:s + _CHUNK_ROWS] = 2 * np.sum(self.y[nearest], axis=1) > k
        return out

    def to_dict(self):
        return {
            "algorithm": "knn",
            "version": 1,
            "k": self.params.k,
            "exemplars": [[float(v) for v in row] for row in self.X],
            "labels": [int(v) for v in self.y],
        }

    @classmethod
    def from_dict(cls, d, schema):
        y = np.asarray(d["labels"])
        if y.ndim != 1 or not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be a list of 0s and 1s")
        k = KNNParams.from_dict(d).k
        if k > len(y):  # the constructor's TooFewRows is a training error
            raise ValueError(f"k={k} exceeds {len(y)} exemplars")
        return cls(X=as_shaped(d["exemplars"], (len(y), len(schema)), "exemplars"), y=y, k=k)


def knn_fit(ds: Dataset, params: KNNParams = KNNParams()) -> KNNModel:
    return KNNModel(X=ds.X.copy(), y=ds.y.copy(), k=params.k)
