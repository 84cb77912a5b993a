"""k-nearest neighbors with Euclidean distance and majority vote.

Tie rules are fixed for determinism: equal distances break by exemplar index,
equal vote counts break by smaller summed distance, then class 0.
"""
from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from ..errors import LengthMismatch, TooFewRows
from .params import KNNParams, as_shaped


class KNNModel:
    def __init__(self, X, y, k: int):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        if k > len(self.y):
            raise TooFewRows(f"k={k} exceeds {len(self.y)} exemplars")
        self.k = k

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def params(self) -> KNNParams:
        # k stays the constructor argument: an even k, which KNNParams
        # rejects, is the only way to reach the vote-tie rule
        return KNNParams(k=self.k)

    def predict(self, x) -> int:
        return int(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise LengthMismatch(self.n_features, X.shape)
        out = np.empty(len(X), dtype=np.int64)
        for i, x in enumerate(X):
            d = np.sqrt(np.sum((self.X - x) ** 2, axis=1))
            # stable sort: distance ties resolve by exemplar index
            nearest = np.argsort(d, kind="stable")[: self.k]
            labels = self.y[nearest]
            votes = np.bincount(labels, minlength=2)
            if votes[0] != votes[1]:
                out[i] = np.argmax(votes)
            else:
                sums = np.array([np.sum(d[nearest[labels == c]]) for c in (0, 1)])
                out[i] = 0 if sums[0] <= sums[1] else 1
        return out

    def to_dict(self):
        return {
            "algorithm": "knn",
            "version": 1,
            "k": self.k,
            "exemplars": [[float(v) for v in row] for row in self.X],
            "labels": [int(v) for v in self.y],
        }

    @classmethod
    def from_dict(cls, d, schema):
        y = np.asarray(d["labels"])
        if y.ndim != 1 or not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be a list of 0s and 1s")
        return cls(X=as_shaped(d["exemplars"], (len(y), len(schema)), "exemplars"), y=y,
                   k=KNNParams.from_dict(d).k)


def knn_fit(ds: Dataset, params: KNNParams = KNNParams()) -> KNNModel:
    return KNNModel(X=ds.X.copy(), y=ds.y.copy(), k=params.k)
