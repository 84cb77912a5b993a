"""k-nearest neighbors with Euclidean distance and majority vote.

A row's score is (2 * votes - k) / k, where votes counts class 1 among its k
nearest exemplars. Equal distances break by exemplar index; k is odd, so the
score is never 0. neighbour_labels is the one ranking: each row's k nearest
labels, nearest first, which score_batch votes over. Models of several k
fitted on the same rows rank alike, so a grid search ranks each fold's
held-out rows once, at its largest k, and each candidate votes over its
first k (classifiers.TrainingSet.predict_batches).
"""
from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from ..errors import TooFewRows
from .params import KNNParams, _json_field, as_shaped

# neighbour_labels holds two _CHUNK_ROWS x exemplars buffers beside its
# rows x k labels
_CHUNK_ROWS = 64
_FARTHEST = np.finfo(np.float64).max


class KNNModel:
    def __init__(self, X, y, k: int):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.params = KNNParams(k=k)
        if k > len(self.y):
            raise TooFewRows(f"k={k} exceeds {len(self.y)} exemplars")

    def neighbour_labels(self, X) -> np.ndarray:
        """The labels of each row's k nearest exemplars, nearest first."""
        k = self.params.k
        out = np.empty((len(X), k), dtype=np.int64)
        columns = np.ascontiguousarray(self.X.T)
        dist, sq = np.empty((2, min(len(X), _CHUNK_ROWS), len(self.X)))
        for s in range(0, len(X), _CHUNK_ROWS):
            block, labels = X[s:s + _CHUNK_ROWS], out[s:s + _CHUNK_ROWS]
            d, t = dist[:len(block)], sq[:len(block)]
            # squared differences summed one feature at a time, in schema order
            d.fill(0.0)
            for j, column in enumerate(columns):
                np.subtract(block[:, j, None], column, out=t)
                d += np.square(t, out=t)
            np.sqrt(d, out=d)
            # k passes of argmin, each taking the first of equal distances, so
            # ties resolve by exemplar index; an overflowed distance is made
            # finite so that it still ranks ahead of the inf of a taken one
            np.minimum(d, _FARTHEST, out=d)
            rows = np.arange(len(d))
            for i in range(k):
                nearest = d.argmin(axis=1)
                labels[:, i] = self.y[nearest]
                d[rows, nearest] = np.inf
        return out

    def score_batch(self, X) -> np.ndarray:
        return vote(self.neighbour_labels(X))

    def to_dict(self):
        return {
            "k": self.params.k,
            "exemplars": [[float(v) for v in row] for row in self.X],
            "labels": [int(v) for v in self.y],
        }

    @classmethod
    def from_dict(cls, d, schema):
        y = [_json_field(v, int, "labels") for v in d["labels"]]
        if not set(y) <= {0, 1}:
            raise ValueError("labels must be a list of 0s and 1s")
        k = KNNParams.from_dict(d).k
        if k > len(y):  # the constructor's TooFewRows is a training error
            raise ValueError(f"k={k} exceeds {len(y)} exemplars")
        return cls(X=as_shaped(d["exemplars"], (len(y), len(schema)), "exemplars"), y=y, k=k)


def vote(labels) -> np.ndarray:
    """Each row's score from the labels of its k nearest, an (n, k) array."""
    k = labels.shape[1]
    return (2 * labels.sum(axis=1) - k) / k


def knn_fit(ds: Dataset, params: KNNParams = KNNParams()) -> KNNModel:
    return KNNModel(X=ds.X.copy(), y=ds.y.copy(), k=params.k)
