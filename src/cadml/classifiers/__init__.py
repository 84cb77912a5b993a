"""Unified train/predict surface over the three classifiers.

FittedModel bundles the trained classifier with the input-scaling stats and
feature names it was trained with, so a saved model can be applied to raw
records later. Serialization is versioned JSON and round-trips exactly.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from ..dataset import Dataset, FeatureSchema, Standardization, standardize
from ..errors import DataError, LengthMismatch
from .knn import KNNModel, knn_fit
from .naive_bayes import NBModel, nb_fit
from .params import HyperParams, KNNParams, NBParams, SVMParams, as_shaped
from .svm import SVMModel, dual_objective, kkt_residuals, rbf_gram, svm_fit

__all__ = [
    "NBParams", "KNNParams", "SVMParams", "HyperParams", "params_from_dict",
    "NBModel", "KNNModel", "SVMModel", "FittedModel", "ALGORITHMS",
    "nb_fit", "knn_fit", "svm_fit", "fit_model",
    "rbf_gram", "dual_objective", "kkt_residuals",
    "load_model", "save_model",
]


class Algorithm(NamedTuple):
    params: type
    model: type


# Every classifier, keyed by the name that params, grids and model files carry.
ALGORITHMS = {
    "nb": Algorithm(NBParams, NBModel),
    "knn": Algorithm(KNNParams, KNNModel),
    "svm": Algorithm(SVMParams, SVMModel),
}


def params_from_dict(d) -> HyperParams:
    return ALGORITHMS[d["algorithm"]].params.from_dict(d)


class FittedModel:
    def __init__(self, model, schema: tuple[FeatureSchema, ...],
                 scaling: Standardization | None):
        self.model = model
        self.schema = schema
        self.scaling = scaling

    @property
    def algorithm(self) -> str:
        return self.model.params.algorithm

    def _transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.schema):
            raise LengthMismatch(len(self.schema), X.shape)
        return self.scaling.apply(X) if self.scaling is not None else X

    def predict(self, x) -> int:
        return int(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X) -> np.ndarray:
        return self.model.predict_batch(self._transform(X))

    def posterior(self, x):
        """Class-probability vector of one row; only naive Bayes supplies one."""
        post = self.posterior_batch(np.asarray(x, dtype=np.float64)[None, :])
        return None if post is None else post[0]

    def posterior_batch(self, X):
        """Class-probability rows of X, shape (n, 2); None unless naive Bayes."""
        if not isinstance(self.model, NBModel):
            return None
        return self.model.posterior_batch(self._transform(X))

    def to_dict(self):
        d = {
            "format_version": 1,
            "schema": [asdict(f) for f in self.schema],
            "model": self.model.to_dict(),
            "scaling": None,
        }
        if self.scaling is not None:
            d["scaling"] = {"mean": [float(v) for v in self.scaling.mean],
                            "std": [float(v) for v in self.scaling.std]}
        return d

    @classmethod
    def from_dict(cls, d):
        schema = tuple(
            FeatureSchema(name=f["name"], kind=f["kind"],
                          allowed_values=tuple(f["allowed_values"]) if f["allowed_values"] else None)
            for f in d["schema"]
        )
        md = d["model"]
        model = ALGORITHMS[md["algorithm"]].model.from_dict(md, schema)
        scaling = None
        if (sd := d.get("scaling")) is not None:
            scaling = Standardization(mean=as_shaped(sd["mean"], (len(schema),), "scaling.mean"),
                                      std=as_shaped(sd["std"], (len(schema),), "scaling.std",
                                                    positive=True))
        return cls(model=model, schema=schema, scaling=scaling)


def fit_model(ds: Dataset, params: HyperParams, scaling: bool = False) -> FittedModel:
    """Fit the classifier selected by params, optionally z-scoring continuous
    features first (stats computed from ds itself)."""
    train, stats = standardize(ds) if scaling else (ds, None)
    # looked up per call, not stored in ALGORITHMS, so that instrumentation
    # that replaces these module attributes (perfbench/spans.py) sees the fits
    fit = {"nb": nb_fit, "knn": knn_fit, "svm": svm_fit}[params.algorithm]
    return FittedModel(model=fit(train, params), schema=ds.schema, scaling=stats)


def save_model(fitted: FittedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fitted.to_dict(), fh, sort_keys=True, indent=2)


def load_model(path) -> FittedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
            if d["format_version"] != 1:
                raise ValueError(f"format_version {d['format_version']!r}, expected 1")
            return FittedModel.from_dict(d)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path} is not a cadml model: {exc!r}") from None
