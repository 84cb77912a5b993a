"""Unified train/predict surface over the three classifiers.

FittedModel bundles the trained classifier with the input-scaling stats and
feature names it was trained with, so a saved model can be applied to raw
records later. Serialization is versioned JSON and round-trips exactly.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from ..dataset import Dataset, FeatureSchema, Standardization, standardize
from ..errors import DataError, LengthMismatch
from .knn import KNNModel, knn_fit
from .naive_bayes import NBModel, nb_fit
from .params import HyperParams, KNNParams, NBParams, SVMParams, _json_field, as_shaped
from .svm import SVMModel, dual_objective, kkt_residuals, rbf_gram, svm_fit

__all__ = [
    "NBParams", "KNNParams", "SVMParams", "HyperParams", "params_from_dict",
    "NBModel", "KNNModel", "SVMModel", "FittedModel", "ALGORITHMS",
    "nb_fit", "knn_fit", "svm_fit", "fit_model", "TrainingSet",
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


@contextmanager
def _overflow_is_data_error(params: HyperParams | None = None):
    """A feature value so large that numpy overflows on it (1e200 squared) is
    a data error, not a warning and an inf. Inside a model's fit or scoring,
    given its params, the hyperparameters can be the cause (a bandwidth of
    1e-308), so the error names them."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        if params is None:
            raise DataError(f"a feature value is too large ({exc})") from None
        raise DataError(f"a feature value or hyperparameter is too large: the "
                        f"{params.algorithm} model with {params.to_dict()} overflowed "
                        f"({exc})") from None


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
        if self.scaling is None:
            return X
        with _overflow_is_data_error():
            return self.scaling.apply(X)

    def predict(self, x) -> int:
        return int(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X) -> np.ndarray:
        X = self._transform(X)
        with _overflow_is_data_error(self.model.params):
            return self.model.predict_batch(X)

    def posterior(self, x):
        """Class-probability vector of one row; only naive Bayes supplies one."""
        post = self.posterior_batch(np.asarray(x, dtype=np.float64)[None, :])
        return None if post is None else post[0]

    def posterior_batch(self, X):
        """Class-probability rows of X, shape (n, 2); None unless naive Bayes."""
        if not isinstance(self.model, NBModel):
            return None
        X = self._transform(X)
        with _overflow_is_data_error(self.model.params):
            return self.model.posterior_batch(X)

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
        if _json_field(md["version"], int, "version") != 1:
            raise ValueError(f"model version {md['version']!r}, expected 1")
        model = ALGORITHMS[md["algorithm"]].model.from_dict(md, schema)
        scaling = None
        if (sd := d.get("scaling")) is not None:
            scaling = Standardization(mean=as_shaped(sd["mean"], (len(schema),), "scaling.mean"),
                                      std=as_shaped(sd["std"], (len(schema),), "scaling.std",
                                                    positive=True))
        return cls(model=model, schema=schema, scaling=scaling)


class TrainingSet:
    """Training rows, z-scored once if scaling, that any number of candidates
    are fitted on. SVM candidates that share a sigma share one Gram matrix,
    which the set holds for as long as it lives."""

    def __init__(self, ds: Dataset, scaling: bool = False):
        self.schema = ds.schema
        with _overflow_is_data_error():
            self.rows, self.stats = standardize(ds) if scaling else (ds, None)
        self._grams = {}

    def fit(self, params: HyperParams) -> FittedModel:
        # looked up per call, not stored in ALGORITHMS, so that instrumentation
        # that replaces these module attributes (perfbench/spans.py) sees the fits
        fit = {"nb": nb_fit, "knn": knn_fit, "svm": svm_fit}[params.algorithm]
        with _overflow_is_data_error(params):
            shared = {"gram": self._gram(params.sigma)} if params.algorithm == "svm" else {}
            return FittedModel(model=fit(self.rows, params, **shared), schema=self.schema,
                               scaling=self.stats)

    def _gram(self, sigma: float) -> np.ndarray:
        if sigma not in self._grams:
            self._grams[sigma] = rbf_gram(self.rows.X, self.rows.X, sigma)
        return self._grams[sigma]


def fit_model(ds: Dataset, params: HyperParams, scaling: bool = False) -> FittedModel:
    """Fit the classifier selected by params, optionally z-scoring continuous
    features first (stats computed from ds itself)."""
    return TrainingSet(ds, scaling).fit(params)


def save_model(fitted: FittedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fitted.to_dict(), fh, sort_keys=True, indent=2)


def load_model(path) -> FittedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
            if _json_field(d["format_version"], int, "format_version") != 1:
                raise ValueError(f"format_version {d['format_version']!r}, expected 1")
            return FittedModel.from_dict(d)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path} is not a cadml model: {exc!r}") from None
