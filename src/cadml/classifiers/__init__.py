"""Unified train/predict surface over the three classifiers.

FittedModel bundles the trained classifier with the input-scaling stats and
feature names it was trained with, so a saved model can be applied to raw
records later. Each classifier only scores rows (score_batch, one float per
row); FittedModel checks the row width, scales, and labels a row 1 where its
score is above 0, so a score of exactly 0 is class 0. Serialization is
versioned JSON and round-trips exactly.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, fields
from typing import NamedTuple

import numpy as np

from ..dataset import Dataset, FeatureSchema, Standardization, standardize
from ..errors import CadmlError, DataError, LengthMismatch
from .knn import KNNModel, knn_fit, vote
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
    """The record d, which holds "algorithm" and the record's fields only."""
    params = ALGORITHMS[d["algorithm"]].params
    if extra := set(d) - {"algorithm", *(f.name for f in fields(params))}:
        raise ValueError(f"{params.algorithm} record has no field {min(extra)!r}")
    return params.from_dict(d)


def _overflow_error(params: HyperParams | None, exc: FloatingPointError) -> DataError:
    if params is None:
        return DataError(f"a feature value is too large ({exc})")
    return DataError(f"a feature value or hyperparameter is too large: the "
                     f"{params.algorithm} model with {params.to_dict()} overflowed ({exc})")


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
        raise _overflow_error(params, exc) from None


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
            raise LengthMismatch(expected=len(self.schema), got=X.shape)
        if self.scaling is None:
            return X
        with _overflow_is_data_error():
            return self.scaling.apply(X)

    def predict(self, x) -> int:
        return int(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X) -> np.ndarray:
        X = self._transform(X)
        with _overflow_is_data_error(self.model.params):
            return (self.model.score_batch(X) > 0).astype(np.int64)

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
            "model": {"algorithm": self.algorithm, "version": 1, **self.model.to_dict()},
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
                          allowed_values=None if (v := f["allowed_values"]) is None
                          else tuple(as_shaped(v, (len(v),), "allowed_values").tolist()))
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
    are fitted on."""

    def __init__(self, ds: Dataset, scaling: bool = False):
        self.schema = ds.schema
        with _overflow_is_data_error():
            self.rows, self.stats = standardize(ds) if scaling else (ds, None)

    def fit(self, params: HyperParams, solved=None) -> FittedModel:
        """solved, for an SVM, is the SMOResult of its problem already solved
        on these rows (lockstep.solve_folds); without it the fit solves its own."""
        # looked up per call, not stored in ALGORITHMS, so that instrumentation
        # that replaces these module attributes (perfbench/spans.py) sees the fits
        fit = {"nb": nb_fit, "knn": knn_fit, "svm": svm_fit}[params.algorithm]
        with _overflow_is_data_error(params):
            extra = {} if solved is None else {"solved": solved}
            return FittedModel(model=fit(self.rows, params, **extra), schema=self.schema,
                               scaling=self.stats)

    def predict_batches(self, fits, X) -> list:
        """predict_batch(X) of each of fits, models fitted on these rows, or
        the CadmlError it raises. The k-NN models rank X once, at their
        largest k, and each votes over its first k neighbours, which gives
        its own predict_batch's labels and errors bit for bit."""
        knn = [f for f in fits if isinstance(f.model, KNNModel)]
        shared = {}
        if knn:
            top = max(knn, key=lambda f: f.model.params.k)
            try:
                with np.errstate(over="raise"):
                    ranked = top.model.neighbour_labels(top._transform(X))
                shared = {f: (vote(ranked[:, :f.model.params.k]) > 0).astype(np.int64)
                          for f in knn}
            except FloatingPointError as exc:
                shared = {f: _overflow_error(f.model.params, exc) for f in knn}
            except CadmlError as exc:
                shared = dict.fromkeys(knn, exc)
        out = []
        for f in fits:
            try:
                out.append(shared[f] if f in shared else f.predict_batch(X))
            except CadmlError as exc:
                out.append(exc)
        return out


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
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise DataError(f"{path} is not a cadml model: {exc!r}") from None
