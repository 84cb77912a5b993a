import numpy as np
import pytest

from cadml.classifiers import FittedModel
from cadml.dataset import (
    BINARY,
    CATEGORICAL,
    CONTINUOUS,
    Dataset,
    FeatureSchema,
    SELECTED_FEATURES,
    load_dataset,
    select_columns,
)

DATA_PATH = "data/processed.cleveland.data"


def continuous_schema(d):
    return tuple(FeatureSchema(f"x{j}", CONTINUOUS) for j in range(d))


def make_dataset(X, y, schema=None):
    """Wrap plain arrays in a Dataset; all-continuous schema by default."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=np.int64)
    if schema is None:
        schema = continuous_schema(X.shape[1])
    return Dataset(schema=schema, X=X, y=y)


def labels(model, X) -> np.ndarray:
    """The labels a FittedModel of model, without scaling, gives the rows of X:
    class 1 where the model's score is above 0."""
    X = np.asarray(X, dtype=np.float64)
    return FittedModel(model, continuous_schema(X.shape[1]), None).predict_batch(X)


@pytest.fixture(scope="session")
def data_path():
    return DATA_PATH


@pytest.fixture(scope="session")
def cleveland(data_path):
    """Full 13-feature cleaned dataset (297 rows)."""
    return load_dataset(data_path)


@pytest.fixture(scope="session")
def cleveland7(cleveland):
    """The 7-feature view used by the modelling commands."""
    return select_columns(cleveland, SELECTED_FEATURES)


@pytest.fixture
def tiny_separable():
    """Two well-separated continuous clusters, 12 rows per class."""
    rng = np.random.default_rng(0)
    X0 = rng.normal(loc=-2.0, scale=0.5, size=(12, 2))
    X1 = rng.normal(loc=2.0, scale=0.5, size=(12, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * 12 + [1] * 12)
    return make_dataset(X, y)
