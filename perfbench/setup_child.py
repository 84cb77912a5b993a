"""One workload's set-up in a fresh process; run.py times it from outside
as setup_s: interpreter start, import, data load, and on the serving
workloads the fit and save of the three models. It imports nothing of the
benchmark, so the time is the program's own.

    python3 perfbench/setup_child.py <workload> <workdir>
"""
import sys
from pathlib import Path

from cadml import classifiers, dataset, tuning

DATA = "data/processed.cleveland.data"
SERVING = ("serve", "serve_batch")
# the CLI's defaults for cv and predict
SERVE_PARAMS = {
    "nb": classifiers.NBParams(),
    "knn": classifiers.KNNParams(k=5),
    "svm": classifiers.SVMParams(C=0.25, sigma=0.1268408),
}


def model_path(workdir, algo) -> Path:
    return Path(workdir) / f"{algo}.json"


def set_up(workload: str, root, workdir):
    """Load the table; on the serving workloads also fit and save the models
    on the 7-feature view. Calls go through module attributes so that the
    wrappers of spans.instrument see them."""
    ds = dataset.load_dataset(str(Path(root) / DATA))
    if workload in SERVING:
        view = dataset.select_columns(ds, dataset.SELECTED_FEATURES)
        for algo, params in SERVE_PARAMS.items():
            fitted = classifiers.fit_model(view, params, scaling=tuning.default_scaling(algo))
            classifiers.save_model(fitted, model_path(workdir, algo))
    return ds


if __name__ == "__main__":
    set_up(sys.argv[1], Path(__file__).resolve().parent.parent, sys.argv[2])
