"""Command-line front end for the pipeline.

Subcommands: inspect, rank, subset, cv, tune, compare, predict, each a report
builder and a click command that emits its report. Every report embeds the
resolved run configuration and tool version, and all output is deterministic
for a fixed configuration.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training error.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable

import click
import numpy as np

from . import __version__
from .classifiers import ALGORITHMS, NBParams, load_model, params_from_dict, save_model
from .dataset import (
    CLEVELAND_SCHEMA,
    SELECTED_FEATURES,
    RawTable,
    drop_incomplete,
    load_dataset,
    parse_csv,
    parse_features,
    select_columns,
)
from .errors import DataError, TrainingError
from .evaluation import cross_validate
from .feature_selection import EVALUATORS, best_first_subset, rank_features
from .tuning import METRIC_NAMES, Grid, compare_models, default_grids, default_scaling, grid_search

DEFAULT_SEED = 2018
SUBSET_SEED = 1  # the wrapper-selection step uses its own seed
DEFAULT_FOLDS = 10


@dataclass(frozen=True)
class Report:
    """One command's result: its config entries, and the JSON body, the CSV
    rows (header first) and the text lines, each built only when asked for."""

    config: dict
    body: Callable[[], dict]
    rows: Callable[[], list]
    lines: Callable[[], list[str]]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps({"config": {"tool_version": __version__, **self.config},
                               "report": self.body()}, sort_keys=True, indent=2) + "\n"
        if fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(self.rows())
            return buf.getvalue()
        return "\n".join(self.lines()) + "\n"


def _table(template: str, heading, rows) -> list[str]:
    """The heading, then each row of string cells, laid out by a template like "{:<14}{:>10}"."""
    return [template.format(*cells) for cells in [heading, *rows]]


_METRIC_TEMPLATE = "{:>10}{:>10}{:>13}{:>11}"  # laid out for _metric_cells


def _metric_cells(rep) -> list[str]:
    """accuracy, recall, specificity and precision; "n/a" where undefined."""
    values = [getattr(rep, metric) for metric in METRIC_NAMES]
    return ["n/a" if value is None else f"{value:.4f}" for value in values]


def inspect_report(raw: RawTable, config: dict) -> Report:
    """Rows parsed, dropped and kept, the class balance and each feature's range."""
    ds = drop_incomplete(raw)
    neg, pos = ds.class_counts()
    features = [{"name": feat.name, "kind": feat.kind,
                 "min": float(np.min(ds.X[:, j])), "max": float(np.max(ds.X[:, j]))}
                for j, feat in enumerate(ds.schema)]
    heading = ["feature", "kind", "min", "max"]
    return Report(
        config={"command": "inspect", **config},
        body=lambda: {"parsed": raw.n_rows, "dropped": raw.n_incomplete, "kept": ds.n_rows,
                      "class_balance": {"negative": neg, "positive": pos},
                      "features": features},
        rows=lambda: [heading, *([f["name"], f["kind"], f["min"], f["max"]] for f in features)],
        lines=lambda: [f"{raw.n_rows} parsed, {raw.n_incomplete} dropped, {ds.n_rows} kept",
                       f"class balance: {neg} negative / {pos} positive", "",
                       *_table("{:<14}{:<13}{:>9}{:>9}", heading,
                               [[f["name"], f["kind"], f"{f['min']:.1f}", f"{f['max']:.1f}"]
                                for f in features])])


def rank_report(ds, config: dict, evaluator: str) -> Report:
    """Features by information gain or absolute correlation, best first."""
    ranked = rank_features(ds, evaluator)
    return Report(
        config={"command": "rank", **config, "evaluator": evaluator},
        body=ranked.to_dict,
        rows=lambda: [["feature", "score"], *([e.feature, e.score] for e in ranked.entries)],
        lines=lambda: _table("{:<14}{:>10}", ["feature", "score"],
                             [[e.feature, f"{e.score:.6f}"] for e in ranked.entries]))


def subset_report(ds, config: dict, folds: int, seed: int, stale_limit: int = 5,
                  min_improvement: float = 0.005) -> Report:
    """Wrapper subset selection: best-first search around naive Bayes CV accuracy."""
    result = best_first_subset(ds, NBParams(), folds=folds, seed=seed,
                               stale_limit=stale_limit, min_improvement=min_improvement)
    return Report(
        config={"command": "subset", **config, "folds": folds, "seed": seed,
                "stale_limit": stale_limit, "min_improvement": min_improvement},
        body=result.to_dict,
        rows=lambda: [["selected", "objective", "expansions"],
                      [" ".join(result.selected), result.objective, result.expansions]],
        lines=lambda: [f"selected: {', '.join(result.selected)}",
                       f"objective (mean CV accuracy): {result.objective:.4f}",
                       f"expansions: {result.expansions}"])


def cv_report(ds, config: dict, algorithm: str, folds: int, seed: int, scaling: bool) -> Report:
    """Stratified k-fold cross-validation of one algorithm at its default params."""
    result = cross_validate(ds, ALGORITHMS[algorithm].params(), folds, seed, scaling=scaling)
    named = [*((str(i), rep) for i, rep in enumerate(result.per_fold)), ("pooled", result.pooled)]
    return Report(
        config={"command": "cv", **config, "algorithm": algorithm, "folds": folds,
                "seed": seed, "scaling": scaling},
        body=result.to_dict,
        rows=lambda: [["fold", "tp", "fp", "tn", "fn", *METRIC_NAMES],
                      *([name, *rep.matrix.to_dict().values(), *_metric_cells(rep)]
                        for name, rep in named)],
        lines=lambda: [*_table("{:<6}" + _METRIC_TEMPLATE, ["fold", *METRIC_NAMES],
                               [[name, *_metric_cells(rep)] for name, rep in named]),
                       f"mean accuracy: {result.mean_accuracy:.4f}"])


def tune_report(ds, config: dict, grid: Grid, folds: int, seed: int, scaling: bool,
                model_out=None) -> Report:
    """Grid search by CV accuracy; the winner is refit on all rows and saved to model_out."""
    result = grid_search(ds, grid, folds, seed, scaling=scaling)
    if model_out:
        save_model(result.final_model, model_out)
    candidates = [(json.dumps(params.to_dict(), sort_keys=True), acc, params == result.best)
                  for params, acc in result.per_candidate]
    return Report(
        config={"command": "tune", **config, "algorithm": grid.algorithm, "folds": folds,
                "seed": seed, "scaling": scaling},
        body=result.to_dict,
        rows=lambda: [["candidate", "mean_accuracy", "best"],
                      *([params, acc, int(best)] for params, acc, best in candidates)],
        lines=lambda: _table("{:<55}{:>14}{}", ["candidate", "mean accuracy", ""],
                             [[params, f"{acc:.4f}", " *" if best else ""]
                              for params, acc, best in candidates]))


def compare_report(ds, config: dict, folds: int, seed: int, scaling: bool) -> Report:
    """Tune all three algorithms on identical folds and compare their winners."""
    report = compare_models(ds, folds, seed, scaling=scaling)
    heading = ["model", *METRIC_NAMES, "best_params"]
    cells = [[algo, *_metric_cells(tr.best_cv.pooled),
              json.dumps(tr.best.to_dict(), sort_keys=True)]
             for algo, tr in report.per_algorithm.items()]
    best = ", ".join(f"{m}={a}" for m, a in sorted(report.best_per_metric.items()))
    return Report(
        config={"command": "compare", **config, "folds": folds, "seed": seed,
                "scaling": scaling},
        body=report.to_dict,
        rows=lambda: [heading, *cells],
        lines=lambda: [*_table("{:<6}" + _METRIC_TEMPLATE + "  {}", heading, cells),
                       f"best per metric: {best}"])


def predict_report(fitted, X: np.ndarray, config: dict) -> Report:
    """Labels of the rows of X and, for naive Bayes, their posteriors."""
    labels = fitted.predict_batch(X).tolist()

    def body():
        posteriors = fitted.posterior_batch(X)
        entries = [{"features": row.tolist(), "label": label} for row, label in zip(X, labels)]
        for entry, post in zip(entries, [] if posteriors is None else posteriors.tolist()):
            entry["posterior"] = post
        return {"predictions": entries}

    def lines():
        posteriors = fitted.posterior_batch(X)
        if posteriors is None:
            return [f"label={label}" for label in labels]
        return [f"label={label} posterior=[{', '.join(f'{p:.6f}' for p in post)}]"
                for label, post in zip(labels, posteriors.tolist())]

    return Report(config={"command": "predict", **config, "algorithm": fitted.algorithm},
                  body=body, rows=lambda: [["label"], *([label] for label in labels)],
                  lines=lines)


data_option = click.option("--data", "data_path", required=True,
                           type=click.Path(exists=True, dir_okay=False),
                           help="Cleveland-layout CSV.")
header_option = click.option("--header", is_flag=True, default=False,
                             help="First line names the columns.")
folds_option = click.option("--folds", default=DEFAULT_FOLDS, show_default=True, type=int)


def _emits_report(fn):
    """Give a command --format and --out, and emit the Report it returns."""
    @click.option("--format", "fmt", default="text", show_default=True,
                  type=click.Choice(["text", "json", "csv"]))
    @click.option("--out", default=None, type=click.Path(dir_okay=False),
                  help="Write the report to a file instead of stdout.")
    @functools.wraps(fn)
    def command(*args, fmt, out, **options):
        rendered = fn(*args, **options).render(fmt)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        else:
            click.echo(rendered, nl=False)
    return command


def _loads_table(default_keep=None):
    """Give a command --data, --header and --keep, and call it with the table cut to
    the --keep features ('all' for every one, default_keep when the option is absent)
    and the config entries naming it."""
    def decorate(fn):
        @data_option
        @header_option
        @click.option("--keep", default=None, help="Comma-separated feature names, or 'all'.")
        @functools.wraps(fn)
        def command(data_path, header, keep, **options):
            if keep is None:
                names = default_keep
            elif keep.strip().lower() == "all":
                names = None
            else:
                names = tuple(name.strip() for name in keep.split(",") if name.strip())
                if not names:
                    raise click.BadParameter(f"{keep!r} names no feature", param_hint="--keep")
            ds = load_dataset(data_path, header=header)
            if names is not None:
                ds = select_columns(ds, names)
            return fn(ds, {"data": str(data_path), "header": header,
                           "keep": list(names) if names else "all"}, **options)
        return command
    return decorate


@click.group()
@click.version_option(version=__version__)
def cli():
    """Heart-disease classification pipeline on the Cleveland dataset."""


@cli.command()
@data_option
@header_option
@_emits_report
def inspect(data_path, header):
    """Summarize the dataset: rows parsed/dropped/kept, ranges, class balance."""
    with open(data_path, "r", encoding="utf-8") as fh:
        raw = parse_csv(fh.read(), CLEVELAND_SCHEMA, header=header)
    return inspect_report(raw, {"data": str(data_path), "header": header})


@cli.command()
@_loads_table()
@click.option("--evaluator", required=True, type=click.Choice(list(EVALUATORS)))
@_emits_report
def rank(ds, config, evaluator):
    """Rank features by information gain or absolute correlation."""
    return rank_report(ds, config, evaluator)


@cli.command()
@data_option
@header_option
@folds_option
@click.option("--seed", default=SUBSET_SEED, show_default=True, type=int)
@click.option("--stale-limit", default=5, show_default=True, type=int)
@click.option("--min-improvement", default=0.005, show_default=True, type=float,
              help="Smallest CV-accuracy gain that counts as progress.")
@_emits_report
def subset(data_path, header, folds, seed, stale_limit, min_improvement):
    """Wrapper subset selection: best-first search around naive Bayes CV accuracy."""
    ds = load_dataset(data_path, header=header)
    return subset_report(ds, {"data": str(data_path), "header": header}, folds, seed,
                         stale_limit, min_improvement)


def _algorithm_options(fn):
    fn = click.option("--algorithm", default="nb", show_default=True,
                      type=click.Choice(list(ALGORITHMS)))(fn)
    fn = click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)(fn)
    fn = click.option("--no-scale", is_flag=True, default=False,
                      help="Disable z-scoring of continuous features.")(fn)
    return fn


@cli.command()
@_loads_table(SELECTED_FEATURES)
@folds_option
@_algorithm_options
@_emits_report
def cv(ds, config, folds, algorithm, seed, no_scale):
    """Stratified k-fold cross-validation of one algorithm at its default params."""
    scaling = default_scaling(algorithm) and not no_scale
    return cv_report(ds, config, algorithm, folds, seed, scaling)


def _parse_grid(grid_json: str | None, algorithm: str) -> Grid:
    if grid_json is None:
        return default_grids()[algorithm]
    try:
        candidates = tuple(params_from_dict(d) for d in json.loads(grid_json))
        return Grid(algorithm=candidates[0].algorithm, candidates=candidates)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise click.BadParameter(repr(exc), param_hint="--grid") from None


@cli.command()
@_loads_table(SELECTED_FEATURES)
@folds_option
@_algorithm_options
@click.option("--grid", "grid_json", default=None,
              help="JSON list of hyperparameter records overriding the default grid.")
@click.option("--save-model", "model_out", default=None, type=click.Path(dir_okay=False),
              help="Write the refit best model to this path.")
@_emits_report
def tune(ds, config, folds, algorithm, seed, no_scale, grid_json, model_out):
    """Grid search by CV accuracy; the winner is refit on all rows."""
    grid = _parse_grid(grid_json, algorithm)
    scaling = default_scaling(grid.algorithm) and not no_scale
    return tune_report(ds, config, grid, folds, seed, scaling, model_out)


@cli.command()
@_loads_table(SELECTED_FEATURES)
@folds_option
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
@click.option("--no-scale", is_flag=True, default=False)
@_emits_report
def compare(ds, config, folds, seed, no_scale):
    """Tune all three algorithms on identical folds and compare their winners."""
    return compare_report(ds, config, folds, seed, scaling=not no_scale)


@cli.command()
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--record", "records", multiple=True,
              help="Comma-separated feature values; repeatable.")
@click.option("--data", "data_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV of feature rows (no target column).")
@_emits_report
def predict(model_path, records, data_path):
    """Predict labels (and posteriors, for naive Bayes) for new records."""
    fitted = load_model(model_path)
    text = "".join(rec + "\n" for rec in records)
    if data_path:
        with open(data_path, "r", encoding="utf-8") as fh:
            text += fh.read()
    X = parse_features(text, fitted.schema)
    if len(X) == 0:
        raise click.UsageError("no records given; use --record or --data")
    return predict_report(fitted, X, {"model": str(model_path)})


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except (DataError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(2)
    except TrainingError as exc:
        click.echo(f"training error: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
