"""Command-line front end for the pipeline.

Subcommands: inspect, rank, subset, cv, tune, compare, predict. Every report
embeds the resolved run configuration and tool version, and all output is
deterministic for a fixed configuration.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training error.
"""
from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import __version__
from .classifiers import ALGORITHMS, NBParams, load_model, params_from_dict, save_model
from .dataset import (
    CLEVELAND_SCHEMA,
    SELECTED_FEATURES,
    Dataset,
    drop_incomplete,
    load_dataset,
    parse_csv,
    parse_features,
    select_columns,
)
from .errors import DataError, TrainingError
from .evaluation import cross_validate
from .feature_selection import EVALUATORS, best_first_subset, rank_features
from .tuning import Grid, compare_models, default_grids, default_scaling, grid_search

DEFAULT_SEED = 2018
SUBSET_SEED = 1  # the wrapper-selection step uses its own seed
DEFAULT_FOLDS = 10


def _load_dataset(path, header, keep) -> Dataset:
    ds = load_dataset(path, header=header)
    return ds if keep is None else select_columns(ds, keep)


def _parse_keep(keep: str | None, default):
    if keep is None:
        return default
    if keep.strip().lower() == "all":
        return None
    return tuple(name.strip() for name in keep.split(",") if name.strip())


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _emit(payload: dict, text: str, fmt: str, out, csv_text: str | None = None):
    if fmt == "json":
        rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rendered = csv_text if csv_text is not None else text
    else:
        rendered = text
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        click.echo(rendered, nl=False)


def _config_dict(**kwargs):
    return {"tool_version": __version__, **kwargs}


data_option = click.option("--data", "data_path", required=True,
                           type=click.Path(exists=True, dir_okay=False),
                           help="Cleveland-layout CSV.")
header_option = click.option("--header", is_flag=True, default=False,
                             help="First line names the columns.")
keep_option = click.option("--keep", default=None,
                           help="Comma-separated feature names, or 'all'.")
folds_option = click.option("--folds", default=DEFAULT_FOLDS, show_default=True, type=int)
format_option = click.option("--format", "fmt", default="text", show_default=True,
                             type=click.Choice(["text", "json", "csv"]))
out_option = click.option("--out", default=None, type=click.Path(dir_okay=False),
                          help="Write the report to a file instead of stdout.")


@click.group()
@click.version_option(version=__version__)
def cli():
    """Heart-disease classification pipeline on the Cleveland dataset."""


@cli.command()
@data_option
@header_option
@format_option
@out_option
def inspect(data_path, header, fmt, out):
    """Summarize the dataset: rows parsed/dropped/kept, ranges, class balance."""
    with open(data_path, "r", encoding="utf-8") as fh:
        raw = parse_csv(fh.read(), CLEVELAND_SCHEMA, header=header)
    ds = drop_incomplete(raw, provenance=str(data_path))
    neg, pos = ds.class_counts()
    features = []
    for j, feat in enumerate(ds.schema):
        col = ds.X[:, j]
        features.append({"name": feat.name, "kind": feat.kind,
                         "min": float(np.min(col)), "max": float(np.max(col))})
    payload = {
        "config": _config_dict(command="inspect", data=str(data_path), header=header),
        "report": {
            "parsed": raw.n_rows,
            "dropped": raw.n_incomplete,
            "kept": ds.n_rows,
            "class_balance": {"negative": neg, "positive": pos},
            "features": features,
        },
    }
    lines = [f"{raw.n_rows} parsed, {raw.n_incomplete} dropped, {ds.n_rows} kept",
             f"class balance: {neg} negative / {pos} positive", ""]
    lines.append(f"{'feature':<14}{'kind':<13}{'min':>9}{'max':>9}")
    for f in features:
        lines.append(f"{f['name']:<14}{f['kind']:<13}{f['min']:>9.1f}{f['max']:>9.1f}")
    csv_text = "feature,kind,min,max\n" + "".join(
        f"{f['name']},{f['kind']},{f['min']},{f['max']}\n" for f in features)
    _emit(payload, "\n".join(lines) + "\n", fmt, out, csv_text)


@cli.command()
@data_option
@header_option
@keep_option
@click.option("--evaluator", required=True, type=click.Choice(list(EVALUATORS)))
@format_option
@out_option
def rank(data_path, header, keep, evaluator, fmt, out):
    """Rank features by information gain or absolute correlation."""
    keep_names = _parse_keep(keep, None)
    ds = _load_dataset(data_path, header, keep_names)
    ranked = rank_features(ds, evaluator)
    payload = {
        "config": _config_dict(command="rank", data=str(data_path), header=header,
                               keep=list(keep_names) if keep_names else "all",
                               evaluator=evaluator),
        "report": ranked.to_dict(),
    }
    lines = [f"{'feature':<14}{'score':>10}"]
    lines += [f"{e.feature:<14}{e.score:>10.6f}" for e in ranked.entries]
    csv_text = "feature,score\n" + "".join(
        f"{e.feature},{e.score}\n" for e in ranked.entries)
    _emit(payload, "\n".join(lines) + "\n", fmt, out, csv_text)


@cli.command()
@data_option
@header_option
@folds_option
@click.option("--seed", default=SUBSET_SEED, show_default=True, type=int)
@click.option("--stale-limit", default=5, show_default=True, type=int)
@click.option("--min-improvement", default=0.005, show_default=True, type=float,
              help="Smallest CV-accuracy gain that counts as progress.")
@format_option
@out_option
def subset(data_path, header, folds, seed, stale_limit, min_improvement, fmt, out):
    """Wrapper subset selection: best-first search around naive Bayes CV accuracy."""
    ds = _load_dataset(data_path, header, None)
    result = best_first_subset(ds, NBParams(), folds=folds, seed=seed,
                               stale_limit=stale_limit, min_improvement=min_improvement)
    payload = {
        "config": _config_dict(command="subset", data=str(data_path), header=header,
                               folds=folds, seed=seed, stale_limit=stale_limit,
                               min_improvement=min_improvement),
        "report": result.to_dict(),
    }
    text = (f"selected: {', '.join(result.selected)}\n"
            f"objective (mean CV accuracy): {result.objective:.4f}\n"
            f"expansions: {result.expansions}\n")
    csv_text = "selected,objective,expansions\n" + \
        f"{' '.join(result.selected)},{result.objective},{result.expansions}\n"
    _emit(payload, text, fmt, out, csv_text)


def _algorithm_options(fn):
    fn = click.option("--algorithm", default="nb", show_default=True,
                      type=click.Choice(list(ALGORITHMS)))(fn)
    fn = click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)(fn)
    fn = click.option("--no-scale", is_flag=True, default=False,
                      help="Disable z-scoring of continuous features.")(fn)
    return fn


def _cv_text(result) -> str:
    lines = [f"{'fold':<6}{'accuracy':>10}{'recall':>10}{'specificity':>13}{'precision':>11}"]
    for i, rep in enumerate(result.per_fold):
        lines.append(f"{i:<6}{_fmt(rep.accuracy):>10}{_fmt(rep.recall):>10}"
                     f"{_fmt(rep.specificity):>13}{_fmt(rep.precision):>11}")
    p = result.pooled
    lines.append(f"{'pooled':<6}{_fmt(p.accuracy):>10}{_fmt(p.recall):>10}"
                 f"{_fmt(p.specificity):>13}{_fmt(p.precision):>11}")
    lines.append(f"mean accuracy: {result.mean_accuracy:.4f}")
    return "\n".join(lines) + "\n"


def _cv_csv(result) -> str:
    rows = ["fold,tp,fp,tn,fn,accuracy,recall,specificity,precision"]
    reports = list(result.per_fold) + [result.pooled]
    names = [str(i) for i in range(len(result.per_fold))] + ["pooled"]
    for name, rep in zip(names, reports):
        m = rep.matrix
        rows.append(f"{name},{m.tp},{m.fp},{m.tn},{m.fn},"
                    f"{_fmt(rep.accuracy)},{_fmt(rep.recall)},"
                    f"{_fmt(rep.specificity)},{_fmt(rep.precision)}")
    return "\n".join(rows) + "\n"


@cli.command()
@data_option
@header_option
@keep_option
@folds_option
@_algorithm_options
@format_option
@out_option
def cv(data_path, header, keep, folds, algorithm, seed, no_scale, fmt, out):
    """Stratified k-fold cross-validation of one algorithm at its default params."""
    keep_names = _parse_keep(keep, SELECTED_FEATURES)
    ds = _load_dataset(data_path, header, keep_names)
    scaling = default_scaling(algorithm) and not no_scale
    result = cross_validate(ds, ALGORITHMS[algorithm].params(), folds, seed, scaling=scaling)
    payload = {
        "config": _config_dict(command="cv", data=str(data_path), header=header,
                               keep=list(keep_names) if keep_names else "all",
                               algorithm=algorithm, folds=folds, seed=seed,
                               scaling=scaling),
        "report": result.to_dict(),
    }
    _emit(payload, _cv_text(result), fmt, out, _cv_csv(result))


def _parse_grid(grid_json: str | None, algorithm: str) -> Grid:
    if grid_json is None:
        return default_grids()[algorithm]
    try:
        candidates = tuple(params_from_dict(d) for d in json.loads(grid_json))
        return Grid(algorithm=candidates[0].algorithm, candidates=candidates)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise click.BadParameter(repr(exc), param_hint="--grid") from None


@cli.command()
@data_option
@header_option
@keep_option
@folds_option
@_algorithm_options
@click.option("--grid", "grid_json", default=None,
              help="JSON list of hyperparameter records overriding the default grid.")
@click.option("--save-model", "model_out", default=None, type=click.Path(dir_okay=False),
              help="Write the refit best model to this path.")
@format_option
@out_option
def tune(data_path, header, keep, folds, algorithm, seed, no_scale, grid_json,
         model_out, fmt, out):
    """Grid search by CV accuracy; the winner is refit on all rows."""
    keep_names = _parse_keep(keep, SELECTED_FEATURES)
    ds = _load_dataset(data_path, header, keep_names)
    grid = _parse_grid(grid_json, algorithm)
    scaling = default_scaling(grid.algorithm) and not no_scale
    result = grid_search(ds, grid, folds, seed, scaling=scaling)
    if model_out:
        save_model(result.final_model, model_out)
    payload = {
        "config": _config_dict(command="tune", data=str(data_path), header=header,
                               keep=list(keep_names) if keep_names else "all",
                               algorithm=grid.algorithm, folds=folds, seed=seed,
                               scaling=scaling),
        "report": result.to_dict(),
    }
    lines = [f"{'candidate':<55}{'mean accuracy':>14}"]
    for params, acc in result.per_candidate:
        mark = " *" if params == result.best else ""
        lines.append(f"{json.dumps(params.to_dict(), sort_keys=True):<55}{acc:>14.4f}{mark}")
    text = "\n".join(lines) + "\n"
    csv_text = "candidate,mean_accuracy,best\n" + "".join(
        f"\"{json.dumps(p.to_dict(), sort_keys=True)}\",{acc},{int(p == result.best)}\n"
        for p, acc in result.per_candidate)
    _emit(payload, text, fmt, out, csv_text)


@cli.command()
@data_option
@header_option
@keep_option
@folds_option
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
@click.option("--no-scale", is_flag=True, default=False)
@format_option
@out_option
def compare(data_path, header, keep, folds, seed, no_scale, fmt, out):
    """Tune all three algorithms on identical folds and compare their winners."""
    keep_names = _parse_keep(keep, SELECTED_FEATURES)
    ds = _load_dataset(data_path, header, keep_names)
    overrides = {a: False for a in ALGORITHMS} if no_scale else None
    report = compare_models(ds, folds, seed, scaling_overrides=overrides)
    payload = {
        "config": _config_dict(command="compare", data=str(data_path), header=header,
                               keep=list(keep_names) if keep_names else "all",
                               folds=folds, seed=seed, scaling=not no_scale),
        "report": report.to_dict(),
    }
    d = report.to_dict()
    lines = [f"{'model':<6}{'accuracy':>10}{'recall':>10}{'specificity':>13}{'precision':>11}"]
    for algo, row in d["models"].items():
        lines.append(f"{algo:<6}{_fmt(row['accuracy']):>10}{_fmt(row['recall']):>10}"
                     f"{_fmt(row['specificity']):>13}{_fmt(row['precision']):>11}")
    lines.append("best per metric: " + ", ".join(
        f"{m}={a}" for m, a in sorted(d["best_per_metric"].items())))
    csv_text = "model,accuracy,recall,specificity,precision\n" + "".join(
        f"{algo},{_fmt(row['accuracy'])},{_fmt(row['recall'])},"
        f"{_fmt(row['specificity'])},{_fmt(row['precision'])}\n"
        for algo, row in d["models"].items())
    _emit(payload, "\n".join(lines) + "\n", fmt, out, csv_text)


@cli.command()
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--record", "records", multiple=True,
              help="Comma-separated feature values; repeatable.")
@click.option("--data", "data_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV of feature rows (no target column).")
@format_option
@out_option
def predict(model_path, records, data_path, fmt, out):
    """Predict labels (and posteriors, for naive Bayes) for new records."""
    fitted = load_model(model_path)
    text = "".join(rec + "\n" for rec in records)
    if data_path:
        with open(data_path, "r", encoding="utf-8") as fh:
            text += fh.read()
    X = parse_features(text, fitted.schema)
    if len(X) == 0:
        raise click.UsageError("no records given; use --record or --data")
    labels = fitted.predict_batch(X)
    posteriors = fitted.posterior_batch(X)
    results = [{"features": row.tolist(), "label": int(label)} for row, label in zip(X, labels)]
    if posteriors is not None:
        for entry, post in zip(results, posteriors):
            entry["posterior"] = post.tolist()
    payload = {
        "config": _config_dict(command="predict", model=str(model_path),
                               algorithm=fitted.algorithm),
        "report": {"predictions": results},
    }
    lines = []
    for entry in results:
        if "posterior" in entry:
            post = " posterior=[" + ", ".join(f"{p:.6f}" for p in entry["posterior"]) + "]"
        else:
            post = ""
        lines.append(f"label={entry['label']}{post}")
    csv_text = "label\n" + "".join(f"{e['label']}\n" for e in results)
    _emit(payload, "\n".join(lines) + "\n", fmt, out, csv_text)


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
