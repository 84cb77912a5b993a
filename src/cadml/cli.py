"""Command-line front end for the pipeline.

Subcommands: inspect, rank, subset, cv, tune, compare, predict, pipeline. Each
is one function that returns its Report; _command registers it as a click
command that renders the report, and the function stays callable for scripts.
Every report embeds the resolved run configuration and tool version, and all
output is deterministic for a fixed configuration.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training error.

The training modules (evaluation, feature_selection, tuning) are imported by
the commands that call them, so that predict loads none of them.
"""
from __future__ import annotations

import gc

if __name__ == "__main__":
    # a one-shot process: no collection walks the heap its imports build;
    # run() turns collection back on once that heap is frozen
    gc.disable()

import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import click
import numpy as np

from . import __version__
from .classifiers import ALGORITHMS, NBParams, load_model, params_from_dict, save_model
from .dataset import (
    CLEVELAND_SCHEMA,
    SELECTED_FEATURES,
    drop_incomplete,
    load_dataset,
    parse_csv,
    parse_features,
    read_text,
    select_columns,
)
from .errors import DataError, TrainingError

if TYPE_CHECKING:
    from .tuning import Grid

DEFAULT_SEED = 2018
SUBSET_SEED = 1  # the wrapper-selection step uses its own seed
DEFAULT_FOLDS = 10
_EVALUATORS = ("info_gain", "correlation")  # feature_selection.EVALUATORS, not imported here


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
    from .evaluation import METRIC_NAMES
    values = [getattr(rep, metric) for metric in METRIC_NAMES]
    return ["n/a" if value is None else f"{value:.4f}" for value in values]


data_option = click.option("--data", "data_path", required=True,
                           type=click.Path(exists=True, dir_okay=False),
                           help="Cleveland-layout CSV.")
header_option = click.option("--header", is_flag=True, default=False,
                             help="First line names the columns.")
folds_option = click.option("--folds", default=DEFAULT_FOLDS, show_default=True,
                            type=click.IntRange(min=2))
_SEED = click.IntRange(min=0)  # the fold shuffle's Philox generator takes no negative seed
algorithm_option = click.option("--algorithm", default="nb", show_default=True,
                                type=click.Choice(list(ALGORITHMS)))
seed_option = click.option("--seed", default=DEFAULT_SEED, show_default=True, type=_SEED)
subset_seed_option = click.option("--subset-seed", default=SUBSET_SEED, show_default=True,
                                  type=_SEED)
stale_limit_option = click.option("--stale-limit", default=5, show_default=True,
                                  type=click.IntRange(min=1))
no_scale_option = click.option("--no-scale", is_flag=True, default=False,
                               help="Disable z-scoring of continuous features.")


def _finite(ctx, param, value):
    if not np.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


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
                if len(set(names)) != len(names):
                    raise click.BadParameter(f"{keep!r} repeats a feature", param_hint="--keep")
            ds = load_dataset(data_path, header=header)
            if names is not None:
                ds = select_columns(ds, names)
            return fn(ds, {"data": str(data_path), "header": header,
                           "keep": list(names) if names else "all"}, **options)
        return command
    return decorate


@click.group(no_args_is_help=False)
@click.version_option(version=__version__)
def cli():
    """Heart-disease classification pipeline on the Cleveland dataset."""


def _command(*decorators):
    """Register a function that returns a Report as a cli command: the click
    decorators, outermost first, give its options, and --format and --out
    render the report. The function itself is returned, to be called directly."""
    def register(fn):
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
        for decorate in reversed(decorators):
            command = decorate(command)
        cli.command()(command)
        return fn
    return register


@_command(data_option, header_option)
def inspect(data_path, header) -> Report:
    """Summarize the dataset: rows parsed/dropped/kept, ranges, class balance."""
    raw = parse_csv(read_text(data_path), CLEVELAND_SCHEMA, header=header)
    ds = drop_incomplete(raw)
    neg, pos = ds.class_counts()
    features = [{"name": feat.name, "kind": feat.kind,
                 "min": float(np.min(ds.X[:, j])), "max": float(np.max(ds.X[:, j]))}
                for j, feat in enumerate(ds.schema)]
    heading = ["feature", "kind", "min", "max"]
    return Report(
        config={"command": "inspect", "data": str(data_path), "header": header},
        body=lambda: {"parsed": raw.n_rows, "dropped": raw.n_incomplete, "kept": ds.n_rows,
                      "class_balance": {"negative": neg, "positive": pos},
                      "features": features},
        rows=lambda: [heading, *([f["name"], f["kind"], f["min"], f["max"]] for f in features)],
        lines=lambda: [f"{raw.n_rows} parsed, {raw.n_incomplete} dropped, {ds.n_rows} kept",
                       f"class balance: {neg} negative / {pos} positive", "",
                       *_table("{:<14}{:<13}{:>9}{:>9}", heading,
                               [[f["name"], f["kind"], f"{f['min']:.1f}", f"{f['max']:.1f}"]
                                for f in features])])


@_command(_loads_table(),
          click.option("--evaluator", required=True, type=click.Choice(_EVALUATORS)))
def rank(ds, config, evaluator) -> Report:
    """Rank features by information gain or absolute correlation."""
    from .feature_selection import rank_features
    ranked = rank_features(ds, evaluator)
    return Report(
        config={"command": "rank", **config, "evaluator": evaluator},
        body=ranked.to_dict,
        rows=lambda: [["feature", "score"], *([e.feature, e.score] for e in ranked.entries)],
        lines=lambda: _table("{:<14}{:>10}", ["feature", "score"],
                             [[e.feature, f"{e.score:.6f}"] for e in ranked.entries]))


@_command(data_option, header_option, folds_option,
          click.option("--seed", default=SUBSET_SEED, show_default=True, type=_SEED),
          stale_limit_option,
          click.option("--min-improvement", default=0.005, show_default=True,
                       type=click.FloatRange(min=0), callback=_finite,
                       help="Smallest CV-accuracy gain that counts as progress."))
def subset(data_path, header, folds, seed, stale_limit, min_improvement=0.005) -> Report:
    """Wrapper subset selection: best-first search around naive Bayes CV accuracy."""
    return _subset(load_dataset(data_path, header=header),
                   {"data": str(data_path), "header": header},
                   folds, seed, stale_limit, min_improvement)


def _subset(ds, config, folds, seed, stale_limit, min_improvement=0.005) -> Report:
    """The subset report on a loaded table, config naming it."""
    from .feature_selection import best_first_subset
    result = best_first_subset(ds, NBParams(), folds=folds, seed=seed, stale_limit=stale_limit,
                               min_improvement=min_improvement)
    return Report(
        config={"command": "subset", **config, "folds": folds, "seed": seed,
                "stale_limit": stale_limit, "min_improvement": min_improvement},
        body=result.to_dict,
        rows=lambda: [["selected", "objective", "expansions"],
                      [" ".join(result.selected), result.objective, result.expansions]],
        lines=lambda: [f"selected: {', '.join(result.selected)}",
                       f"objective (mean CV accuracy): {result.objective:.4f}",
                       f"expansions: {result.expansions}"])


@_command(_loads_table(SELECTED_FEATURES), folds_option, no_scale_option, seed_option,
          algorithm_option)
def cv(ds, config, folds, algorithm, seed, no_scale) -> Report:
    """Stratified k-fold cross-validation of one algorithm at its default params."""
    from .evaluation import METRIC_NAMES, cross_validate
    from .tuning import default_scaling
    scaling = default_scaling(algorithm) and not no_scale
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


def _parse_grid(grid_json: str | None, algorithm: str) -> Grid:
    from .tuning import Grid, default_grids
    if grid_json is None:
        return default_grids()[algorithm]
    try:
        candidates = tuple(params_from_dict(d) for d in json.loads(grid_json))
        return Grid(algorithm=candidates[0].algorithm, candidates=candidates)
    except (KeyError, TypeError, ValueError, IndexError, RecursionError) as exc:
        raise click.BadParameter(repr(exc), param_hint="--grid") from None


@_command(_loads_table(SELECTED_FEATURES), folds_option, no_scale_option, seed_option,
          algorithm_option,
          click.option("--grid", "grid_json", default=None,
                       help="JSON list of hyperparameter records overriding the default grid."),
          click.option("--save-model", "model_out", default=None,
                       type=click.Path(dir_okay=False),
                       help="Write the refit best model to this path."))
def tune(ds, config, folds, algorithm, seed, no_scale, grid_json, model_out) -> Report:
    """Grid search by CV accuracy; the winner is refit on all rows."""
    from .tuning import default_scaling, grid_search
    grid = _parse_grid(grid_json, algorithm)
    scaling = default_scaling(grid.algorithm) and not no_scale
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


@_command(_loads_table(SELECTED_FEATURES), folds_option, seed_option, no_scale_option)
def compare(ds, config, folds, seed, no_scale) -> Report:
    """Tune all three algorithms on identical folds and compare their winners."""
    from .evaluation import METRIC_NAMES
    from .tuning import compare_models
    scaling = not no_scale
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


@_command(click.option("--model", "model_path", required=True,
                       type=click.Path(exists=True, dir_okay=False)),
          click.option("--record", "records", multiple=True,
                       help="Comma-separated feature values; repeatable."),
          click.option("--data", "data_path", default=None,
                       type=click.Path(exists=True, dir_okay=False),
                       help="CSV of feature rows (no target column)."))
def predict(model_path, records, data_path) -> Report:
    """Predict labels (and posteriors, for naive Bayes) for new records."""
    fitted = load_model(model_path)
    text = "".join(rec + "\n" for rec in records)
    if data_path:
        text += read_text(data_path)
    X = parse_features(text, fitted.schema)
    if len(X) == 0:
        raise click.UsageError("no records given; use --record or --data")
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

    return Report(config={"command": "predict", "model": str(model_path),
                          "algorithm": fitted.algorithm},
                  body=body, rows=lambda: [["label"], *([label] for label in labels)],
                  lines=lines)


@_command(data_option, folds_option, seed_option, subset_seed_option, stale_limit_option)
def pipeline(data_path, folds, seed, subset_seed, stale_limit) -> Report:
    """The paper's experiment: the reports of rank, subset, cv and compare in turn."""
    ds = load_dataset(data_path)
    view = select_columns(ds, SELECTED_FEATURES)
    neg, pos = ds.class_counts()
    counts = {"rows": ds.n_rows, "negative": neg, "positive": pos}
    stages = {  # JSON key: (heading, report), in the order the text shows them
        **{f"rankings.{e}": (f"feature ranking: {e}", rank(ds, {}, e)) for e in _EVALUATORS},
        "subset": ("wrapper subset search (naive Bayes, best-first)",
                   _subset(ds, {}, folds, subset_seed, stale_limit)),
        "baseline": (f"naive Bayes baseline on the 7-feature view ({folds}-fold, seed {seed})",
                     cv(view, {}, folds, "nb", seed, False)),
        "comparison": ("model comparison (grid-tuned, identical folds)",
                       compare(view, {}, folds, seed, False))}
    kept, chosen = set(stages["subset"][1].body()["selected"]), set(SELECTED_FEATURES)
    notes = {"subset": [f"overlap with the default 7-feature view: {len(kept & chosen)} kept / "
                        f"{len(kept - chosen)} from the dropped group"]}

    def body():
        bodies = {key: report.body() for key, (_, report) in stages.items()}
        return {"dataset": counts,  # the rankings are popped before **bodies unpacks
                "rankings": {e: bodies.pop(f"rankings.{e}") for e in _EVALUATORS}, **bodies}

    def rows():
        rows = [["dataset", *counts], ["dataset", *counts.values()],
                *([key, *row] for key, (_, report) in stages.items() for row in report.rows())]
        width = max(map(len, rows))  # padded to one rectangle
        return [row + [""] * (width - len(row)) for row in rows]

    def lines():
        out = [f"dataset: {ds.n_rows} rows ({neg} negative / {pos} positive), "
               f"{len(ds.schema)} features"]
        for key, (heading, report) in stages.items():
            out += ["", f"== {heading} ==", *report.lines(), *notes.get(key, [])]
        return out

    return Report(config={"command": "pipeline", "data": str(data_path), "folds": folds,
                          "seed": seed, "subset_seed": subset_seed, "stale_limit": stale_limit},
                  body=body, rows=rows, lines=lines)


def main(argv=None, command=cli):  # any click command, with errors mapped to exit codes
    try:
        command.main(args=argv, standalone_mode=False)
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


def run():
    """Program entry of the `cadml` console script and of `python -m cadml.cli`.

    Freezes the heap the imports built, so that no later collection walks it,
    those at interpreter exit included; what the command creates is collected
    as before. Under `-m` no collection runs during the imports either. The
    console script imports this module before it can call run(), so it gets
    only the frozen heap. main(argv) leaves the caller's collector as it was.
    """
    gc.freeze()
    gc.enable()
    main()


if __name__ == "__main__":
    run()
