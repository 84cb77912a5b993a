#!/usr/bin/env python3
"""Run `cadml pipeline` and print its text and wall time; --json-out also writes its JSON."""
import json
import time

import click
from click.core import ParameterSource

from cadml import cli


@click.command(help=__doc__)
@click.option("--data", "data_path", default="data/processed.cleveland.data",
              show_default=True, type=click.Path(exists=True, dir_okay=False))
@cli.folds_option
@cli.seed_option
@cli.subset_seed_option
@click.option("--fast", is_flag=True,
              help="an abbreviated wrapper search, and 5 folds unless --folds is given")
@click.option("--json-out", default=None, help="also dump the full report as JSON")
@click.pass_context
def run_pipeline(ctx, data_path, folds, seed, subset_seed, fast, json_out):
    if fast and ctx.get_parameter_source("folds") is ParameterSource.DEFAULT:
        folds = 5
    t0 = time.monotonic()
    report = cli.pipeline(data_path, folds, seed, subset_seed, 2 if fast else 5)
    print(report.render("text") + f"\ntotal time: {time.monotonic() - t0:.1f}s")
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(report.body(), fh, sort_keys=True, indent=2)
        print(f"wrote {json_out}")


if __name__ == "__main__":
    cli.main(command=run_pipeline)
