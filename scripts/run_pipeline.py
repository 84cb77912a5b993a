#!/usr/bin/env python3
"""Run the full experiment: rank, select, cross-validate, compare.

Prints each stage's report as the matching `cadml` command does. Use --fast
for a quicker pass (fewer folds, shorter wrapper search) while iterating.
"""
import argparse
import json
import time

from cadml import cli
from cadml.dataset import REMOVED_FEATURES, SELECTED_FEATURES, load_dataset, select_columns
from cadml.feature_selection import EVALUATORS


def show(heading, report):
    """Print a stage's report as text under its heading; return its JSON body."""
    print(f"\n== {heading} ==", *report.lines(), sep="\n")
    return report.body()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default="data/processed.cleveland.data")
    ap.add_argument("--folds", type=int, default=cli.DEFAULT_FOLDS)
    ap.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    ap.add_argument("--subset-seed", type=int, default=cli.SUBSET_SEED)
    ap.add_argument("--fast", action="store_true",
                    help="5 folds and an abbreviated wrapper search")
    ap.add_argument("--json-out", default=None,
                    help="also dump the full report as JSON")
    args = ap.parse_args()
    folds = 5 if args.fast else args.folds
    stale_limit = 2 if args.fast else 5

    t0 = time.monotonic()
    ds = load_dataset(args.data)
    neg, pos = ds.class_counts()
    print(f"dataset: {ds.n_rows} rows ({neg} negative / {pos} positive), "
          f"{len(ds.schema)} features")
    payload = {"dataset": {"rows": ds.n_rows, "negative": neg, "positive": pos}}

    payload["rankings"] = {e: show(f"feature ranking: {e}", cli.rank_report(ds, {}, e))
                           for e in EVALUATORS}
    payload["subset"] = show("wrapper subset search (naive Bayes, best-first)",
                             cli.subset_report(ds, {}, folds, args.subset_seed, stale_limit))
    kept = set(payload["subset"]["selected"])
    print(f"overlap with the default 7-feature view: {len(kept & set(SELECTED_FEATURES))} kept / "
          f"{len(kept & set(REMOVED_FEATURES))} from the dropped group")

    view = select_columns(ds, SELECTED_FEATURES)
    payload["baseline"] = show(
        f"naive Bayes baseline on the 7-feature view ({folds}-fold, seed {args.seed})",
        cli.cv_report(view, {}, "nb", folds, args.seed, scaling=False))
    payload["comparison"] = show("model comparison (grid-tuned, identical folds)",
                                 cli.compare_report(view, {}, folds, args.seed, scaling=True))
    print(f"\ntotal time: {time.monotonic() - t0:.1f}s")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
