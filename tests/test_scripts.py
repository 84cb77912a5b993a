import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cadml import cli
from cadml.cli import main
from cadml.feature_selection import EVALUATORS

ROOT = Path(__file__).resolve().parents[1]
DATA = str(ROOT / "data" / "processed.cleveland.data")


def run_cli(*args):
    """cadml on args in-process: its exit code."""
    try:
        main(list(args))
    except SystemExit as exc:
        return exc.code
    return 0


def run_script(cwd, *args):
    """scripts/run_pipeline.py on args in a fresh process that imports cadml from src."""
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), *args],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)


def cli_report(tmp_path, *args):
    """The JSON report of one CLI command on the Cleveland data."""
    out = tmp_path / "report.json"
    assert run_cli(*args, "--data", DATA, "--format", "json", "--out", str(out)) == 0
    return json.loads(out.read_text())["report"]


def test_run_pipeline_fast_json(tmp_path):
    """The script's --fast text and --json-out payload are those of `cadml pipeline`
    at 5 folds and a stale limit of 2, and the script adds the wall time."""
    out = tmp_path / "pipeline.json"
    proc = run_script(tmp_path, "--fast", "--data", DATA, "--json-out", str(out))
    assert proc.returncode == 0, proc.stderr
    settings = ["pipeline", "--folds", "5", "--stale-limit", "2"]
    assert json.loads(out.read_text()) == cli_report(tmp_path, *settings)
    text = tmp_path / "pipeline.txt"
    assert run_cli(*settings, "--data", DATA, "--out", str(text)) == 0
    *lines, blank, total, wrote = proc.stdout.splitlines(keepends=True)
    assert "".join(lines) == text.read_text()
    assert blank == "\n" and total.startswith("total time: ") and wrote == f"wrote {out}\n"


def test_run_pipeline_fast_keeps_an_explicit_folds(tmp_path):
    """--fast sets 5 folds only when --folds is not given; its stale limit of
    2 holds either way."""
    proc = run_script(tmp_path, "--fast", "--folds", "7", "--data", DATA)
    assert proc.returncode == 0, proc.stderr
    text = tmp_path / "pipeline.txt"
    assert run_cli("pipeline", "--folds", "7", "--stale-limit", "2", "--data", DATA,
                   "--out", str(text)) == 0
    *lines, blank, total = proc.stdout.splitlines(keepends=True)
    assert "".join(lines) == text.read_text()
    assert "(7-fold, seed 2018)" in text.read_text()


def test_pipeline_sections_are_the_command_reports(tmp_path):
    """Each section of the pipeline report is the report of the CLI command
    with the same configuration."""
    payload = cli.pipeline(DATA, 5, cli.DEFAULT_SEED, cli.SUBSET_SEED, 2).body()
    assert set(payload) == {"dataset", "rankings", "subset", "baseline", "comparison"}
    assert set(payload["comparison"]["models"]) == {"nb", "knn", "svm"}
    assert payload["dataset"] == {"rows": 297, "negative": 160, "positive": 137}
    assert payload["rankings"] == {e: cli_report(tmp_path, "rank", "--evaluator", e)
                                   for e in EVALUATORS}
    assert payload["subset"] == cli_report(tmp_path, "subset", "--folds", "5",
                                           "--stale-limit", "2")
    assert payload["baseline"] == cli_report(tmp_path, "cv", "--folds", "5")
    assert payload["comparison"] == cli_report(tmp_path, "compare", "--folds", "5")


def test_pipeline_reads_the_data_file_once(monkeypatch):
    """The subset stage uses the table the pipeline loaded for the rankings."""
    paths, load = [], cli.load_dataset
    monkeypatch.setattr(cli, "load_dataset",
                        lambda path, **options: paths.append(path) or load(path, **options))
    cli.pipeline(DATA, 5, cli.DEFAULT_SEED, cli.SUBSET_SEED, 2)
    assert paths == [DATA]


@pytest.mark.parametrize("args,code", [
    (["--folds", "1"], 1),
    (["--seed", "-1"], 1),
    (["--data", "/no/such/file.data"], 1),
    (["--folds", "400"], 3),  # fewer rows per class than folds: a training error
])
def test_run_pipeline_errors_exit_as_the_command_does(capsys, args, code):
    proc = run_script(ROOT, *args)
    assert run_cli("pipeline", "--data", DATA, *args) == code
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr == capsys.readouterr().err and len(proc.stderr.splitlines()) == 1
