import json
import os
import subprocess
import sys
from pathlib import Path

from cadml.cli import main
from cadml.feature_selection import EVALUATORS

ROOT = Path(__file__).resolve().parents[1]
DATA = str(ROOT / "data" / "processed.cleveland.data")


def cli_report(tmp_path, *args):
    """The JSON report of one CLI command on the Cleveland data."""
    out = tmp_path / "report.json"
    main([*args, "--data", DATA, "--format", "json", "--out", str(out)])
    return json.loads(out.read_text())["report"]


def test_run_pipeline_fast_json(tmp_path):
    out = tmp_path / "pipeline.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--fast",
         "--data", DATA, "--json-out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert set(payload) == {"dataset", "rankings", "subset", "baseline", "comparison"}
    assert set(payload["comparison"]["models"]) == {"nb", "knn", "svm"}
    assert payload["dataset"]["rows"] == 297
    # each section is the report of the CLI command with the same configuration
    assert payload["rankings"] == {e: cli_report(tmp_path, "rank", "--evaluator", e)
                                   for e in EVALUATORS}
    assert payload["subset"] == cli_report(tmp_path, "subset", "--folds", "5",
                                           "--stale-limit", "2")
    assert payload["baseline"] == cli_report(tmp_path, "cv", "--folds", "5")
    assert payload["comparison"] == cli_report(tmp_path, "compare", "--folds", "5")
