import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_pipeline_fast_json(tmp_path):
    out = tmp_path / "pipeline.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--fast",
         "--data", str(ROOT / "data" / "processed.cleveland.data"), "--json-out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert set(payload) == {"dataset", "rankings", "subset", "baseline", "comparison"}
    assert set(payload["comparison"]["models"]) == {"nb", "knn", "svm"}
    assert payload["dataset"]["rows"] == 297
