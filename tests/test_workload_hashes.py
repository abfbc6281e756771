"""``scripts/workload_hashes.py``: one run hashes the atlas cohort, prepared views and outputs and the population outputs, compares the hashes, and prints the population AUCs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ["cohort", "dot", "embeddings", "graphml", "probs", "views"]


def test_prints_the_four_output_hashes_and_names_each_that_differs(tmp_path):
    previous = tmp_path / "before.json"
    previous.write_text(json.dumps({"seed": 1, "sha256": dict.fromkeys(NAMES, "0" * 64)}))
    command = [sys.executable, str(ROOT / "scripts" / "workload_hashes.py"), "--seed", "1", "--against", str(previous)]
    proc = subprocess.run(command, capture_output=True, text=True)
    report = json.loads(proc.stdout)
    assert report["seed"] == 1
    assert sorted(report["sha256"]) == NAMES
    assert all(len(digest) == 64 for digest in report["sha256"].values())
    assert sorted(report["population_auc"]) == ["knn_baseline_auc", "test_auc"]
    assert all(0.0 <= value <= 1.0 for value in report["population_auc"].values())
    assert proc.returncode == 1
    summary = f"6 of 6 artifacts differ from {previous}"
    assert proc.stderr.splitlines() == [f"{name}: differs" for name in NAMES] + [summary]
