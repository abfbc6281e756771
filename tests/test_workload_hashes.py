"""``scripts/workload_hashes.py``: one run hashes the atlas cohort, prepared views and outputs and the population outputs and compares them."""

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
    assert proc.returncode == 1
    summary = f"6 of 6 artifacts differ from {previous}"
    assert proc.stderr.splitlines() == [f"{name}: differs" for name in NAMES] + [summary]
