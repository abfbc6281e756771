"""``scripts/desk_stages.py``: the artifact hash comparison and the per-stage report."""

import importlib
import json
import os
import sys

import pytest


@pytest.fixture()
def desk_stages(monkeypatch):
    # the script pins BLAS threads in os.environ on import; keep that out of this process
    monkeypatch.setattr(os, "environ", dict(os.environ))
    return importlib.import_module("scripts.desk_stages")


def test_compare_names_every_artifact_that_differs(desk_stages, capsys):
    before = {"a.json": "1", "b.csv": "2", "c.npz": "3"}
    after = {"a.json": "1", "b.csv": "x", "d.dot": "4"}
    assert desk_stages.compare(before, after, "before.json") == 1
    assert capsys.readouterr().err.splitlines() == [
        "b.csv: differs",
        "c.npz: only in before.json",
        "d.dot: only in this run",
        "3 of 4 artifacts differ from before.json",
    ]
    assert desk_stages.compare(before, dict(before), "before.json") == 0
    assert capsys.readouterr().err == "0 of 3 artifacts differ from before.json\n"


def test_report_counts_each_stages_minor_page_faults(desk_stages, monkeypatch, tmp_path, capsys):
    def stage(name):
        def run(cfg, seed):
            if name == "stage_train_cgl":
                bytearray(64 << 20)  # a fresh 64 MB mapping, zero-filled page by page
            if name == "stage_evaluate":
                report = {"auc": 0.5, "knn_baseline_auc": 0.5}
                (desk_stages.pipeline.seed_dir(cfg, seed) / "metrics_run.json").write_text(json.dumps(report))

        return run

    (tmp_path / "seed_3").mkdir()
    for name in desk_stages.STAGES:
        monkeypatch.setattr(desk_stages.pipeline, name, stage(name))
    monkeypatch.setattr(sys, "argv", ["desk_stages.py", "--seed", "3", "--out", str(tmp_path)])
    desk_stages.main()
    faults = json.loads(capsys.readouterr().out)["stage_minflt"]
    assert sorted(faults) == sorted(desk_stages.STAGES)
    assert all(isinstance(n, int) and n >= 0 for n in faults.values())
    assert faults["stage_train_cgl"] > 0
