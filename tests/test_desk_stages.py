"""``scripts/desk_stages.py --against``: the artifact hash comparison."""

import importlib
import os

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
