"""``scripts/bench_pairs.py``: run order, wins and summaries of interleaved benchmark pairs."""

import importlib
import json


def test_pairs_alternate_and_count_wins(tmp_path, monkeypatch, capsys):
    bench_pairs = importlib.import_module("scripts.bench_pairs")
    declared = [
        {"name": "wall_s", "better": "lower"},
        {"name": "test_auc", "better": "higher"},
    ]
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": declared}))
    # the change is faster in pairs 1, 2 and 4 and scores higher in pair 3 only
    walls = {"parent": iter([2.0, 2.0, 1.0, 2.0]), "change": iter([1.0, 1.5, 3.0, 1.9])}
    aucs = {"parent": iter([0.5, 0.5, 0.5, 0.5]), "change": iter([0.5, 0.4, 0.6, 0.5])}
    order = []

    def fake_run(checkout, workload, seed, seconds):
        side = checkout.name
        order.append(side)
        metrics = {"wall_s": {"value": next(walls[side])}, "test_auc": {"value": next(aucs[side])}}
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload", "w", "--pairs", "4"]
    bench_pairs.main(argv)
    entry = json.loads(capsys.readouterr().out)

    assert order == ["parent", "change", "change", "parent", "parent", "change", "change", "parent"]
    assert entry["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert entry["all_correct"] and entry["failed"] == 0
    wall = entry["metrics"]["wall_s"]
    assert wall["change_wins"] == "3/4" and entry["metrics"]["test_auc"]["change_wins"] == "1/4"
    assert wall["parent"] == {"median": 2.0, "q1": 1.75, "q3": 2.0, "runs": [2.0, 2.0, 1.0, 2.0]}
    assert wall["change"]["median"] == 1.7 and wall["median_change_ratio"] == -0.15
