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
    attempted = {"parent": iter([88, 88, 92, 88]), "change": iter([104, 100, 96, 104])}
    order = []

    def fake_run(checkout, workload, seed, seconds):
        side = checkout.name
        order.append(side)
        metrics = {"wall_s": {"value": next(walls[side])}, "test_auc": {"value": next(aucs[side])}}
        return {"correct": True, "attempted": next(attempted[side]), "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload", "w", "--pairs", "4"]
    bench_pairs.main(argv)
    entry = json.loads(capsys.readouterr().out)

    assert order == ["parent", "change", "change", "parent", "parent", "change", "change", "parent"]
    assert entry["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert entry["all_correct"] and entry["failed"] == 0
    # each side's runs in run order, so peak RSS can be read against its repetitions
    assert entry["attempted"] == {"parent": [88, 88, 92, 88], "change": [104, 100, 96, 104]}
    wall = entry["metrics"]["wall_s"]
    assert wall["change_wins"] == "3/4" and entry["metrics"]["test_auc"]["change_wins"] == "1/4"
    assert wall["parent"] == {"median": 2.0, "q1": 1.75, "q3": 2.0, "runs": [2.0, 2.0, 1.0, 2.0]}
    assert wall["change"]["median"] == 1.7 and wall["median_change_ratio"] == -0.15
    assert wall["parent_spread"] == 0.25 and not wall["gain_rule_holds"]


def run_fake_pairs(tmp_path, monkeypatch, capsys, runs: dict) -> dict:
    """The printed entry for pairs whose ``wall_s`` values per side are ``runs``."""
    bench_pairs = importlib.import_module("scripts.bench_pairs")
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    declared = {"end_to_end": [{"name": "wall_s", "better": "lower"}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(declared))
    values = {side: iter(runs[side]) for side in runs}

    def fake_run(checkout, workload, seed, seconds):
        return {"correct": True, "attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": next(values[checkout.name])}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload", "w"]
    bench_pairs.main(argv + ["--pairs", str(len(runs["parent"]))])
    return json.loads(capsys.readouterr().out)["metrics"]["wall_s"]


def test_gain_rule_holds_for_nine_wins_and_a_gap_beyond_the_spread(tmp_path, monkeypatch, capsys):
    # parent quartiles 1.0 and 1.1; the change is faster in 9 of 10 pairs, median 0.8 against 1.05
    parent = [1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.05, 1.05]
    change = [0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.2]
    wall = run_fake_pairs(tmp_path, monkeypatch, capsys, {"parent": parent, "change": change})
    assert wall["change_wins"] == "9/10" and wall["parent_spread"] == 0.1
    assert wall["gain_rule_holds"]


def test_gain_rule_fails_when_the_gap_is_inside_the_spread(tmp_path, monkeypatch, capsys):
    # faster in 10 of 10 pairs, but the medians differ by 0.05 against a spread of 0.1
    parent = [1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.05, 1.05]
    change = [p - 0.05 for p in parent]
    wall = run_fake_pairs(tmp_path, monkeypatch, capsys, {"parent": parent, "change": change})
    assert wall["change_wins"] == "10/10" and wall["parent_spread"] == 0.1
    assert not wall["gain_rule_holds"]
