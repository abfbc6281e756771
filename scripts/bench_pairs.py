"""Time two checkouts against each other with interleaved runs of benchmark/run.py.

    python3 scripts/bench_pairs.py --parent ../before --change . --workload population --seed 0 --pairs 10 --seconds 25

Each pair runs ``benchmark/run.py --workload W --seed S --seconds S --trace 0``
once in each checkout, from that checkout's root, one run at a time; the side
that runs first alternates from pair to pair, starting with the parent. It
prints one JSON object in the layout of a ``results`` entry of the committed
``BENCH_<n>.json`` files: per end-to-end metric of the change's
``BENCHMARK.json``, each side's runs, median and quartiles
(``statistics.quantiles(method="inclusive")``), the number of pairs in which
the change was better, the relative change of the median, the parent's
quartile spread (q3 - q1) and whether the gain rule holds: the change is
better in at least 9 of 10 pairs and its median beats the parent's by more
than that spread. It also records each run's ``attempted`` (top-level calls
made in the run's closed loop; a desk repetition is 4 calls), since a
faster body fits more repetitions into ``--seconds`` and the benchmark's
peak RSS grows with them. Progress goes to stderr. A run that prints no
result object stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object printed on the last line of one benchmark run in ``checkout``."""
    command = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{checkout}: benchmark run printed no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")


def significant(x: float) -> float:
    """x to six significant digits, which keeps millisecond set-up times readable."""
    return float(f"{x:.6g}")


def summary(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {
        "median": significant(statistics.median(runs)),
        "q1": significant(q1),
        "q3": significant(q3),
        "runs": [significant(r) for r in runs],
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit measured against")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    first_in_pair, results = [], {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        first_in_pair.append(order[0])
        for side in order:
            result = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            results[side].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"pair {pair + 1}/{args.pairs} {side}: correct {result['correct']}, wall_s {wall}", file=sys.stderr)

    runs = [result for side in SIDES for result in results[side]]
    metrics = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        parent, change = summary(values["parent"]), summary(values["change"])
        spread = significant(parent["q3"] - parent["q1"])
        gain = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
        metrics[name] = {
            "parent": parent,
            "change": change,
            "change_wins": f"{wins}/{args.pairs}",
            "median_change_ratio": round(change["median"] / parent["median"] - 1.0, 4),
            "parent_spread": spread,
            "gain_rule_holds": 10 * wins >= 9 * args.pairs and gain > spread,
        }
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "pairs": args.pairs,
                "first_in_pair": first_in_pair,
                "all_correct": all(r["correct"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
                "metrics": metrics,
            },
            indent=1,
        )
    )


if __name__ == "__main__":
    main()
