"""Run the five pipeline stages of desk_config() at one seed and report them.

    python3 scripts/desk_stages.py --seed 97 --out runs/desk-stages
    python3 scripts/desk_stages.py --seed 97 --out runs/desk-stages --against before.json

The desk benchmark workload always runs seed 0; this script runs any seed
directly, stage by stage, with ccgl taken from this checkout's ``src/`` and
BLAS pinned to one thread as the benchmark does. It prints one JSON object:
wall time and minor page faults per stage (``stage_minflt``, from
``getrusage`` deltas of this process; steadier than wall time on a shared
host), the run's test AUC and KNN-baseline AUC, and the sha256 of every
artifact in the seed directory (``effective_config.json`` and ``series.npz``
hold the output path, so compare those two only between runs with the same
``--out``).

With ``--against PREVIOUS.json`` (an object this script printed earlier), it
also names on stderr every artifact whose hash differs from that run's, or
that only one run has, and exits 1 if there is any.
"""

from __future__ import annotations

import os

os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ccgl import pipeline  # noqa: E402
from ccgl.config import desk_config  # noqa: E402

STAGES = ("stage_data", "stage_train_cgl", "stage_train_dgc", "stage_evaluate", "stage_export")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--against", help="JSON printed by an earlier run to compare sha256 hashes with")
    args = parser.parse_args()
    previous = json.loads(Path(args.against).read_text()) if args.against else None
    if previous is not None and previous["seed"] != args.seed:
        parser.error(f"--against holds seed {previous['seed']}, not {args.seed}")

    cfg = desk_config().with_seed(args.seed).with_out_dir(args.out)
    times, faults = run_stages(cfg, args.seed)
    run_dir = pipeline.seed_dir(cfg, args.seed)
    report = json.loads((run_dir / "metrics_run.json").read_text())
    hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.iterdir())
        if path.is_file()
    }
    print(
        json.dumps(
            {
                "seed": args.seed,
                "stage_s": times,
                "stage_minflt": faults,
                "total_s": round(sum(times.values()), 4),
                "test_auc": report["auc"],
                "knn_baseline_auc": report["knn_baseline_auc"],
                "sha256": hashes,
            },
            sort_keys=True,
        )
    )
    if previous is not None:
        sys.exit(compare(previous["sha256"], hashes, args.against))


def run_stages(cfg, seed: int):
    """Run the five stages in order; return each one's wall seconds and minor page faults."""
    times, faults = {}, {}
    for stage in STAGES:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        getattr(pipeline, stage)(cfg, seed)
        times[stage] = round(time.perf_counter() - t0, 4)
        faults[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return times, faults


def compare(before: dict, after: dict, label: str) -> int:
    """Name on stderr each artifact whose hash differs between two runs; 1 if any does."""
    names = sorted(before.keys() | after.keys())
    differ = [name for name in names if before.get(name) != after.get(name)]
    for name in differ:
        where = "differs" if name in before and name in after else "only in " + ("this run" if name in after else label)
        print(f"{name}: {where}", file=sys.stderr)
    print(f"{len(differ)} of {len(names)} artifacts differ from {label}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    main()
