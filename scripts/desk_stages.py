"""Run the five pipeline stages of desk_config() at one seed and report them.

    PYTHONPATH=src python3 scripts/desk_stages.py --seed 97 --out runs/desk-stages

The desk benchmark workload always runs seed 0; this script runs any seed
directly, stage by stage, with BLAS pinned to one thread as the benchmark
does. It prints one JSON object: wall time per stage, the run's test AUC and
KNN-baseline AUC, and the sha256 of every artifact in the seed directory
(``effective_config.json`` and ``series.npz`` hold the output path, so
compare those two only between runs with the same ``--out``).
"""

from __future__ import annotations

import os

os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

from ccgl import pipeline  # noqa: E402
from ccgl.config import desk_config  # noqa: E402

STAGES = ("stage_data", "stage_train_cgl", "stage_train_dgc", "stage_evaluate", "stage_export")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    args = parser.parse_args()

    cfg = desk_config().with_seed(args.seed).with_out_dir(args.out)
    times = {}
    for stage in STAGES:
        t0 = time.perf_counter()
        getattr(pipeline, stage)(cfg, args.seed)
        times[stage] = round(time.perf_counter() - t0, 4)
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
                "total_s": round(sum(times.values()), 4),
                "test_auc": report["auc"],
                "knn_baseline_auc": report["knn_baseline_auc"],
                "sha256": hashes,
            },
            sort_keys=True,
        )
    )


if __name__ == "__main__":
    main()
