"""Hash the outputs of the atlas and population benchmark workloads at one seed.

    python3 scripts/workload_hashes.py --seed 97
    python3 scripts/workload_hashes.py --seed 97 --against before.json

Runs each workload's set-up and body once, through ``benchmark/workloads.py``
imported read-only, with ccgl taken from this checkout's ``src/`` and BLAS
pinned to one thread as the benchmark does. It prints one JSON object: the
seed and the sha256 of the atlas set-up ``cohort`` (its stacked series
bytes), of the atlas ``views`` (each prepared view's ``features``,
``lap.adjacency`` and ``lap.values`` bytes in cohort order, from
``encoder.prepare_views`` on the set-up cohort), of the atlas
``embeddings`` and of the population ``probs``, ``dot`` and ``graphml``
outputs. The cohort and views hashes tell whether a divergence starts in
the synthetic generator, in connectivity estimation or in the encoder.

With ``--against PREVIOUS.json`` (an object this script printed earlier), it
also names on stderr every output whose hash differs from that run's, and
exits 1 if there is any.
"""

from __future__ import annotations

import os

os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from ccgl.encoder import prepare_views  # noqa: E402
from desk_stages import compare  # noqa: E402
from workloads import WORKLOADS, Calls  # noqa: E402

HASHED = ("atlas", "population")


def views_hash(made, cfg) -> str:
    """sha256 of every prepared view's features, adjacency and scaled Laplacian, in cohort order."""
    digest = hashlib.sha256()
    for views in prepare_views(made, cfg):
        for view in views:
            for array in (view.features, view.lap.adjacency, view.lap.values):
                digest.update(array.tobytes())
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--against", help="JSON printed by an earlier run to compare sha256 hashes with")
    args = parser.parse_args()
    previous = json.loads(Path(args.against).read_text()) if args.against else None
    if previous is not None and previous["seed"] != args.seed:
        parser.error(f"--against holds seed {previous['seed']}, not {args.seed}")

    hashes = {}
    with tempfile.TemporaryDirectory() as work:
        for name in HASHED:
            workload = WORKLOADS[name]
            inputs = workload.setup(args.seed, Path(work) / name / "setup")
            if name == "atlas":
                series = np.stack([p.series.values for p in inputs[0].patients])
                hashes["cohort"] = hashlib.sha256(series.tobytes()).hexdigest()
                made, _, cfg = inputs
                hashes["views"] = views_hash(made, cfg)
            outcome = workload.run(inputs, Path(work) / name / "run", Calls())
            if outcome.problems:
                sys.exit(f"{name}: output checks failed: {outcome.problems}")
            hashes.update({key: hashlib.sha256(data).hexdigest() for key, data in outcome.outputs.items()})
    print(json.dumps({"seed": args.seed, "sha256": hashes}, sort_keys=True))
    if previous is not None:
        sys.exit(compare(previous["sha256"], hashes, args.against))


if __name__ == "__main__":
    main()
