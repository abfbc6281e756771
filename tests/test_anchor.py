"""Golden anchor: seed-0 numbers of a shortened desk run, pinned at abs 1e-12.

The five stages run on ``desk_config()`` with a few epochs per stage, which
passes through every numeric path (FC graphs, Laplacians and their exact
largest eigenvalues, the encoder and its contrastive loss, edge convolution,
AUC) in a few seconds. A change that moves these numbers on purpose updates
them here and says why in CHANGES.md; a refactor must leave them exactly as
they are.
"""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccgl import pipeline
from ccgl.config import desk_config

REPO = Path(__file__).resolve().parents[1]

SEED = 0
TOL = 1e-12

ANCHOR_TEST_AUC = 0.7083333333333334
ANCHOR_LAST_CGL_LOSS = 4.997557179716733
ANCHOR_LAST_DGC_LOSS = 0.1627295535563867
ANCHOR_EMBEDDING_MEANS = (
    -0.23780940625934918,
    -0.010566353235500607,
    0.412439872547243,
    -0.4559205483165435,
    0.23881750650125902,
    0.030129237036822187,
    0.09651084045027818,
    0.2324324048498605,
    -0.031071371568625536,
    0.1066635862408349,
    0.11571620140009749,
    0.06969318994060106,
    0.06935514621632885,
    -0.2706477645005619,
    0.30826368173101026,
    0.2639683446680852,
)


def anchor_config(out_dir):
    cfg = desk_config().with_seed(SEED).with_out_dir(out_dir)
    return dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, cgl_epochs=3, dgc_epochs=10))


def run_anchor(out_dir) -> dict:
    """The anchored values of one shortened desk run written under out_dir."""
    cfg = anchor_config(out_dir)
    for stage in ("stage_data", "stage_train_cgl", "stage_train_dgc", "stage_evaluate", "stage_export"):
        getattr(pipeline, stage)(cfg, SEED)
    run_dir = pipeline.seed_dir(cfg, SEED)

    def last_loss(name):
        with open(run_dir / name) as fh:
            return float(list(csv.DictReader(fh))[-1]["loss"])

    with np.load(run_dir / "embeddings.npz") as archive:
        means = archive["embeddings"].mean(axis=(0, 1))
    return {
        "test_auc": json.loads((run_dir / "metrics_run.json").read_text())["auc"],
        "last_cgl_loss": last_loss("cgl_history.csv"),
        "last_dgc_loss": last_loss("dgc_history.csv"),
        "embedding_means": means,
    }


@pytest.fixture(scope="module")
def anchor(tmp_path_factory):
    return run_anchor(tmp_path_factory.mktemp("anchor"))


def test_test_auc(anchor):
    assert anchor["test_auc"] == pytest.approx(ANCHOR_TEST_AUC, abs=TOL)


def test_last_history_losses(anchor):
    assert anchor["last_cgl_loss"] == pytest.approx(ANCHOR_LAST_CGL_LOSS, abs=TOL)
    assert anchor["last_dgc_loss"] == pytest.approx(ANCHOR_LAST_DGC_LOSS, abs=TOL)


def test_embedding_means(anchor):
    np.testing.assert_allclose(anchor["embedding_means"], ANCHOR_EMBEDDING_MEANS, rtol=0, atol=TOL)


def test_metrics_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The anchor config gives the same metrics.json bytes with one and with two BLAS threads."""
    script = "import sys; from tests.test_anchor import anchor_config; from ccgl.pipeline import run_pipeline; run_pipeline(anchor_config(sys.argv[1]))"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), str(REPO), env.get("PYTHONPATH")]))
        out = tmp_path / f"threads_{threads}"
        subprocess.run([sys.executable, "-c", script, str(out)], cwd=REPO, env=env, check=True, timeout=600)
        outputs.append((out / "metrics.json").read_bytes())
    assert outputs[0] == outputs[1]
