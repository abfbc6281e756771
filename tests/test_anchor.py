"""Golden anchor: seed-0 numbers of a shortened desk run, pinned at abs 1e-12.

The five stages run on ``desk_config()`` with a few epochs per stage, which
passes through every numeric path (FC graphs, Laplacians and power
iteration, the encoder and its contrastive loss, edge convolution, AUC) in a
few seconds. A change that moves these numbers on purpose updates them here
and says why in CHANGES.md; a refactor must leave them exactly as they are.
"""

import csv
import dataclasses
import json

import numpy as np
import pytest

from ccgl import pipeline
from ccgl.config import desk_config

SEED = 0
TOL = 1e-12

ANCHOR_TEST_AUC = 0.7013888888888888
ANCHOR_LAST_CGL_LOSS = 4.99755715003573
ANCHOR_LAST_DGC_LOSS = 0.16515197117996788
ANCHOR_EMBEDDING_MEANS = (
    -0.23780940712530993,
    -0.010566350524120175,
    0.41243987328535603,
    -0.4559205476681146,
    0.2388175050863574,
    0.030129240334163216,
    0.09651083967818494,
    0.2324324068893859,
    -0.031071371667678035,
    0.10666358802823851,
    0.11571619969993302,
    0.06969319079272283,
    0.06935514366635767,
    -0.2706477659518072,
    0.30826367992760273,
    0.2639683460359371,
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
