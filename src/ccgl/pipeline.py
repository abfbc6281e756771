"""Stage orchestration: data, contrastive training, classification, evaluation, export.

Every stage reads its inputs from and writes its artifacts under
``<out_dir>/seed_<seed>/``, so stages can be re-run independently and the
whole chain is reproducible from the archived effective config.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from .autodiff import atomic_write, load_checkpoint, save_checkpoint, write_json
from .cohort import Cohort, load_cohort, load_snapshot, read_npz, save_snapshot, split_cohort, standardized_pcd, synth_cohort
from .config import RunConfig, save_config
from .connectivity import pearson_matrix
from .encoder import embed_cohort, prepare_views, similarity_matrix, train_cgl
from .metrics import (
    attraction_stats,
    auc,
    confusion_metrics,
    export_population_graph,
    knn_baseline,
    write_attraction_csv,
)
from .population import dgc_forward, population_from_embeddings, train_dgc


def seed_dir(cfg: RunConfig, seed: int) -> Path:
    return Path(cfg.out_dir) / f"seed_{seed}"


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"{hint} not found: {path}")
    return path


def stage_data(cfg: RunConfig, seed: int) -> Cohort:
    """Synthesize or ingest the cohort, assign splits, archive the snapshot."""
    out = seed_dir(cfg, seed)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.synth is not None:
        cohort = synth_cohort(cfg.synth, seed)
    else:
        cohort = load_cohort(cfg.manifest, cfg.min_timepoints)
    cohort = split_cohort(cohort, cfg.split_ratios, seed)
    save_snapshot(cohort, out)
    save_config(cfg.with_seed(seed), out / "effective_config.json")
    return cohort


def _write_history_csv(history, path: Path, columns) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in history:
            writer.writerow([row[c] if isinstance(row[c], int) else repr(float(row[c])) for c in columns])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stage_train_cgl(cfg: RunConfig, seed: int):
    """Train the encoder, then embed the cohort once for every later stage.

    Both steps share one pass of ``prepare_views``, so each view graph and
    its Laplacian are built once per seed.

    ``embeddings.npz`` holds the (N, V, d) view embeddings and the sha256 of
    the ``cgl_params.json`` they came from; it is renamed into place only
    once complete.
    """
    out = seed_dir(cfg, seed)
    cohort = load_snapshot(out)
    prepared = prepare_views(cohort, cfg)
    params, history = train_cgl(cohort, cfg, seed, prepared=prepared)
    save_checkpoint(params, out / "cgl_params.json")
    _write_history_csv(history, out / "cgl_history.csv", ["epoch", "loss", "mean_homo", "mean_heter"])
    embeddings = np.asarray(embed_cohort(cohort, params, cfg, prepared=prepared), dtype=np.float64)
    with atomic_write(out / "embeddings.npz", "wb") as fh:
        np.savez(fh, embeddings=embeddings, cgl_params_sha256=_sha256(out / "cgl_params.json"))
    return params, history


def _load_population(out: Path):
    """(cohort, embeddings, population graph); train-cgl's (N, V, d) embeddings must match its checkpoint and the cohort."""
    cohort = load_snapshot(out)
    digest = _sha256(_require(out / "cgl_params.json", "CGL checkpoint"))
    path = out / "embeddings.npz"
    arrays = read_npz(path, "cohort embeddings")
    if not {"embeddings", "cgl_params_sha256"} <= arrays.keys():
        raise ValueError(f"{path} lacks the embeddings or their checkpoint digest; re-run train-cgl")
    embeddings, recorded = arrays["embeddings"], str(arrays["cgl_params_sha256"])
    if recorded != digest:
        raise ValueError(f"{path} was not made from the current cgl_params.json; re-run train-cgl")
    if embeddings.shape[0] != len(cohort.patients):
        raise ValueError(
            f"{path} holds {embeddings.shape[0]} patients but the cohort snapshot has "
            f"{len(cohort.patients)}; re-run train-cgl"
        )
    return cohort, embeddings, population_from_embeddings(cohort, embeddings)


def stage_train_dgc(cfg: RunConfig, seed: int):
    out = seed_dir(cfg, seed)
    _, _, pop = _load_population(out)
    params, history = train_dgc(pop, cfg, seed)
    save_checkpoint(params, out / "dgc_params.json")
    _write_history_csv(history, out / "dgc_history.csv", ["epoch", "loss", "val_metric"])
    return params, history


def baseline_fc_features(cohort: Cohort) -> np.ndarray:
    """Raw per-patient features: vectorised upper-triangle Pearson plus z-scored pcd."""
    pcd = standardized_pcd(cohort)
    rows = []
    iu = np.triu_indices(cohort.roi_count, k=1)
    for i, p in enumerate(cohort.patients):
        corr = pearson_matrix(p.series).values
        rows.append(np.concatenate([corr[iu], pcd[i]]))
    return np.stack(rows)


def stage_evaluate(cfg: RunConfig, seed: int) -> dict:
    """Score the trained pipeline on the test split and archive all reports."""
    out = seed_dir(cfg, seed)
    cohort, embeddings, pop = _load_population(out)
    dgc_params = load_checkpoint(_require(out / "dgc_params.json", "DGC checkpoint"))
    probs = dgc_forward(pop, dgc_params, settings=cfg.dgc)
    predicted = probs.argmax(axis=1)

    test = pop.test_mask
    report = confusion_metrics(predicted[test], pop.labels[test])
    run = {
        "seed": seed,
        "auc": auc(probs[test, 1], pop.labels[test]),
        "acc": report.accuracy,
        "sen": report.sensitivity,
        "spec": report.specificity,
        "counts": {"tp": report.tp, "fp": report.fp, "tn": report.tn, "fn": report.fn},
    }

    # raw-FC nearest-neighbour baseline on the identical splits
    features = baseline_fc_features(cohort)
    train_mask = pop.train_mask
    k = min(cfg.dgc.k, int(train_mask.sum()))
    base_scores, _ = knn_baseline(features[train_mask], pop.labels[train_mask], features[test], k)
    run["knn_baseline_auc"] = auc(base_scores, pop.labels[test])

    with atomic_write(out / "predictions.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "split", "label", "prob_class0", "prob_class1", "predicted"])
        for i, p in enumerate(cohort.patients):
            writer.writerow(
                [p.id, p.split, p.label, repr(float(probs[i, 0])), repr(float(probs[i, 1])), int(predicted[i])]
            )

    summary = attraction_stats(similarity_matrix(embeddings[:, :2].reshape(-1, embeddings.shape[2])))
    write_attraction_csv(summary, out / "attraction.csv", out / "attraction_hist.csv")

    write_json(run, out / "metrics_run.json")
    return run


def stage_export(cfg: RunConfig, seed: int):
    out = seed_dir(cfg, seed)
    cohort, _, pop = _load_population(out)
    paths = []
    for fmt in ("dot", "graphml"):
        paths.append(
            export_population_graph(
                pop.node_features,
                pop.labels,
                out / f"population.{fmt}",
                fmt=fmt,
                ids=pop.ids,
                splits=[p.split for p in cohort.patients],
            )
        )
    return paths


def _aggregate(runs: list) -> dict:
    metrics = ("auc", "acc", "sen", "spec", "knn_baseline_auc")
    mean, std = {}, {}
    for key in metrics:
        values = [r[key] for r in runs if r.get(key) is not None]
        if values:
            mean[key] = float(np.mean(values))
            std[key] = float(np.std(values))
    return {"runs": runs, "mean": mean, "std": std, "n_runs": len(runs)}


def run_pipeline(cfg: RunConfig) -> dict:
    """All stages for every configured seed, plus the aggregated metrics report."""
    runs = []
    for seed in cfg.seeds:
        stage_data(cfg, seed)
        stage_train_cgl(cfg, seed)
        stage_train_dgc(cfg, seed)
        runs.append(stage_evaluate(cfg, seed))
        stage_export(cfg, seed)
    aggregated = _aggregate(runs)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(aggregated, out / "metrics.json")
    return aggregated
