"""The three benchmark workloads: desk, atlas and population.

Each workload has a ``setup`` that turns the workload seed into inputs in
pipeline form and a ``run`` that makes the timed top-level calls into ccgl's
public functions. Calls go through module attributes at call time, so the
tracer's wrappers see them. ``run`` returns an Outcome holding the bytes the
traced run must reproduce, the workload's own metrics and the results of its
output checks.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ccgl import cohort, encoder, metrics, pipeline, population
from ccgl.config import TrainSettings, default_config, desk_config
from tracer import OPTIONAL, PUBLIC

# desk is the acceptance fixture: the pipeline at seed 0. Its test AUC is
# 0.62 to 1.0 across seeds 1-10 and its run time moves by about 15% with
# the seed, so it is pinned rather than drawn from the workload seed.
DESK_SEED = 0
ATLAS_PATIENTS = 40
ATLAS_ROIS = 116  # AAL atlas
ATLAS_TIMEPOINTS = 400
POP_PATIENTS = 1000
POP_DIM = 16
POP_EPOCHS = 10
POP_CLASS_SHIFT = 0.35
UNIT_TOL = 1e-9

DESK_ARTIFACTS = (
    "cohort.json",
    "series.npz",
    "effective_config.json",
    "cgl_params.json",
    "cgl_history.csv",
    "dgc_params.json",
    "dgc_history.csv",
    "predictions.csv",
    "metrics_run.json",
    "attraction.csv",
    "population.dot",
    "population.graphml",
)
# artifacts whose bytes do not depend on the output directory
DESK_COMPARED = tuple(a for a in DESK_ARTIFACTS if a not in ("series.npz", "effective_config.json"))
ALL_TRACED = tuple(f"{layer}.{name}" for layer, names in PUBLIC.items() for name in names) + tuple(
    f"{layer}.{name}" for layer, name in OPTIONAL
)
# desk runs stage_data in its set-up and the other four stages in its body
BODY_STAGES = ("stage_train_cgl", "stage_train_dgc", "stage_evaluate", "stage_export")


class Calls:
    """Top-level calls attempted and failed; a failed output check counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise


@dataclass
class Outcome:
    outputs: dict  # name -> bytes, compared between runs
    extras: dict  # workload metric name -> (value, unit)
    problems: list = field(default_factory=list)


def _snapshot_inputs(spec, seed: int, ratios, out: Path):
    """Synthesis, split and snapshot: the cohort in the form the stages read."""
    out.mkdir(parents=True, exist_ok=True)
    made = cohort.split_cohort(cohort.synth_cohort(spec, seed), ratios, seed)
    pipeline.save_snapshot(made, out)
    return pipeline.load_snapshot(out)


def _check(outcome: Outcome, calls: Calls, ok: bool, message: str) -> None:
    if not ok:
        outcome.problems.append(message)
        calls.failed += 1


class Desk:
    """The pipeline for desk_config() at seed 0; every traced function fires."""

    name = "desk"
    expected = ALL_TRACED

    def setup(self, seed: int, work: Path):
        """stage_data: synthesis, split and snapshot, which the body starts from."""
        cfg = desk_config().with_seed(DESK_SEED).with_out_dir(work)
        pipeline.stage_data(cfg, DESK_SEED)
        return pipeline.seed_dir(cfg, DESK_SEED)

    def run(self, snapshot: Path, out: Path, calls: Calls) -> Outcome:
        cfg = desk_config().with_seed(DESK_SEED).with_out_dir(out)
        seed = cfg.seeds[0]
        shutil.copytree(snapshot, pipeline.seed_dir(cfg, seed))
        times = {}
        for stage in BODY_STAGES:
            t0 = time.perf_counter()
            calls(getattr(pipeline, stage), cfg, seed)
            times[stage] = time.perf_counter() - t0
        run_dir = pipeline.seed_dir(cfg, seed)
        report = json.loads((run_dir / "metrics_run.json").read_text())
        outcome = Outcome(
            outputs={name: (run_dir / name).read_bytes() for name in DESK_COMPARED if (run_dir / name).exists()},
            extras={
                "train_cgl_s": (times["stage_train_cgl"], "s"),
                "train_dgc_s": (times["stage_train_dgc"], "s"),
                "test_auc": (report["auc"], "auc"),
                "knn_baseline_auc": (report["knn_baseline_auc"], "auc"),
            },
        )
        missing = [name for name in DESK_ARTIFACTS if not (run_dir / name).exists()]
        _check(outcome, calls, not missing, f"missing seed artifacts: {missing}")
        _check(outcome, calls, report["auc"] >= 0.90, f"test AUC {report['auc']:.4f} < 0.90")
        _check(
            outcome,
            calls,
            report["auc"] > report["knn_baseline_auc"],
            f"test AUC {report['auc']:.4f} does not beat the KNN baseline {report['knn_baseline_auc']:.4f}",
        )
        return outcome


class Atlas:
    """One embed_cohort call over an AAL-sized cohort with the reference encoder."""

    name = "atlas"
    expected = (
        "cohort.synth_cohort",
        "cohort.split_cohort",
        "encoder.embed_cohort",
        "encoder.prepare_views",
        "connectivity.build_fc_graph",
        "connectivity.pearson_matrix",
        "connectivity.partial_corr_matrix",
        "spectral.normalized_laplacian",
        "spectral.induced_laplacian",
        "spectral._power_iteration",
    )

    def setup(self, seed: int, work: Path):
        spec = cohort.SynthSpec(n_patients=ATLAS_PATIENTS, n_rois=ATLAS_ROIS, n_timepoints=ATLAS_TIMEPOINTS)
        cfg = dataclasses.replace(default_config(), synth=spec, seeds=(seed,))
        made = _snapshot_inputs(spec, seed, cfg.split_ratios, work)
        params = encoder.init_encoder_params(ATLAS_ROIS + cohort.PCD_SIZE, cfg.encoder, seed)
        return made, params, cfg

    def run(self, inputs, out: Path, calls: Calls) -> Outcome:
        made, params, cfg = inputs
        t0 = time.perf_counter()
        embeddings = calls(encoder.embed_cohort, made, params, cfg)
        elapsed = time.perf_counter() - t0
        n_views = sum(len(views) for views in embeddings)
        outcome = Outcome(
            outputs={"embeddings": np.asarray(embeddings).tobytes()},
            extras={"views_per_s": (n_views / elapsed, "views/s")},
        )
        _check(outcome, calls, len(embeddings) == len(made.patients), "one entry per patient expected")
        for pid, views in zip((p.id for p in made.patients), embeddings):
            arr = np.asarray(views)
            ok = (
                arr.shape == (2, cfg.encoder.embed_dim)
                and np.all(np.isfinite(arr))
                and np.all(np.abs(np.linalg.norm(arr, axis=1) - 1.0) <= UNIT_TOL)
            )
            _check(outcome, calls, ok, f"patient {pid}: expected two finite unit-norm embeddings")
        return outcome


_DOT_NODE = re.compile(r'^  n(\d+) \[id="[^"]*", label=([01]), split="(train|val|test)"\];$')
_DOT_EDGE = re.compile(r"^  n(\d+) -> n(\d+) \[distance=([^\]]+)\];$")


def _dot_counts(text: str):
    """(nodes, edges) of a DOT export, or None when a line does not parse."""
    lines = text.splitlines()
    if not lines or lines[0] != "digraph population {" or lines[-1] != "}":
        return None
    nodes = edges = 0
    for line in lines[1:-1]:
        if _DOT_NODE.match(line):
            nodes += 1
        elif (m := _DOT_EDGE.match(line)) and np.isfinite(float(m.group(3))):
            edges += 1
        else:
            return None
    return nodes, edges


def _graphml_counts(text: str):
    try:
        root = ET.fromstring(text)
    except ET.ParseError:
        return None
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    graph = root.find(f"{ns}graph")
    if graph is None:
        return None
    return len(graph.findall(f"{ns}node")), len(graph.findall(f"{ns}edge"))


class Population:
    """Dynamic edge-conv classification of a 1000-patient population graph."""

    name = "population"
    expected = (
        "population.train_dgc",
        "population.dgc_forward",
        "population.knn_edges",
        "autodiff.backward",
        "autodiff.adam_step",
        "metrics.auc",
        "metrics.confusion_metrics",
        "metrics.knn_baseline",
        "metrics.export_population_graph",
    )

    def setup(self, seed: int, work: Path):
        """Seeded two-class unit-norm features with a 7:1:2 split.

        The features come from the benchmark's own generator; the one ccgl
        call is the PopulationGraph constructor, timed so that work moved
        into construction shows in setup_s.
        """
        rng = np.random.default_rng(seed)
        labels = np.arange(POP_PATIENTS) % 2
        rng.shuffle(labels)
        means = rng.standard_normal((2, POP_DIM))
        x = POP_CLASS_SHIFT * means[labels] + rng.standard_normal((POP_PATIENTS, POP_DIM))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        order = rng.permutation(POP_PATIENTS)
        n_train, n_val = (POP_PATIENTS * 7) // 10, POP_PATIENTS // 10
        role = np.empty(POP_PATIENTS, dtype=object)
        role[order[:n_train]] = "train"
        role[order[n_train : n_train + n_val]] = "val"
        role[order[n_train + n_val :]] = "test"
        pop = population.PopulationGraph(
            node_features=x,
            labels=labels,
            train_mask=role == "train",
            val_mask=role == "val",
            test_mask=role == "test",
        )
        cfg = dataclasses.replace(default_config(), train=TrainSettings(dgc_epochs=POP_EPOCHS), seeds=(seed,))
        return pop, tuple(role), cfg

    def run(self, inputs, out: Path, calls: Calls) -> Outcome:
        pop, roles, cfg = inputs
        out.mkdir(parents=True, exist_ok=True)
        seed = cfg.seeds[0]
        t0 = time.perf_counter()
        params, _ = calls(population.train_dgc, pop, cfg, seed)
        train_s = time.perf_counter() - t0
        probs = calls(population.dgc_forward, pop, params, settings=cfg.dgc)
        test, train = pop.test_mask, pop.train_mask
        y = pop.labels
        test_auc = calls(metrics.auc, probs[test, 1], y[test])
        report = calls(metrics.confusion_metrics, probs.argmax(axis=1)[test], y[test])
        x = pop.node_features
        base_scores, _ = calls(metrics.knn_baseline, x[train], y[train], x[test], cfg.dgc.k)
        base_auc = calls(metrics.auc, base_scores, y[test])
        texts = {}
        for fmt in ("dot", "graphml"):
            path = calls(
                metrics.export_population_graph, x, y, out / f"population.{fmt}", fmt=fmt, ids=pop.ids, splits=roles
            )
            texts[fmt] = path.read_text()

        outcome = Outcome(
            outputs={"probs": probs.tobytes(), **{fmt: text.encode() for fmt, text in texts.items()}},
            extras={
                "train_dgc_s": (train_s, "s"),
                "test_auc": (test_auc, "auc"),
                "knn_baseline_auc": (base_auc, "auc"),
            },
        )
        p = pop.n_patients
        _check(
            outcome,
            calls,
            probs.shape == (p, 2) and np.all(np.isfinite(probs)) and np.all(np.abs(probs.sum(axis=1) - 1.0) <= UNIT_TOL),
            "class probabilities must be finite and sum to 1",
        )
        _check(outcome, calls, report.total == int(test.sum()), "confusion counts must cover the test split")
        _check(outcome, calls, _dot_counts(texts["dot"]) == (p, 2 * p), "DOT export does not parse")
        _check(outcome, calls, _graphml_counts(texts["graphml"]) == (p, 2 * p), "GraphML export does not parse")
        return outcome


WORKLOADS = {w.name: w for w in (Desk(), Atlas(), Population())}
