"""Evaluation metrics, attraction summaries, graph exports, and the KNN baseline."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .autodiff import atomic_write, write_csv
from .encoder import AttractionMatrix, pair_split
from .connectivity import k_nearest
from .population import knn_edges, require_binary, require_finite_rows, squared_distances

HIST_BINS = 50


def auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative, ties count half.

    Computed from midranks, which is the Mann-Whitney statistic divided by
    the number of (positive, negative) pairs.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and labels must be equal-length 1-D sequences")
    if not np.isfinite(s).all():
        raise ValueError(f"score {int(np.flatnonzero(~np.isfinite(s))[0])} is not finite")
    require_binary(y, "label")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    # each run of equal sorted scores spans positions first..last (0-based)
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], s.size] - 1
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat((first + last + 2) / 2.0, last - first + 1)  # 1-based midrank
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class ConfusionReport:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self):
        return (self.tp + self.tn) / self.total if self.total else None

    @property
    def sensitivity(self):
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else None

    @property
    def specificity(self):
        return self.tn / (self.tn + self.fp) if (self.tn + self.fp) else None


def confusion_metrics(predictions, labels) -> ConfusionReport:
    """Counts and rates with the disorder class as positive.

    Sensitivity is recall of the positive class, specificity recall of the
    other; an empty denominator leaves the rate as None.
    """
    preds = np.asarray(predictions)
    y = np.asarray(labels)
    if preds.shape != y.shape or preds.size == 0:
        raise ValueError("predictions and labels must be equal-length and non-empty")
    require_binary(preds, "prediction")
    require_binary(y, "label")
    pos = y == 1
    pred_pos = preds == 1
    return ConfusionReport(
        tp=int((pred_pos & pos).sum()),
        fp=int((pred_pos & ~pos).sum()),
        tn=int((~pred_pos & ~pos).sum()),
        fn=int((~pred_pos & pos).sum()),
    )


def _describe(values: np.ndarray):
    if values.size == 0:
        return None
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    hist, _ = np.histogram(values, bins=HIST_BINS, range=(-1.0, 1.0))
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "std": float(values.std()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "histogram": hist.astype(int).tolist(),
    }


@dataclass(frozen=True)
class AttractionSummary:
    homo: dict | None
    heter: dict | None
    homo_values: np.ndarray
    heter_values: np.ndarray


def attraction_stats(m: AttractionMatrix) -> AttractionSummary:
    """Split ordered off-diagonal attractions into same-patient and cross-patient sets."""
    homo, heter = pair_split(m.values)
    return AttractionSummary(
        homo=_describe(homo),
        heter=_describe(heter),
        homo_values=homo,
        heter_values=heter,
    )


def write_attraction_csv(summary: AttractionSummary, values_path, hist_path) -> None:
    """Raw (pair_type, value) rows plus a companion 50-bin histogram file."""
    pairs = (("homo", summary.homo_values), ("heter", summary.heter_values))
    # map(float) streams the rows: tolist() would hold every value at once, and csv writes np.float64 cells more slowly
    values = chain.from_iterable(zip(repeat(name), map(float, v)) for name, v in pairs)
    write_csv(values_path, ["pair_type", "value"], values)
    edges = np.linspace(-1.0, 1.0, HIST_BINS + 1).tolist()
    stats = (("homo", summary.homo), ("heter", summary.heter))
    bins = chain.from_iterable(zip(repeat(name), edges, edges[1:], s["histogram"]) for name, s in stats if s is not None)
    write_csv(hist_path, ["pair_type", "bin_left", "bin_right", "count"], bins)


def _two_nearest(features: np.ndarray):
    edges = knn_edges(features, 2)
    diffs = features[edges[:, 0]] - features[edges[:, 1]]
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    return edges, dists


def export_population_graph(
    features: np.ndarray,
    labels,
    out_path,
    fmt: str = "dot",
    ids=None,
    splits=None,
) -> Path:
    """Write the 2-nearest-neighbour population graph as DOT or GraphML.

    Every node carries its patient id, class label, and split; each of its
    two out-edges records the Euclidean distance.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ValueError(f"need >= 3 patients to export, got shape {x.shape}")
    n = x.shape[0]
    labels = [int(v) for v in labels]
    ids = [str(v) for v in ids] if ids is not None else [f"{i}" for i in range(n)]
    splits = [str(v) for v in splits] if splits is not None else ["unassigned"] * n
    if len(labels) != n or len(ids) != n or len(splits) != n:
        raise ValueError("labels, ids, and splits must match the feature rows")
    edges, dists = _two_nearest(x)

    out_path = Path(out_path)
    if fmt == "dot":
        text = _render_dot(ids, labels, splits, edges, dists)
    elif fmt == "graphml":
        text = _render_graphml(ids, labels, splits, edges, dists)
    else:
        raise ValueError(f"unknown export format {fmt!r} (expected 'dot' or 'graphml')")
    with atomic_write(out_path) as fh:
        fh.write(text)
    return out_path


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_dot(ids, labels, splits, edges, dists) -> str:
    lines = ["digraph population {"]
    for i, (pid, label, split) in enumerate(zip(ids, labels, splits)):
        lines.append(f"  n{i} [id={_dot_quote(pid)}, label={label}, split={_dot_quote(split)}];")
    for (src, dst), d in zip(edges, dists):
        lines.append(f"  n{src} -> n{dst} [distance={repr(float(d))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_graphml(ids, labels, splits, edges, dists) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="patient" attr.type="string"/>',
        '  <key id="d1" for="node" attr.name="label" attr.type="int"/>',
        '  <key id="d2" for="node" attr.name="split" attr.type="string"/>',
        '  <key id="d3" for="edge" attr.name="distance" attr.type="double"/>',
        '  <graph id="population" edgedefault="directed">',
    ]
    for i, (pid, label, split) in enumerate(zip(ids, labels, splits)):
        lines.append(f'    <node id="n{i}">')
        lines.append(f"      <data key=\"d0\">{escape(pid)}</data>")
        lines.append(f"      <data key=\"d1\">{label}</data>")
        lines.append(f"      <data key=\"d2\">{escape(split)}</data>")
        lines.append("    </node>")
    for e, ((src, dst), d) in enumerate(zip(edges, dists)):
        lines.append(f'    <edge id="e{e}" source="n{src}" target="n{dst}">')
        lines.append(f"      <data key=\"d3\">{repr(float(d))}</data>")
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def knn_baseline(train_features, train_labels, test_features, k: int):
    """Scores and predictions from the k nearest training points.

    The score is the fraction of neighbours labelled 1; majority vote
    predicts, with exact ties going to class 1. Distance ties pick the
    lower training index, as in ``knn_edges``.
    """
    x_train = np.asarray(train_features, dtype=np.float64)
    y_train = np.asarray(train_labels)
    x_test = np.asarray(test_features, dtype=np.float64)
    if x_train.ndim != 2 or x_train.shape[0] == 0:
        raise ValueError("empty training set")
    if y_train.shape != x_train.shape[:1]:
        raise ValueError(f"{y_train.size} training labels for {x_train.shape[0]} training patients")
    require_binary(y_train, "training label")
    if x_test.ndim != 2 or x_test.shape[1] != x_train.shape[1]:
        raise ValueError(f"test features of shape {x_test.shape} for {x_train.shape[1]} training feature columns")
    if not (1 <= k <= x_train.shape[0]):
        raise ValueError(f"k must be in [1, {x_train.shape[0]}], got {k}")
    require_finite_rows(x_train, "training patient")
    require_finite_rows(x_test, "test patient")
    scores = y_train[k_nearest(squared_distances(x_test, x_train), k)].mean(axis=1)
    predictions = (scores >= 0.5).astype(np.int64)
    return scores, predictions
