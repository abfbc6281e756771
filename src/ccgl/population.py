"""Population graph construction and transductive dynamic-edge classification.

One node per patient, features from the contrastive view embeddings.
Each edge-convolution layer rebuilds its K-nearest-neighbour edges on the
current features, so message passing follows whichever patients currently
sit close together; only training nodes contribute to the focal loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor, glorot
from .config import DgcSettings, RunConfig
from .connectivity import k_nearest


@dataclass
class PopulationGraph:
    node_features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    ids: tuple = ()

    def __post_init__(self):
        self.node_features = np.asarray(self.node_features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        for name in ("train_mask", "val_mask", "test_mask"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=bool))
        n = self.node_features.shape[0]
        if self.node_features.ndim != 2:
            raise ValueError("node features must be a P x d matrix")
        for name in ("labels", "train_mask", "val_mask", "test_mask"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have length {n}")
        require_binary(self.labels, "label of node")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        roles = self.train_mask.astype(np.int64) + self.val_mask + self.test_mask
        if (roles > 1).any():
            raise ValueError("split masks must be disjoint")
        if (roles == 0).any():
            raise ValueError("every node needs a split role")
        self.ids = tuple(self.ids) or tuple(str(i) for i in range(n))
        if len(self.ids) != n:
            raise ValueError(f"ids has {len(self.ids)} entries but there are {n} patients")

    @property
    def n_patients(self) -> int:
        return self.node_features.shape[0]


def patient_embedding(view_embeddings) -> np.ndarray:
    """Mean of a patient's view embeddings, renormalised to unit length."""
    if len(view_embeddings) == 0:
        raise ValueError("patient has no view embeddings")
    mean = np.mean(np.asarray(view_embeddings, dtype=np.float64), axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        raise ValueError("zero-norm aggregate")
    return mean / norm


def population_from_embeddings(cohort, per_patient_views) -> PopulationGraph:
    """Aggregate per-view embeddings into a population graph matching the cohort."""
    if len(per_patient_views) != len(cohort.patients):
        raise ValueError(f"{len(per_patient_views)} patient embeddings for a cohort of {len(cohort.patients)} patients")
    features = np.stack([patient_embedding(views) for views in per_patient_views])
    splits = [p.split for p in cohort.patients]
    if "unassigned" in splits:
        raise ValueError("cohort has unassigned patients; run split assignment first")
    return PopulationGraph(
        node_features=features,
        labels=cohort.labels(),
        train_mask=np.array([s == "train" for s in splits]),
        val_mask=np.array([s == "val" for s in splits]),
        test_mask=np.array([s == "test" for s in splits]),
        ids=tuple(p.id for p in cohort.patients),
    )


def require_binary(values: np.ndarray, what: str) -> None:
    """Raise naming the first entry of ``values`` that is neither 0 nor 1."""
    not_binary = np.flatnonzero((values != 0) & (values != 1))
    if not_binary.size:
        i = int(not_binary[0])
        raise ValueError(f"{what} {i} is {np.asarray(values[i]).item()!r}, expected 0 or 1")


def require_finite_rows(x: np.ndarray, what: str) -> None:
    """Raise naming the first row of ``x`` that holds a NaN or inf."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"{what} {int(bad[0])} has non-finite features")


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i|^2 + |b_j|^2 - 2 a_i.b_j for every row i of ``a`` and j of ``b``.

    Built in place, so it holds one (len(a), len(b)) temporary fewer than
    the plain expression while giving the same bits.
    """
    gram = a @ b.T
    dist = np.add.outer((a * a).sum(axis=1), (b * b).sum(axis=1))
    gram *= 2.0
    dist -= gram
    return dist


def knn_edges(features: np.ndarray, k: int) -> np.ndarray:
    """Directed edges i -> j to each node's k nearest neighbours (Euclidean).

    Self-edges are excluded and distance ties resolve toward the lower
    index. Returns an (P*k, 2) int array sorted by source node.
    """
    x = np.asarray(features, dtype=np.float64)
    p = x.shape[0]
    if not (1 <= k <= p - 1):
        raise ValueError(f"k must be in [1, {p - 1}], got {k}")
    require_finite_rows(x, "node")
    dist = squared_distances(x, x)
    np.fill_diagonal(dist, np.inf)
    return np.column_stack([np.repeat(np.arange(p), k), k_nearest(dist, k).ravel()])


def _edge_conv_t(x, nbr: np.ndarray, leaves: dict, prefix: str, aggregation: str) -> Tensor:
    """EdgeConv phi(x_i || x_j - x_i) aggregated over node i's k neighbours, row i of ``nbr``.

    The first layer of phi is linear, so on edge (i, j) it equals
    x_i (W_a - W_b) + x_j W_b with W_a, W_b the top and bottom halves of w1.
    Both terms are projected once per node; only the hidden activations
    exist per edge, as one (P, k, H) block from ``ad.edge_relu``. ``x`` is
    a (P, d) Tensor, or numpy node features, which are constants.
    """
    n, d = x.shape
    w1 = leaves[f"{prefix}/w1"]
    w2, b2 = leaves[f"{prefix}/w2"], leaves[f"{prefix}/b2"]
    w_nbr = ad.take(w1, np.arange(d, 2 * d))
    w_self = ad.sub(ad.take(w1, np.arange(d)), w_nbr)
    a = ad.add(ad.matmul(x, w_self), leaves[f"{prefix}/b1"])
    b = ad.matmul(x, w_nbr)
    h = ad.edge_relu(a, b, nbr)
    k = nbr.shape[1]
    if aggregation == "sum":
        # the sum over neighbours commutes with the second linear layer
        return ad.add(ad.matmul(ad.reduce_sum(h, axis=1), w2), ad.mul(b2, float(k)))
    messages = ad.matmul(ad.reshape(h, (n * k, -1)), w2)
    return ad.add(ad.reduce_max(ad.reshape(messages, (n, k, -1)), axis=1), b2)


def _focal(pt, gamma: float):
    """-(1 - p)^gamma * log(p) per entry: a Tensor on the tape, or an ndarray for numpy ``pt``."""
    return ad.mul(ad.power(ad.sub(1.0, pt), gamma), ad.neg(ad.log(pt)))


def focal_loss(prob_true_class, gamma: float):
    """-(1 - p)^gamma * log(p) for p in [0, 1], inf at p = 0; gamma=0 is cross-entropy."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    p = np.asarray(prob_true_class, dtype=np.float64)
    outside = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if outside.size:
        raise ValueError(f"probability {outside[0]} is {p.flat[outside[0]].item()!r}, expected a value in [0, 1]")
    out = _focal(p, gamma)
    return out if out.ndim else float(out)


def init_dgc_params(in_dim: int, settings: DgcSettings, seed: int) -> ParamStore:
    rng = np.random.default_rng([seed, 2])
    store = ParamStore()
    dims = [(in_dim, settings.hidden1), (settings.hidden1, settings.hidden2)]
    for layer, (d_in, d_out) in enumerate(dims, start=1):
        store.add(f"layer{layer}/w1", glorot(rng, (2 * d_in, d_out)))
        store.add(f"layer{layer}/b1", np.zeros(d_out))
        store.add(f"layer{layer}/w2", glorot(rng, (d_out, d_out)))
        store.add(f"layer{layer}/b2", np.zeros(d_out))
    store.add("classifier", glorot(rng, (settings.hidden2, 2)))
    return store


def _dgc_forward_t(x: np.ndarray, leaves: dict, settings: DgcSettings, fixed_edges=(None, None)):
    """Two dynamic edge-conv layers and a softmax head on the tape.

    Each layer's (P, k) neighbour matrix is rebuilt from its input features
    unless its entry of ``fixed_edges`` pins it. Neighbour choice carries no
    gradient. The numpy (P, d) ``x`` is constant; numpy ``leaves`` build no
    tape. Returns (probs, {"layerN": nbr}).
    """
    k = min(settings.k, x.shape[0] - 1)
    record = {}
    for layer, nbr in enumerate(fixed_edges, start=1):
        if nbr is None:
            nbr = knn_edges(ad.value(x), k)[:, 1].reshape(-1, k)
        record[f"layer{layer}"] = nbr
        x = _edge_conv_t(x, nbr, leaves, f"layer{layer}", settings.aggregation)
    logits = ad.matmul(x, leaves["classifier"])
    shift = ad.value(logits).max(axis=1, keepdims=True)
    e = ad.exp(ad.sub(logits, shift))
    probs = ad.div(e, ad.reduce_sum(e, axis=1, keepdims=True))
    return probs, record


def dgc_forward(pop: PopulationGraph, params: ParamStore, settings: DgcSettings) -> np.ndarray:
    """Class probabilities per patient node under the ``settings`` the params were trained with, built without a tape."""
    if pop.n_patients < 2:
        raise ValueError(f"population needs >= 2 patients, got {pop.n_patients}")
    probs, _ = _dgc_forward_t(pop.node_features, params.values, settings)
    return probs


def _focal_batch_t(probs: Tensor, labels: np.ndarray, mask: np.ndarray, gamma: float) -> Tensor:
    rows = np.flatnonzero(mask)
    return ad.reduce_mean(_focal(ad.take(probs, (rows, labels[rows])), gamma))


def _selection_metric(probs: np.ndarray, labels: np.ndarray, mask: np.ndarray, gamma: float) -> float:
    """Validation score for early tracking: negative mean focal loss.

    Small validation masks make rank statistics too coarse to compare
    epochs, so the continuous loss is tracked instead (higher is better).
    """
    if not mask.any():
        return 0.0
    return -float(np.mean(_focal(probs[mask, labels[mask]], gamma)))


def train_dgc(pop: PopulationGraph, cfg: RunConfig, seed: int | None = None):
    """Full-graph training with focal loss on training nodes only.

    Tracks the validation metric every epoch and returns the parameters of
    the best validation epoch together with the training history. Test
    labels are never read.
    """
    seed = cfg.seeds[0] if seed is None else int(seed)
    if not pop.train_mask.any():
        raise ValueError("population graph has no training nodes")
    settings = cfg.dgc
    store = init_dgc_params(pop.node_features.shape[1], settings, seed)

    best_store = store
    best_metric = -np.inf
    history = []
    fixed_edges = (None, None)
    for epoch in range(cfg.train.dgc_epochs):
        leaves = ad.make_leaves(store)
        probs, record = _dgc_forward_t(pop.node_features, leaves, settings, fixed_edges=fixed_edges)
        # layer 1 reads the node features, which training never changes, so its kNN graph is kept
        fixed_edges = (record["layer1"], None)
        loss = _focal_batch_t(probs, pop.labels, pop.train_mask, settings.gamma)
        # the metric belongs to the parameters that produced this forward pass;
        # ties keep the latest epoch so training can refine past val saturation
        val_metric = _selection_metric(probs.data, pop.labels, pop.val_mask, settings.gamma)
        if val_metric >= best_metric:
            best_metric = val_metric
            best_store = store  # adam_step returns a new store and never mutates this one
        loss_val, store = ad.train_step(store, leaves, loss, cfg.train.dgc_lr, f"classification loss at epoch {epoch}")
        history.append({"epoch": epoch, "loss": loss_val, "val_metric": val_metric})
        # release this epoch's tape before the next forward builds another
        del probs, loss
    return best_store, history
