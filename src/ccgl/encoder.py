"""Spectral graph encoder with top-K pooling and the contrastive objective.

Each view graph passes through two blocks of Chebyshev-filtered graph
convolution, relu, and score-based node pooling; a mean/max readout
projects to a unit-length embedding. Two views of one patient form an
attracting pair, views of different patients repel, and the batch loss
averages the per-pair softmax terms over all ordered same-patient pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor, glorot
from .cohort import Cohort, slice_views, standardized_pcd
from .config import EncoderSettings, RunConfig
from .connectivity import CorrelationMatrix, ViewGraph, build_fc_graph
from .spectral import ScaledLaplacian, induced_laplacian, normalized_laplacian

# z-scored personal characteristics are rescaled to sit at the magnitude of
# correlation entries; at unit variance they would dominate every filter and
# hand the contrastive loss a patient-identity shortcut
PCD_FEATURE_SCALE = 0.05


@dataclass(frozen=True)
class AttractionMatrix(CorrelationMatrix):
    """Pairwise cosine similarities among 2N view embeddings, laid out as ``pair_split`` reads them."""

    def __post_init__(self):
        n = len(self.values)
        if n == 0 or n % 2:
            raise ValueError(f"attraction matrix needs 2N rows (two views per patient, N >= 1), got {n}")
        super().__post_init__()


def pair_partner(two_n: int) -> np.ndarray:
    """Each of 2N view rows' partner row; that rows 2i and 2i+1 are patient i's two views is decided here only."""
    return np.arange(two_n) ^ 1


def pair_split(values: np.ndarray):
    """Same-patient and cross-patient entries of a (2N, 2N) view-similarity array.

    Returns ``homo``, each row's entry at its ``pair_partner`` column, and
    ``heter``, every other off-diagonal entry in row-major order.
    """
    rows = np.arange(values.shape[0])
    partner = pair_partner(rows.size)
    off = ~np.eye(rows.size, dtype=bool)
    off[rows, partner] = False
    return values[rows, partner], values[off]


@dataclass(frozen=True)
class PreparedView:
    """A view graph cached with its rescaled Laplacian, ready to encode."""

    features: np.ndarray
    lap: ScaledLaplacian


def init_encoder_params(in_dim: int, settings: EncoderSettings, seed: int) -> ParamStore:
    """Glorot-initialised filter weights, pooling scores, and readout projection."""
    rng = np.random.default_rng([seed, 0])
    store = ParamStore()
    widths = [(in_dim, settings.hidden1), (settings.hidden1, settings.hidden2)]
    for block, (f_in, f_out) in enumerate(widths, start=1):
        for k in range(1, settings.cheb_k + 1):
            store.add(f"block{block}/cheb{k}", glorot(rng, (f_in, f_out)))
        store.add(f"block{block}/pool", glorot(rng, (f_out, 1)))
    store.add("readout", glorot(rng, (2 * settings.hidden2, settings.embed_dim)))
    return store


def _chebyshev_t(v, scaled: np.ndarray, thetas):
    """Sum_k Z_k theta_k with Z_1 = V, Z_2 = L~ V, Z_k = 2 L~ Z_{k-1} - Z_{k-2}.

    V is (R, F) or (B, R, F) and the constant L~ is (R, R) or (B, R, R).
    A numpy V keeps the basis Z_k off the tape, and with numpy thetas too
    the result is a plain ndarray.
    """
    out = ad.matmul(v, thetas[0])
    if len(thetas) == 1:
        return out
    z_prev2, z_prev = v, ad.matmul(scaled, v)
    out = ad.add(out, ad.matmul(z_prev, thetas[1]))
    for theta in thetas[2:]:
        z = ad.sub(ad.mul(ad.matmul(scaled, z_prev), 2.0), z_prev2)
        out = ad.add(out, ad.matmul(z, theta))
        z_prev2, z_prev = z_prev, z
    return out


def chebyshev_conv(v: np.ndarray, lap: ScaledLaplacian, thetas) -> np.ndarray:
    """Spectral convolution of node features by K Chebyshev filter weights."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != lap.n_nodes:
        raise ValueError(f"features must be ({lap.n_nodes}, F), got {v.shape}")
    if len(thetas) == 0:
        raise ValueError("thetas must hold at least one filter weight")
    return _chebyshev_t(v, lap.values, [np.asarray(t, dtype=np.float64) for t in thetas])


def _topk_pool_t(v: Tensor, score_vec: Tensor, ratio: float):
    """Keep each view's ceil(ratio * R) best-scoring nodes, gate features by tanh(score).

    ``v`` is (B, R, F). Node selection is structural (no gradient through the
    ranking); the gradient reaches the score vector through the tanh gate.
    Ties keep the lower node index. Returns the gated (B, R', F) tensor and
    the (B, R') kept node indices, ascending in each row.
    """
    norm = ad.sqrt(ad.reduce_sum(ad.mul(score_vec, score_vec)))
    scores = ad.matmul(v, ad.div(score_vec, norm))
    n_keep = max(1, int(math.ceil(ratio * v.shape[1])))
    order = np.argsort(-ad.value(scores)[..., 0], axis=1, kind="stable")
    kept = np.sort(order[:, :n_keep], axis=1)
    index = (np.arange(kept.shape[0])[:, None], kept)
    gated = ad.mul(ad.take(v, index), ad.tanh(ad.take(scores, index)))
    return gated, kept


def _encode_batch_t(views, leaves: dict, settings: EncoderSettings, names=None):
    """Forward prepared views that share R and F to unit-length (B, d) embeddings on one tape.

    Block 1 filters the numpy features, which are constants on the tape;
    block 2 filters by the stacked Laplacians of the subgraphs block 1 kept.
    Numpy ``leaves`` build no tape; ``names`` labels views in errors (default: row index).
    """
    def thetas(block):
        return [leaves[f"block{block}/cheb{k}"] for k in range(1, settings.cheb_k + 1)]

    features = np.stack([view.features for view in views])
    h = _chebyshev_t(features, np.stack([view.lap.values for view in views]), thetas(1))
    h, kept = _topk_pool_t(ad.relu(h), leaves["block1/pool"], settings.pool_ratio)
    sub_scaled = np.stack([induced_laplacian(view.lap, rows).values for view, rows in zip(views, kept)])
    h = ad.relu(_chebyshev_t(h, sub_scaled, thetas(2)))
    h, _ = _topk_pool_t(h, leaves["block2/pool"], settings.pool_ratio)
    readout = ad.concat([ad.reduce_mean(h, axis=1), ad.reduce_max(h, axis=1)], axis=1)
    e = ad.matmul(readout, leaves["readout"])
    norm = ad.sqrt(ad.reduce_sum(ad.mul(e, e), axis=1, keepdims=True))
    zero = np.flatnonzero(ad.value(norm).ravel() == 0.0)
    if zero.size:
        row = int(zero[0])
        raise ValueError(f"zero-norm embedding for {names[row] if names else f'row {row}'}")
    return ad.div(e, norm)


def _encode_t(view: PreparedView, leaves: dict, settings: EncoderSettings) -> Tensor:
    """Forward one prepared view to a unit-length (1, d) embedding on the tape."""
    return _encode_batch_t([view], leaves, settings)


def prepare_view(graph: ViewGraph) -> PreparedView:
    return PreparedView(features=graph.node_features, lap=normalized_laplacian(graph))


def similarity_matrix(embeddings: np.ndarray) -> AttractionMatrix:
    """Cosine similarity between every ordered pair of 2N view embeddings, laid out as ``AttractionMatrix``."""
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError(f"embeddings must be (2N, d), got {e.shape}")
    norms = np.linalg.norm(e, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"zero-norm embedding at row {int(np.flatnonzero(norms == 0.0)[0])}")
    unit = e / norms[:, None]
    return AttractionMatrix.symmetrized(unit @ unit.T)


def contrastive_loss(m: AttractionMatrix, tau: float) -> float:
    """Mean softmax loss over the 2N ordered same-patient view pairs."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return float(_pair_loss_t(m.values, tau))


def _pair_loss_t(m, tau: float):
    """Mean over rows of each row's softmax loss against its partner row, self excluded.

    ``m`` is a (2N, 2N) Tensor, or a numpy array for a plain value.
    """
    two_n = m.shape[0]
    z = ad.mul(m, 1.0 / tau)
    mask = (~np.eye(two_n, dtype=bool)).astype(np.float64)
    shift = np.where(mask > 0, ad.value(z), -np.inf).max(axis=1, keepdims=True)
    e = ad.mul(ad.exp(ad.sub(z, shift)), mask)
    log_denom = ad.add(ad.log(ad.reduce_sum(e, axis=1)), shift.ravel())
    num = ad.take(z, (np.arange(two_n), pair_partner(two_n)))
    return ad.reduce_mean(ad.sub(log_denom, num))


def _contrastive_loss_t(embeddings: Tensor, tau: float):
    """Tape version of the batch loss; rows must be unit length.

    Returns the scalar loss tensor plus the similarity values for logging.
    """
    m = ad.matmul(embeddings, ad.transpose(embeddings))
    return _pair_loss_t(m, tau), m.data


def prepare_views(cohort: Cohort, cfg: RunConfig) -> list:
    """Build every patient's prepared view graphs, aligned with cohort order.

    Personal characteristics are z-scored on the training split and scaled
    to correlation magnitude before being appended to each node's row.
    """
    pcd = standardized_pcd(cohort) * PCD_FEATURE_SCALE
    prepared = []
    for i, patient in enumerate(cohort.patients):
        views = slice_views(patient.series, cfg.n_views, cfg.min_window_length)
        graphs = [build_fc_graph(v, pcd[i], cfg.edge_policy) for v in views]
        prepared.append([prepare_view(g) for g in graphs])
    return prepared


def embed_cohort(cohort: Cohort, params: ParamStore, cfg: RunConfig, prepared: list | None = None) -> list:
    """Per-patient lists of view embeddings (unit vectors), cohort order.

    ``prepared`` reuses the output of ``prepare_views`` for this cohort and cfg.
    """
    prepared = _prepared_for(cohort, cfg, prepared)
    return [
        list(_encode_batch_t(views, params.values, cfg.encoder, [_view_name(patient.id, v) for v in range(len(views))]))
        for patient, views in zip(cohort.patients, prepared)
    ]


def _prepared_for(cohort: Cohort, cfg: RunConfig, prepared: list | None) -> list:
    """``prepared`` checked to hold one entry per cohort patient, or a fresh ``prepare_views``."""
    if prepared is None:
        return prepare_views(cohort, cfg)
    if len(prepared) != len(cohort.patients):
        raise ValueError(f"prepared has {len(prepared)} entries but the cohort has {len(cohort.patients)} patients")
    return prepared


def _view_name(patient_id, view: int) -> str:
    return f"patient {patient_id}, view {view}"


def train_cgl(cohort: Cohort, cfg: RunConfig, seed: int | None = None, prepared: list | None = None):
    """Contrastive training over the cohort's training patients.

    Every epoch shuffles the training patients, embeds two views per
    patient per batch, and applies one Adam step per batch on the batch
    loss. Returns the trained parameters and a per-epoch history of
    (loss, mean same-patient attraction, mean cross-patient attraction).
    ``prepared`` reuses the output of ``prepare_views`` for this cohort and cfg.
    """
    seed = cfg.seeds[0] if seed is None else int(seed)
    train_idx = [i for i, p in enumerate(cohort.patients) if p.split == "train"]
    if len(train_idx) < 2:
        raise ValueError(f"need >= 2 training patients, found {len(train_idx)}")

    prepared = _prepared_for(cohort, cfg, prepared)
    in_dim = prepared[0][0].features.shape[1]
    store = init_encoder_params(in_dim, cfg.encoder, seed)
    rng = np.random.default_rng([seed, 1])

    history = []
    for epoch in range(cfg.train.cgl_epochs):
        order = [train_idx[j] for j in rng.permutation(len(train_idx))]
        epoch_loss, epoch_homo, epoch_heter = [], [], []
        for start in range(0, len(order), cfg.train.batch_size):
            batch = order[start : start + cfg.train.batch_size]
            if cfg.n_views == 2:
                chosen = [(0, 1)] * len(batch)
            else:
                chosen = [tuple(rng.choice(cfg.n_views, size=2, replace=False)) for _ in batch]
            leaves = ad.make_leaves(store)
            rows = [(pidx, v) for pidx, pair in zip(batch, chosen) for v in pair]
            emb = _encode_batch_t(
                [prepared[pidx][v] for pidx, v in rows],
                leaves,
                cfg.encoder,
                [_view_name(cohort.patients[pidx].id, v) for pidx, v in rows],
            )
            loss, m_values = _contrastive_loss_t(emb, cfg.encoder.tau)
            loss_val, store = ad.train_step(
                store, leaves, loss, cfg.train.cgl_lr, f"contrastive loss at epoch {epoch}, batch starting {start}"
            )

            homo, heter = pair_split(m_values)
            epoch_loss.append(loss_val)
            epoch_homo.append(float(homo.mean()))
            epoch_heter.append(float(heter.mean()) if heter.size else 0.0)
        history.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(epoch_loss)),
                "mean_homo": float(np.mean(epoch_homo)),
                "mean_heter": float(np.mean(epoch_heter)),
            }
        )
    return store, history
