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
from .connectivity import ViewGraph, build_fc_graph
from .spectral import ScaledLaplacian, induced_laplacian, normalized_laplacian

# z-scored personal characteristics are rescaled to sit at the magnitude of
# correlation entries; at unit variance they would dominate every filter and
# hand the contrastive loss a patient-identity shortcut
PCD_FEATURE_SCALE = 0.05


@dataclass(frozen=True)
class AttractionMatrix:
    """Pairwise cosine similarities among 2N view embeddings.

    ``pairing[row]`` gives (patient index, view index); rows 2i and 2i+1
    hold patient i's two views.
    """

    values: np.ndarray
    pairing: tuple

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        n = arr.shape[0]
        if arr.ndim != 2 or arr.shape != (n, n):
            raise ValueError(f"attraction matrix must be square, got {arr.shape}")
        if len(self.pairing) != n:
            raise ValueError(f"pairing length {len(self.pairing)} does not match {n} rows")
        if not np.allclose(arr, arr.T, atol=1e-9):
            raise ValueError("attraction matrix must be symmetric")
        if not np.allclose(np.diag(arr), 1.0, atol=1e-9):
            raise ValueError("attraction matrix must have unit diagonal")
        if arr.min() < -1.0 - 1e-9 or arr.max() > 1.0 + 1e-9:
            raise ValueError("attraction entries must lie in [-1, 1]")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "pairing", tuple((int(p), int(v)) for p, v in self.pairing))

    @property
    def n_views(self) -> int:
        return self.values.shape[0]

    def partner_index(self) -> np.ndarray:
        """Row index of each row's same-patient partner view."""
        by_patient: dict = {}
        for row, (patient, _) in enumerate(self.pairing):
            by_patient.setdefault(patient, []).append(row)
        partner = np.empty(self.n_views, dtype=np.int64)
        for patient, rows in by_patient.items():
            if len(rows) != 2:
                raise ValueError(f"patient {patient} has {len(rows)} views, expected 2")
            partner[rows[0]], partner[rows[1]] = rows[1], rows[0]
        return partner


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


def _chebyshev_t(v: Tensor, scaled_lap, thetas) -> Tensor:
    """Sum_k Z_k theta_k with Z_1 = V, Z_2 = L~ V, Z_k = 2 L~ Z_{k-1} - Z_{k-2}."""
    out = ad.matmul(v, thetas[0])
    if len(thetas) == 1:
        return out
    z_prev2, z_prev = v, ad.spmm(scaled_lap, v)
    out = ad.add(out, ad.matmul(z_prev, thetas[1]))
    for theta in thetas[2:]:
        z = ad.sub(ad.mul(ad.spmm(scaled_lap, z_prev), 2.0), z_prev2)
        out = ad.add(out, ad.matmul(z, theta))
        z_prev2, z_prev = z_prev, z
    return out


def chebyshev_conv(v: np.ndarray, lap: ScaledLaplacian, thetas) -> np.ndarray:
    """Spectral convolution of node features by K Chebyshev filter weights."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != lap.n_nodes:
        raise ValueError(f"features must be ({lap.n_nodes}, F), got {v.shape}")
    theta_ts = [Tensor(np.asarray(t, dtype=np.float64)) for t in thetas]
    return _chebyshev_t(Tensor(v), lap.scaled, theta_ts).data


def _topk_pool_t(
    v: Tensor,
    lap: ScaledLaplacian,
    score_vec: Tensor,
    ratio: float,
    lambda_mode: str = "power",
):
    """Keep the ceil(ratio * R) best-scoring nodes, gate features by tanh(score).

    Node selection is structural (no gradient through the ranking); the
    gradient reaches the score vector through the tanh gate. Ties keep the
    lower node index.
    """
    norm = ad.sqrt(ad.reduce_sum(ad.mul(score_vec, score_vec)))
    scores = ad.matmul(v, ad.div(score_vec, norm))
    flat = scores.data.ravel()
    n_keep = max(1, int(math.ceil(ratio * flat.size)))
    order = np.argsort(-flat, kind="stable")
    kept = np.sort(order[:n_keep])
    gated = ad.mul(ad.gather_rows(v, kept), ad.tanh(ad.gather_rows(scores, kept)))
    sub_lap = induced_laplacian(lap, kept, lambda_mode=lambda_mode)
    return gated, sub_lap, kept


def topk_pool(v: np.ndarray, lap: ScaledLaplacian, score_vec: np.ndarray, ratio: float):
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"pool ratio must be in (0, 1], got {ratio}")
    p = np.asarray(score_vec, dtype=np.float64).reshape(-1, 1)
    gated, sub_lap, kept = _topk_pool_t(Tensor(np.asarray(v, dtype=np.float64)), lap, Tensor(p), ratio)
    return gated.data, sub_lap, kept


def _encode_t(view: PreparedView, leaves: dict, settings: EncoderSettings) -> Tensor:
    """Forward one prepared view to a unit-length (1, d) embedding on the tape."""
    v = Tensor(view.features)
    lap = view.lap
    for block in (1, 2):
        thetas = [leaves[f"block{block}/cheb{k}"] for k in range(1, settings.cheb_k + 1)]
        v = ad.relu(_chebyshev_t(v, lap.scaled, thetas))
        v, lap, _ = _topk_pool_t(
            v, lap, leaves[f"block{block}/pool"], settings.pool_ratio, settings.lambda_mode
        )
    readout = ad.concat(
        [ad.reduce_mean(v, axis=0, keepdims=True), ad.reduce_max(v, axis=0, keepdims=True)],
        axis=1,
    )
    h = ad.matmul(readout, leaves["readout"])
    norm = ad.sqrt(ad.reduce_sum(ad.mul(h, h), axis=1, keepdims=True))
    if norm.data.item() == 0.0:
        raise ValueError("zero-norm embedding")
    return ad.div(h, norm)


def prepare_view(graph: ViewGraph, settings: EncoderSettings) -> PreparedView:
    return PreparedView(
        features=graph.node_features,
        lap=normalized_laplacian(graph, lambda_mode=settings.lambda_mode),
    )


def encode(graph: ViewGraph, params: ParamStore, settings: EncoderSettings) -> np.ndarray:
    """Embed one view graph as a unit-length vector of length embed_dim."""
    view = prepare_view(graph, settings)
    out = _encode_t(view, ad.make_leaves(params), settings)
    return out.data.ravel()


def similarity_matrix(embeddings: np.ndarray) -> AttractionMatrix:
    """Cosine similarity between every ordered pair of view embeddings.

    Rows 2i and 2i+1 are taken as patient i's two views.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] % 2 != 0 or e.shape[0] == 0:
        raise ValueError(f"embeddings must be (2N, d) with N >= 1, got {e.shape}")
    norms = np.linalg.norm(e, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"zero-norm embedding at row {int(np.flatnonzero(norms == 0.0)[0])}")
    unit = e / norms[:, None]
    m = unit @ unit.T
    m = np.clip((m + m.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(m, 1.0)
    pairing = tuple((row // 2, row % 2) for row in range(e.shape[0]))
    return AttractionMatrix(values=m, pairing=pairing)


def contrastive_loss(m: AttractionMatrix, tau: float) -> float:
    """Mean softmax loss over the 2N ordered same-patient view pairs."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return float(_pair_loss_t(Tensor(m.values), m.partner_index(), tau).data)


def _pair_loss_t(m: Tensor, partner: np.ndarray, tau: float) -> Tensor:
    """Mean over rows of each row's softmax loss against its partner row, self excluded."""
    two_n = m.data.shape[0]
    z = ad.mul(m, 1.0 / tau)
    mask = (~np.eye(two_n, dtype=bool)).astype(np.float64)
    shift = np.where(mask > 0, z.data, -np.inf).max(axis=1, keepdims=True)
    e = ad.mul(ad.exp(ad.sub(z, shift)), mask)
    log_denom = ad.add(ad.log(ad.reduce_sum(e, axis=1)), shift.ravel())
    num = ad.take_pairs(z, np.arange(two_n), partner)
    return ad.reduce_mean(ad.sub(log_denom, num))


def _contrastive_loss_t(embeddings: Tensor, tau: float):
    """Tape version of the batch loss; rows must be unit length.

    Returns the scalar loss tensor plus the similarity values for logging.
    """
    m = ad.matmul(embeddings, ad.transpose(embeddings))
    return _pair_loss_t(m, np.arange(m.data.shape[0]) ^ 1, tau), m.data


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
        prepared.append([prepare_view(g, cfg.encoder) for g in graphs])
    return prepared


def embed_cohort(cohort: Cohort, params: ParamStore, cfg: RunConfig, prepared: list | None = None) -> list:
    """Per-patient lists of view embeddings (unit vectors), cohort order.

    ``prepared`` reuses the output of ``prepare_views`` for this cohort and cfg.
    """
    prepared = prepare_views(cohort, cfg) if prepared is None else prepared
    leaves = ad.make_leaves(params)
    return [
        [_encode_t(view, leaves, cfg.encoder).data.ravel() for view in views]
        for views in prepared
    ]


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

    prepared = prepare_views(cohort, cfg) if prepared is None else prepared
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
            rows = []
            for pidx, (va, vb) in zip(batch, chosen):
                rows.append(_encode_t(prepared[pidx][va], leaves, cfg.encoder))
                rows.append(_encode_t(prepared[pidx][vb], leaves, cfg.encoder))
            emb = ad.concat(rows, axis=0)
            loss, m_values = _contrastive_loss_t(emb, cfg.encoder.tau)
            loss_val = loss.data.item()
            if not np.isfinite(loss_val):
                raise RuntimeError(
                    f"non-finite contrastive loss at epoch {epoch}, batch starting {start}"
                )
            ad.backward(loss)
            grads = {
                name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
                for name, leaf in leaves.items()
            }
            store = ad.adam_step(store, grads, cfg.train.cgl_lr)

            two_n = m_values.shape[0]
            partner = np.arange(two_n) ^ 1
            homo = m_values[np.arange(two_n), partner]
            off = ~np.eye(two_n, dtype=bool)
            off[np.arange(two_n), partner] = False
            epoch_loss.append(loss_val)
            epoch_homo.append(float(homo.mean()))
            epoch_heter.append(float(m_values[off].mean()) if off.any() else 0.0)
        history.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(epoch_loss)),
                "mean_homo": float(np.mean(epoch_homo)),
                "mean_heter": float(np.mean(epoch_heter)),
            }
        )
    return store, history
