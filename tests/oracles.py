"""Reference implementations that the production code replaced.

Each function here is the straightforward per-row or per-edge version of a
vectorised path in ``ccgl``. Property tests compare the two on the same
inputs, so the cases where batched indexing goes wrong (ties, duplicate
rows, the smallest and largest neighbourhoods) stay pinned to behaviour
that is easy to read.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from ccgl import autodiff as ad
from ccgl import spectral
from ccgl.autodiff import Tensor


def _as_tensor(x) -> Tensor:
    """x as a tape node; these references record a numpy operand as a parentless one."""
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# segment reductions on the tape
# ---------------------------------------------------------------------------

def segment_sum(a, segments, n_segments: int) -> Tensor:
    """Sum rows of a into n_segments buckets given per-row segment ids."""
    a = _as_tensor(a)
    segments = np.asarray(segments, dtype=np.int64)
    if segments.shape[0] != a.data.shape[0]:
        raise ValueError(f"segment ids ({segments.shape[0]}) must match rows ({a.data.shape[0]})")
    val = np.zeros((n_segments,) + a.data.shape[1:])
    np.add.at(val, segments, a.data)
    out = Tensor(val, (a,))
    out._vjp = lambda g: (g[segments],)
    return out


def segment_max(a, segments, n_segments: int) -> Tensor:
    """Per-segment max over rows; segment ids must be sorted ascending."""
    a = _as_tensor(a)
    segments = np.asarray(segments, dtype=np.int64)
    if segments.shape[0] != a.data.shape[0]:
        raise ValueError(f"segment ids ({segments.shape[0]}) must match rows ({a.data.shape[0]})")
    if np.any(np.diff(segments) < 0):
        raise ValueError("segment ids must be sorted for segment_max")
    counts = np.bincount(segments, minlength=n_segments)
    if np.any(counts == 0):
        raise ValueError("every segment needs at least one row")
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    val = np.empty((n_segments,) + a.data.shape[1:])
    arg = np.empty((n_segments,) + a.data.shape[1:], dtype=np.int64)
    for s in range(n_segments):
        block = a.data[starts[s] : starts[s] + counts[s]]
        val[s] = block.max(axis=0)
        arg[s] = starts[s] + block.argmax(axis=0)
    out = Tensor(val, (a,))

    def vjp(g):
        grad = np.zeros_like(a.data)
        cols = np.broadcast_to(np.arange(a.data.shape[1]), arg.shape)
        np.add.at(grad, (arg.ravel(), cols.ravel()), g.ravel())
        return (grad,)

    out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# gathers on the tape, one primitive per indexing pattern
# ---------------------------------------------------------------------------

def gather_rows(a, index) -> Tensor:
    a = _as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    out = Tensor(a.data[index], (a,))

    def vjp(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, index, g)
        return (grad,)

    out._vjp = vjp
    return out


def take_pairs(a, rows, cols) -> Tensor:
    """Pick a[rows[k], cols[k]] for each k, as a 1-D tensor."""
    a = _as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = Tensor(a.data[rows, cols], (a,))

    def vjp(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, (rows, cols), g)
        return (grad,)

    out._vjp = vjp
    return out


def take_along_axis(a, index, axis: int) -> Tensor:
    """np.take_along_axis on the tape; index must not repeat along axis.

    Unique indices make the backward one scatter with no accumulation.
    """
    a = _as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    out = Tensor(np.take_along_axis(a.data, index, axis=axis), (a,))

    def vjp(g):
        grad = np.zeros_like(a.data)
        np.put_along_axis(grad, index, g, axis=axis)
        return (grad,)

    out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# per-edge EdgeConv
# ---------------------------------------------------------------------------

def _phi_t(x: Tensor, leaves: dict, prefix: str) -> Tensor:
    """Two-layer fully connected map applied row-wise."""
    h = ad.relu(ad.add(ad.matmul(x, leaves[f"{prefix}/w1"]), leaves[f"{prefix}/b1"]))
    return ad.add(ad.matmul(h, leaves[f"{prefix}/w2"]), leaves[f"{prefix}/b2"])


def edge_conv_t(
    x: Tensor,
    edges: np.ndarray,
    leaves: dict,
    prefix: str,
    aggregation: str = "sum",
) -> Tensor:
    """phi(x_i || x_j - x_i) on every edge, then a segment reduction per source."""
    n = x.data.shape[0]
    src, dst = edges[:, 0], edges[:, 1]
    counts = np.bincount(src, minlength=n)
    if np.any(counts == 0):
        raise ValueError(f"isolated node {int(np.flatnonzero(counts == 0)[0])}")
    h_src = gather_rows(x, src)
    h_dst = gather_rows(x, dst)
    messages = _phi_t(ad.concat([h_src, ad.sub(h_dst, h_src)], axis=1), leaves, prefix)
    if aggregation == "sum":
        return segment_sum(messages, src, n)
    if aggregation == "max":
        return segment_max(messages, src, n)
    raise ValueError(f"unknown aggregation {aggregation!r}")


# ---------------------------------------------------------------------------
# per-view spectral encoder
# ---------------------------------------------------------------------------

def spmm(s, x) -> Tensor:
    """Constant symmetric sparse matrix times dense tensor. No gradient flows into s.

    The backward multiplies by s, equal to s.T here, without building a transpose.
    """
    x = _as_tensor(x)
    if not sp.issparse(s):
        raise ValueError("spmm expects a scipy sparse matrix on the left")
    if s.shape[1] != x.data.shape[0]:
        raise ValueError(f"spmm shape mismatch: {s.shape} @ {x.data.shape}")
    out = Tensor(s @ x.data, (x,))
    out._vjp = lambda g: (s @ g,)
    return out


def chebyshev_t(v: Tensor, scaled_lap, thetas) -> Tensor:
    """Sum_k Z_k theta_k with Z_1 = V, Z_2 = L~ V, Z_k = 2 L~ Z_{k-1} - Z_{k-2}."""
    out = ad.matmul(v, thetas[0])
    if len(thetas) == 1:
        return out
    z_prev2, z_prev = v, spmm(scaled_lap, v)
    out = ad.add(out, ad.matmul(z_prev, thetas[1]))
    for theta in thetas[2:]:
        z = ad.sub(ad.mul(spmm(scaled_lap, z_prev), 2.0), z_prev2)
        out = ad.add(out, ad.matmul(z, theta))
        z_prev2, z_prev = z_prev, z
    return out


def topk_pool_t(v: Tensor, lap, score_vec: Tensor, ratio: float):
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
    gated = ad.mul(gather_rows(v, kept), ad.tanh(gather_rows(scores, kept)))
    sub_lap = spectral.induced_laplacian(lap, kept)
    return gated, sub_lap, kept


def encode_t(view, leaves: dict, settings) -> Tensor:
    """Forward one prepared view to a unit-length (1, d) embedding on the tape."""
    v = Tensor(view.features)
    lap = view.lap
    for block in (1, 2):
        thetas = [leaves[f"block{block}/cheb{k}"] for k in range(1, settings.cheb_k + 1)]
        v = ad.relu(chebyshev_t(v, lap.scaled, thetas))
        v, lap, _ = topk_pool_t(v, lap, leaves[f"block{block}/pool"], settings.pool_ratio)
    readout = ad.concat(
        [ad.reduce_mean(v, axis=0, keepdims=True), ad.reduce_max(v, axis=0, keepdims=True)],
        axis=1,
    )
    h = ad.matmul(readout, leaves["readout"])
    norm = ad.sqrt(ad.reduce_sum(ad.mul(h, h), axis=1, keepdims=True))
    if norm.data.item() == 0.0:
        raise ValueError("zero-norm embedding")
    return ad.div(h, norm)


# ---------------------------------------------------------------------------
# neighbour selection and ranking
# ---------------------------------------------------------------------------

def knn_edges(features: np.ndarray, k: int) -> np.ndarray:
    """Directed edges i -> j to each node's k nearest neighbours (Euclidean).

    Self-edges are excluded and distance ties resolve toward the lower
    index. Returns an (P*k, 2) int array sorted by source node.
    """
    x = np.asarray(features, dtype=np.float64)
    p = x.shape[0]
    if not (1 <= k <= p - 1):
        raise ValueError(f"k must be in [1, {p - 1}], got {k}")
    sq = (x * x).sum(axis=1)
    dist = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(dist, np.inf)
    edges = np.empty((p * k, 2), dtype=np.int64)
    for i in range(p):
        order = np.argsort(dist[i], kind="stable")
        edges[i * k : (i + 1) * k, 0] = i
        edges[i * k : (i + 1) * k, 1] = order[:k]
    return edges


def knn_baseline_scores(train_features, train_labels, test_features, k: int) -> np.ndarray:
    """Fraction of label-1 points among each test row's k nearest training rows."""
    x_train = np.asarray(train_features, dtype=np.float64)
    y_train = np.asarray(train_labels)
    x_test = np.asarray(test_features, dtype=np.float64)
    sq_train = (x_train * x_train).sum(axis=1)
    sq_test = (x_test * x_test).sum(axis=1)
    dist = sq_test[:, None] + sq_train[None, :] - 2.0 * (x_test @ x_train.T)
    scores = np.empty(x_test.shape[0])
    for i in range(x_test.shape[0]):
        order = np.argsort(dist[i], kind="stable")
        scores[i] = float(y_train[order[:k]].mean())
    return scores


def auc(scores, labels) -> float:
    """Mann-Whitney AUC from midranks assigned by a loop over tie runs."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0  # 1-based midrank
        i = j + 1
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# Laplacian build with scipy-sparse operators
# ---------------------------------------------------------------------------

def scipy_scaled_laplacian(adjacency: sp.csr_matrix):
    """(laplacian, lambda_max, scaled) built by chained scipy-sparse operators."""
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
    d_half = sp.diags(inv_sqrt)
    sym = d_half @ adjacency @ d_half
    sym = (sym + sym.T) * 0.5
    lap = (sp.identity(adjacency.shape[0], format="csr") - sym).tocsr()
    lam = min(2.0, max(spectral._power_iteration(lap.toarray()), 1.0))
    scaled = (2.0 / lam) * lap - sp.identity(lap.shape[0], format="csr")
    return lap, lam, scaled.tocsr()


# ---------------------------------------------------------------------------
# largest eigenvalue by Ritz-polished power iteration
# ---------------------------------------------------------------------------

DENSE_POWER_LIMIT = 128
POWER_MAX_ITER = 10000
POWER_TOL = 1e-9


def power_iteration(mat, tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER, seed: int = 0):
    """Largest eigenvalue of a symmetric PSD matrix, with final residual.

    Plain power steps are polished each iteration by a Rayleigh-Ritz solve
    on span{v, Mv}, which resolves a clustered top pair at the rate of the
    third eigenvalue gap. Stops when the Ritz residual drops below tol.
    """
    n = mat.shape[0]
    if sp.issparse(mat) and n <= DENSE_POWER_LIMIT:
        # dense matvecs are much cheaper than sparse ones at this size
        mat = mat.toarray()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = mat @ v
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0, 0.0
        rho = float(v @ w)
        q2 = w - rho * v
        norm_q2 = np.linalg.norm(q2)
        if norm_q2 < 1e-14:
            # v is an eigenvector already
            return rho, float(np.linalg.norm(w - rho * v))
        q2 /= norm_q2
        mq2 = mat @ q2
        # 2x2 projected eigenproblem, top pair in closed form
        a = rho
        b = (float(v @ mq2) + float(q2 @ w)) / 2.0
        c = float(q2 @ mq2)
        half_gap = np.hypot((a - c) / 2.0, b)
        lam = (a + c) / 2.0 + half_gap
        y0, y1 = (b, lam - a) if abs(lam - a) >= abs(lam - c) else (lam - c, b)
        norm_y = np.hypot(y0, y1)
        if norm_y == 0.0:
            y0, y1 = 1.0, 0.0
        else:
            y0, y1 = y0 / norm_y, y1 / norm_y
        u = y0 * v + y1 * q2
        residual = float(np.linalg.norm(mat @ u - lam * u))
        if residual <= tol:
            return float(lam), residual
        v = w / norm_w
    raise RuntimeError(f"power iteration did not converge within {max_iter} iterations (tol {tol})")


# ---------------------------------------------------------------------------
# view-graph edges as (i, j, w) tuples
# ---------------------------------------------------------------------------

def fc_edges(partial: np.ndarray, per_node_top: int) -> tuple:
    """Union of each node's per_node_top strongest partners, as sorted (i, j, w) tuples, i < j.

    Strength is |partial|; ties within a row go to the lower index.
    """
    r = partial.shape[0]
    e = min(per_node_top, r - 1)
    strength = np.abs(partial).copy()
    np.fill_diagonal(strength, -np.inf)
    pairs = set()
    for i in range(r):
        order = np.argsort(-strength[i], kind="stable")
        for j in order[:e]:
            pairs.add((min(i, int(j)), max(i, int(j))))
    return tuple((i, j, float(partial[i, j])) for i, j in sorted(pairs))


def adjacency_from_edges(graph) -> sp.csr_matrix:
    """csr |w| adjacency of an object with ``edges`` ((i, j, w) tuples) and ``roi_count``."""
    r = graph.roi_count
    if graph.edges:
        rows = np.array([e[0] for e in graph.edges] + [e[1] for e in graph.edges])
        cols = np.array([e[1] for e in graph.edges] + [e[0] for e in graph.edges])
        vals = np.abs(np.array([e[2] for e in graph.edges] * 2))
    else:
        rows = cols = np.array([], dtype=np.int64)
        vals = np.array([], dtype=np.float64)
    return sp.csr_matrix((vals, (rows, cols)), shape=(r, r))


def weights_from_edges(r: int, edges) -> np.ndarray:
    """Symmetric (r, r) weight matrix holding each (i, j, w) tuple at (i, j) and (j, i)."""
    w = np.zeros((r, r))
    for i, j, value in edges:
        w[i, j] = w[j, i] = value
    return w


# ---------------------------------------------------------------------------
# synthetic cohort draws, one scalar from the stream at a time
# ---------------------------------------------------------------------------

def subtype_precision_templates(rng: np.random.Generator, n_rois: int, subtype_counts) -> dict:
    """Backbone plus one exclusive block of pairs per subtype, drawn pair by pair: value, then sign."""
    pairs = [(i, j) for i in range(n_rois) for j in range(i + 1, n_rois)]
    order = [pairs[k] for k in rng.permutation(len(pairs))]
    n_shared = max(1, int(0.15 * len(order)))
    shared, rest = order[:n_shared], order[n_shared:]

    backbone = np.zeros((n_rois, n_rois))
    for i, j in shared:
        v = rng.uniform(0.4, 0.9) * (1.0 if rng.random() < 0.5 else -1.0)
        backbone[i, j] = backbone[j, i] = v

    keys = [(c, s) for c in (0, 1) for s in range(subtype_counts[c])]
    block = len(rest) // len(keys)
    templates = {}
    for t, key in enumerate(keys):
        tmpl = backbone.copy()
        for i, j in rest[t * block : (t + 1) * block]:
            v = rng.uniform(0.5, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
            tmpl[i, j] = tmpl[j, i] = v
        templates[key] = tmpl
    return templates


def fc_jitter(rng: np.random.Generator, n: int, density: float, half_width: float) -> np.ndarray:
    """Symmetric (n, n) jitter: each pair i < j in row-major order reads a gate, and a value when the gate is below density."""
    delta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                v = rng.uniform(-half_width, half_width)
                delta[i, j] = v
                delta[j, i] = v
    return delta


def draw_pcd(rng: np.random.Generator, label: int, iq_shift: float) -> np.ndarray:
    """Age, gender, handedness and four IQ-like measures, each IQ a scalar normal draw."""
    age = float(rng.integers(8, 19) + label)
    gender = float(rng.integers(0, 2))
    handedness = float(rng.random() < 0.9)
    iqs = [float(np.round(rng.normal(100.0 + iq_shift * label, 12.0))) for _ in range(4)]
    return np.array([age, gender, handedness, *iqs])
