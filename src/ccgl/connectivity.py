"""Functional-connectivity estimation and per-view graph assembly.

Node features of a view graph are the Pearson correlation rows of each ROI
with the patient's personal characteristics appended; edges carry the
retained partial correlations, which give a sparser conditional-dependence
structure than the marginal Pearson matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import PCD_SIZE, RoiTimeSeries, check_types, require

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class CorrelationMatrix:
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("correlation matrix contains non-finite entries")
        # with every entry finite these are allclose(rtol=0, atol=1e-10); initial keeps 0 x 0 to the range check
        if np.abs(arr - arr.T).max(initial=0.0) > 1e-10:
            raise ValueError("correlation matrix must be symmetric")
        if np.abs(np.diag(arr) - 1.0).max(initial=0.0) > 1e-10:
            raise ValueError("correlation matrix must have unit diagonal")
        if arr.min() < -1.0 - 1e-10 or arr.max() > 1.0 + 1e-10:
            raise ValueError("correlation entries must lie in [-1, 1]")
        object.__setattr__(self, "values", arr)

    @classmethod
    def symmetrized(cls, raw: np.ndarray):
        """The matrix from a nearly symmetric estimate: (raw + raw.T) / 2, clipped to [-1, 1], unit diagonal."""
        values = np.clip((raw + raw.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(values, 1.0)
        return cls(values)


@dataclass(frozen=True)
class EdgePolicy:
    """How view-graph edges are retained from the partial-correlation matrix."""

    per_node_top: int = 10
    shrinkage: float = 0.1

    def __post_init__(self):
        check_types(self)
        require(self, "per_node_top", self.per_node_top >= 1, "must be >= 1")
        require(self, "shrinkage", 0.0 <= self.shrinkage <= 1.0, "must be in [0, 1]")


@dataclass(frozen=True)
class ViewGraph:
    """One view's graph: R x F node features plus a symmetric R x R signed weight matrix.

    A zero weight means no edge; the diagonal is zero.
    """

    node_features: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.node_features, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got {w.shape}")
        if feats.ndim != 2 or feats.shape[0] != w.shape[0]:
            raise ValueError(f"node features must be ({w.shape[0]}, F), got {feats.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        self_edges = np.flatnonzero(np.diag(w))
        if self_edges.size:
            raise ValueError(f"self-edge at node {self_edges[0]}")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        object.__setattr__(self, "node_features", feats)
        object.__setattr__(self, "weights", w)

    @property
    def roi_count(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    @property
    def edges(self) -> tuple:
        """(i, j, w) for every edge with i < j, in row-major order."""
        rows, cols = np.nonzero(np.triu(self.weights, k=1))
        return tuple((int(i), int(j), float(self.weights[i, j])) for i, j in zip(rows, cols))


def k_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries, nearest first.

    Ties resolve toward the lower column index, so row i equals
    ``np.argsort(dist[i], kind="stable")[:k]``. A partition finds each row's
    k-th smallest value; every entry strictly below it is taken, plus the
    lowest-index entries equal to it, and only those k are sorted.
    """
    rows = dist.shape[0]
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    picked = dist <= kth
    counts = picked.sum(axis=1)
    short = np.flatnonzero(counts < k)
    if short.size:
        raise ValueError(f"row {int(short[0])} has NaN distances; features must be finite")
    surplus = np.flatnonzero(counts > k)
    if surplus.size:
        # more entries equal the k-th value than fit: keep the lowest-index ones
        sub, cut = dist[surplus], kth[surplus]
        closer, tied = sub < cut, sub == cut
        room = k - closer.sum(axis=1, keepdims=True)
        picked[surplus] = closer | (tied & (np.cumsum(tied, axis=1) <= room))
    cols = (np.flatnonzero(picked) % dist.shape[1]).reshape(rows, k)
    order = np.argsort(np.take_along_axis(dist, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def symmetric_condition(a: np.ndarray) -> float:
    """2-norm condition number of a symmetric matrix, as ``np.linalg.cond(a)`` defines it.

    A symmetric matrix's singular values are the absolute values of its
    eigenvalues, so one ``eigvalsh`` replaces the SVD. A singular matrix
    gives inf, the all-zero one (0 / 0) included.
    """
    magnitudes = np.abs(np.linalg.eigvalsh(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = magnitudes.max() / magnitudes.min()
    return float(np.inf) if np.isnan(cond) else float(cond)


def pearson_matrix(view: RoiTimeSeries) -> CorrelationMatrix:
    """Sample Pearson correlation between every pair of ROI columns."""
    x = view.values
    if x.shape[0] < 3:
        raise ValueError(f"need >= 3 timepoints for correlation, got {x.shape[0]}")
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0, ddof=1)
    zero = np.flatnonzero(std == 0.0)
    if zero.size:
        raise ValueError(f"constant column: roi {zero[0]} has zero variance")
    cov = centered.T @ centered / (x.shape[0] - 1)
    return CorrelationMatrix.symmetrized(cov / np.outer(std, std))


def partial_corr_matrix(view: RoiTimeSeries, shrinkage: float = 0.1) -> CorrelationMatrix:
    """Partial correlations via the inverted (shrunk) sample covariance.

    The covariance is shrunk toward its own diagonal,
    S' = (1 - shrinkage) * S + shrinkage * diag(S), which keeps S' invertible
    when a view has fewer timepoints than ROIs. Entry (a, b) is
    -P(a, b) / sqrt(P(a, a) * P(b, b)) for the precision P = inv(S').
    """
    x = view.values
    if x.shape[0] < 3:
        raise ValueError(f"need >= 3 timepoints for correlation, got {x.shape[0]}")
    if not (0.0 <= shrinkage <= 1.0):
        raise ValueError(f"shrinkage must be in [0, 1], got {shrinkage}")
    cov = np.cov(x, rowvar=False, ddof=1)
    shrunk = (1.0 - shrinkage) * cov + shrinkage * np.diag(np.diag(cov))
    cond = symmetric_condition(shrunk)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ValueError(
            f"shrunk covariance is numerically singular (condition {cond:.3g}); "
            f"increase shrinkage above {shrinkage}"
        )
    precision = np.linalg.inv(shrunk)
    d = np.sqrt(np.diag(precision))
    return CorrelationMatrix.symmetrized(-precision / np.outer(d, d))


def build_fc_graph(view: RoiTimeSeries, pcd: np.ndarray, policy: EdgePolicy = EdgePolicy()) -> ViewGraph:
    """Assemble the view graph: Pearson rows + pcd as node features, partial-correlation edges.

    Each node nominates its ``per_node_top`` strongest partners by absolute
    partial correlation; the nominated pairs are unioned and deduplicated as
    undirected edges. Weights keep their sign, magnitude decides retention.
    """
    pcd = np.asarray(pcd, dtype=np.float64)
    if pcd.shape != (PCD_SIZE,):
        raise ValueError(f"pcd must have length {PCD_SIZE}, got {pcd.shape}")
    pearson = pearson_matrix(view).values
    partial = partial_corr_matrix(view, policy.shrinkage).values
    r = view.n_rois
    e = min(policy.per_node_top, r - 1)

    # only the partner set reaches the mask, so the order k_nearest sorts the k into does not matter
    weakness = -np.abs(partial)
    np.fill_diagonal(weakness, np.inf)
    partners = k_nearest(weakness, e)
    mask = np.zeros((r, r), dtype=bool)
    np.put_along_axis(mask, partners, True, axis=1)
    weights = np.where(mask | mask.T, partial, 0.0)
    features = np.hstack([pearson, np.tile(pcd, (r, 1))])
    return ViewGraph(node_features=features, weights=weights)
