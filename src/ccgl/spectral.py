"""Normalized graph Laplacians and their rescaling for polynomial filtering.

The normalized Laplacian L = I - D^(-1/2) A D^(-1/2) of a nonnegative
adjacency has spectrum inside [0, 2]; dividing by its largest eigenvalue
and shifting maps that spectrum into [-1, 1], the domain on which the
Chebyshev recursion is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .connectivity import ViewGraph

POWER_MAX_ITER = 10000
POWER_TOL = 1e-9


@dataclass(frozen=True)
class ScaledLaplacian:
    """Normalized Laplacian with its top-eigenvalue estimate and rescaled form.

    ``adjacency`` keeps the absolute edge weights so induced subgraphs can
    rebuild their own Laplacian after pooling; rebuilt subgraphs are memoised
    per kept-index set because pooling selections repeat across forward passes.
    """

    laplacian: sp.csr_matrix
    lambda_max: float
    scaled: sp.csr_matrix
    adjacency: sp.csr_matrix
    _induced_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.laplacian.shape[0]


DENSE_POWER_LIMIT = 128


def _power_iteration(mat, tol: float, max_iter: int, seed: int):
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


def largest_eigenvalue(lap, tol: float = 1e-6) -> float:
    """Power-iteration estimate of the largest eigenvalue, clamped to (0, 2]."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if sp.issparse(lap):
        mat = lap.tocsr()
    else:
        mat = np.asarray(lap, dtype=np.float64)
    lam, _ = _power_iteration(mat, tol, POWER_MAX_ITER, 0)
    return float(min(2.0, max(lam, 1e-12)))


def normalized_laplacian(graph: ViewGraph, lambda_mode: str = "power") -> ScaledLaplacian:
    """Build L = I - D^(-1/2) A D^(-1/2) from absolute edge weights and rescale it.

    Isolated nodes get an identity row (their D^(-1/2) entry is zero).
    ``lambda_mode`` "power" estimates the top eigenvalue (floored at 1 for
    degenerate graphs); "fixed2" uses the universal bound 2.
    """
    return _build(np.abs(graph.weights), lambda_mode)


def induced_laplacian(lap: ScaledLaplacian, kept, lambda_mode: str = "power") -> ScaledLaplacian:
    """Rebuild the Laplacian of the subgraph induced on the kept node indices."""
    kept = np.asarray(kept, dtype=np.int64)
    key = (tuple(kept.tolist()), lambda_mode)
    hit = lap._induced_cache.get(key)
    if hit is not None:
        return hit
    out = _build(lap.adjacency.toarray()[np.ix_(kept, kept)], lambda_mode)
    lap._induced_cache[key] = out
    return out


def _build(dense: np.ndarray, lambda_mode: str) -> ScaledLaplacian:
    """Scaled Laplacian of a dense nonnegative adjacency; every stored field is csr.

    Degrees are the csr row sums, which fix the summation order the stored
    matrices have always been built with.
    """
    adjacency = sp.csr_matrix(dense)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
    sym = inv_sqrt[:, None] * dense * inv_sqrt[None, :]
    identity = np.eye(dense.shape[0])
    lap = identity - (sym + sym.T) * 0.5
    lap_csr = sp.csr_matrix(lap)
    if lambda_mode == "fixed2":
        lam, scaled = 2.0, lap - identity
    elif lambda_mode == "power":
        lam, residual = _power_iteration(lap_csr, POWER_TOL, POWER_MAX_ITER, 0)
        lam = min(2.0, max(lam, 1.0))
        # pad by the residual so the rescaled spectrum cannot poke above 1
        lam_scale = min(2.0, lam + 10.0 * residual)
        scaled = (2.0 / lam_scale) * lap - identity
    else:
        raise ValueError(f"unknown lambda_mode {lambda_mode!r}")
    return ScaledLaplacian(laplacian=lap_csr, lambda_max=lam, scaled=sp.csr_matrix(scaled), adjacency=adjacency)
