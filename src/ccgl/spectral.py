"""Normalized graph Laplacians and their rescaling for polynomial filtering.

The normalized Laplacian L = I - D^(-1/2) A D^(-1/2) of a nonnegative
adjacency has spectrum inside [0, 2]; dividing by its largest eigenvalue
and shifting maps that spectrum into [-1, 1], the domain on which the
Chebyshev recursion is stable. View graphs are small (R in the low hundreds
at most), so the largest eigenvalue comes from one exact dense eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .connectivity import ViewGraph


@dataclass(frozen=True)
class ScaledLaplacian:
    """Normalized Laplacian with its largest eigenvalue and rescaled form.

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


def _power_iteration(mat) -> float:
    """Largest eigenvalue of a symmetric matrix, exact, from one dense eigensolve.

    The only place lambda_max is computed, once per uncached Laplacian build.
    The name is kept only because the benchmark counts eigensolves through
    calls to it, until ROADMAP item 14 moves that counter into the program.
    """
    dense = mat.toarray() if sp.issparse(mat) else mat
    return float(np.linalg.eigvalsh(dense)[-1])


def largest_eigenvalue(lap, tol: float = 1e-6) -> float:
    """Exact largest eigenvalue, clamped to (0, 2]; ``tol`` must be positive but is not needed."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mat = lap if sp.issparse(lap) else np.asarray(lap, dtype=np.float64)
    return float(min(2.0, max(_power_iteration(mat), 1e-12)))


def normalized_laplacian(graph: ViewGraph, lambda_mode: str = "power") -> ScaledLaplacian:
    """Build L = I - D^(-1/2) A D^(-1/2) from absolute edge weights and rescale it.

    Isolated nodes get an identity row (their D^(-1/2) entry is zero).
    ``lambda_mode`` "power" rescales by the exact largest eigenvalue (floored
    at 1 for degenerate graphs); "fixed2" uses the universal bound 2.
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
    if lambda_mode == "fixed2":
        lam, scaled = 2.0, lap - identity
    elif lambda_mode == "power":
        lam = min(2.0, max(_power_iteration(lap), 1.0))
        scaled = (2.0 / lam) * lap - identity
    else:
        raise ValueError(f"unknown lambda_mode {lambda_mode!r}")
    return ScaledLaplacian(laplacian=sp.csr_matrix(lap), lambda_max=lam, scaled=sp.csr_matrix(scaled), adjacency=adjacency)
