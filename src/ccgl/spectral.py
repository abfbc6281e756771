"""Normalized graph Laplacians and their rescaling for polynomial filtering.

The normalized Laplacian L = I - D^(-1/2) A D^(-1/2) of a nonnegative
adjacency has spectrum inside [0, 2]; dividing by its largest eigenvalue
and shifting maps that spectrum into [-1, 1], the domain on which the
Chebyshev recursion is stable. View graphs are small (R in the low hundreds
at most), so every matrix is stored dense and the largest eigenvalue comes
from one exact dense eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .connectivity import ViewGraph


@dataclass(frozen=True)
class ScaledLaplacian:
    """Rescaled normalized Laplacian ``values`` = 2L/lambda_max - I, stored dense.

    ``adjacency`` keeps the absolute edge weights so induced subgraphs can
    rebuild their own Laplacian after pooling; rebuilt subgraphs are memoised
    per kept-index set because pooling selections repeat across forward passes.
    """

    values: np.ndarray
    adjacency: np.ndarray
    lambda_max: float
    _induced_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def scaled(self) -> sp.csr_matrix:
        """csr copy of ``values``."""
        return sp.csr_matrix(self.values)

    @property
    def laplacian(self) -> sp.csr_matrix:
        """csr copy of the unscaled normalized Laplacian, rebuilt from ``adjacency``."""
        return sp.csr_matrix(_normalized(self.adjacency))


def _power_iteration(mat: np.ndarray) -> float:
    """Largest eigenvalue of a dense symmetric matrix, exact, from one eigensolve.

    The name is kept only because the benchmark counts eigensolves through
    calls to it, until ROADMAP item 14 moves that counter into the program.
    """
    return float(np.linalg.eigvalsh(mat)[-1])


def largest_eigenvalue(lap, tol: float = 1e-6) -> float:
    """Exact largest eigenvalue, clamped to (0, 2]; ``tol`` must be positive but is not needed."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mat = lap.toarray() if sp.issparse(lap) else np.asarray(lap, dtype=np.float64)
    return float(min(2.0, max(_power_iteration(mat), 1e-12)))


def normalized_laplacian(graph: ViewGraph) -> ScaledLaplacian:
    """Build L = I - D^(-1/2) A D^(-1/2) from absolute edge weights and rescale it.

    Isolated nodes get an identity row (their D^(-1/2) entry is zero). The
    rescaling divides by the exact largest eigenvalue, floored at 1 for
    degenerate graphs and capped at 2.
    """
    return _build(np.abs(graph.weights))


def induced_laplacian(lap: ScaledLaplacian, kept) -> ScaledLaplacian:
    """Rebuild the Laplacian of the subgraph induced on the kept node indices."""
    kept = np.asarray(kept, dtype=np.int64)
    key = tuple(kept.tolist())
    if key not in lap._induced_cache:
        lap._induced_cache[key] = _build(lap.adjacency[np.ix_(kept, kept)])
    return lap._induced_cache[key]


def _normalized(adjacency: np.ndarray) -> np.ndarray:
    """Dense I - D^(-1/2) A D^(-1/2), symmetrised so it is symmetric bit for bit.

    Degrees sum each row's nonzeros by ``np.add.reduceat``, as a csr row sum
    does; a dense row sum can round differently in the last bit.
    """
    counts = np.count_nonzero(adjacency, axis=1)
    degrees = np.zeros(adjacency.shape[0])
    degrees[counts > 0] = np.add.reduceat(adjacency[adjacency != 0], (np.cumsum(counts) - counts)[counts > 0])
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
    sym = inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]
    return np.eye(adjacency.shape[0]) - (sym + sym.T) * 0.5


def _build(adjacency: np.ndarray) -> ScaledLaplacian:
    """Scaled Laplacian of a dense nonnegative adjacency."""
    lap = _normalized(adjacency)
    lam = min(2.0, max(_power_iteration(lap), 1.0))
    return ScaledLaplacian(values=(2.0 / lam) * lap - np.eye(lap.shape[0]), adjacency=adjacency, lambda_max=lam)
