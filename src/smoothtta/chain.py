"""Operators on the 1-D temporal chain over horizon steps.

The prediction horizon is treated as a path graph with one node per step.
Correction fields live on this graph; smoothness is measured by the discrete
Dirichlet energy of adjacent-step differences. This module builds the
first-order difference matrix, the chain Laplacian, the regularized transfer
operator used for error propagation, and an exact harmonic-extension solver
that serves as the reference for boundary-constrained smoothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


class InvalidHorizonError(ValueError):
    """Horizon too short to carry a chain (needs at least 2 steps)."""


class InvalidRegularizerError(ValueError):
    """Smoothness regularizer must be strictly positive."""


@dataclass(frozen=True)
class TemporalChain:
    """Path graph over horizon steps 0..horizon-1.

    edge_weights holds one nonnegative weight per consecutive-step edge;
    None means the unweighted chain (all ones).
    """

    horizon: int
    edge_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.horizon < 2:
            raise InvalidHorizonError(f"chain needs horizon >= 2, got {self.horizon}")
        if self.edge_weights is not None:
            w = np.asarray(self.edge_weights, dtype=float)
            if w.shape != (self.horizon - 1,):
                raise ValueError(
                    f"expected {self.horizon - 1} edge weights, got shape {w.shape}"
                )
            if np.any(w < 0):
                raise ValueError("edge weights must be nonnegative")
            object.__setattr__(self, "edge_weights", w)

    def weights(self) -> np.ndarray:
        if self.edge_weights is None:
            return np.ones(self.horizon - 1)
        return self.edge_weights


def difference_matrix(horizon: int) -> np.ndarray:
    """First-order temporal difference matrix, shape (horizon-1, horizon).

    Row i maps a horizon field to field[i+1] - field[i].
    """
    if horizon < 2:
        raise InvalidHorizonError(f"difference matrix needs horizon >= 2, got {horizon}")
    D = np.zeros((horizon - 1, horizon))
    idx = np.arange(horizon - 1)
    D[idx, idx] = -1.0
    D[idx, idx + 1] = 1.0
    return D


def chain_laplacian(chain: TemporalChain) -> np.ndarray:
    """Graph Laplacian of the chain: D^T diag(w) D, tridiagonal."""
    w = chain.weights()
    H = chain.horizon
    L = np.zeros((H, H))
    deg = np.zeros(H)
    deg[:-1] += w
    deg[1:] += w
    L[np.arange(H), np.arange(H)] = deg
    L[np.arange(H - 1), np.arange(1, H)] = -w
    L[np.arange(1, H), np.arange(H - 1)] = -w
    return L


@dataclass(frozen=True)
class TransferOperator:
    """Dense inverse (L + alpha*I)^-1 of the regularized chain Laplacian.

    Symmetric positive definite for alpha > 0. Prefix columns of `matrix`
    propagate boundary evidence across the whole horizon. Immutable after
    construction; safe to share across threads.
    """

    horizon: int
    alpha: float
    matrix: np.ndarray = field(repr=False)

    def prefix_columns(self, length: int) -> np.ndarray:
        """Columns for boundary nodes 0..length-1, shape (horizon, length)."""
        return self.matrix[:, :length]


_operator_cache: dict[tuple[int, float], TransferOperator] = {}
_cache_lock = threading.Lock()


def build_transfer_operator(horizon: int, alpha: float) -> TransferOperator:
    """Build (or fetch from cache) the transfer operator for (horizon, alpha).

    The dense solve (L + alpha*I) P = I (LAPACK LU, `np.linalg.solve`) is
    done once per key; the matrix is well conditioned (condition number at
    most (4 + alpha) / alpha), so LU is as accurate here as a Cholesky
    solve. The rounded-alpha key avoids float aliasing between
    near-identical regularizers.
    """
    if horizon < 2:
        raise InvalidHorizonError(f"transfer operator needs horizon >= 2, got {horizon}")
    if not alpha > 0:
        raise InvalidRegularizerError(
            f"smoothness regularizer must be > 0 (matrix can be singular at 0), got {alpha}"
        )
    key = (int(horizon), round(float(alpha), 12))
    with _cache_lock:
        cached = _operator_cache.get(key)
    if cached is not None:
        return cached

    D = difference_matrix(horizon)
    A = D.T @ D + alpha * np.eye(horizon)
    P = np.linalg.solve(A, np.eye(horizon))
    P = 0.5 * (P + P.T)  # symmetrize away solve round-off
    P.flags.writeable = False
    op = TransferOperator(horizon=horizon, alpha=float(alpha), matrix=P)
    with _cache_lock:
        _operator_cache.setdefault(key, op)
        return _operator_cache[key]


def clear_operator_cache() -> None:
    with _cache_lock:
        _operator_cache.clear()


def dirichlet_energy(field_values: np.ndarray, chain: TemporalChain | None = None) -> float:
    """Discrete Dirichlet energy (1/2) * sum_h w_h * ||field[h+1] - field[h]||^2.

    Zero exactly when the field is constant along the horizon (unit weights).
    """
    F = np.atleast_2d(np.asarray(field_values, dtype=float))
    if F.shape[0] == 1 and F.shape[1] > 1 and np.ndim(field_values) == 1:
        F = F.T
    H = F.shape[0]
    if chain is None:
        chain = TemporalChain(H)
    if H != chain.horizon:
        raise ValueError(f"field has {H} rows but chain has horizon {chain.horizon}")
    diffs = np.diff(F, axis=0)
    return 0.5 * float(np.sum(chain.weights() * np.sum(diffs**2, axis=1)))


class EmptyBoundaryError(ValueError):
    """Harmonic extension needs at least one boundary node."""


def harmonic_extension(
    boundary_values: np.ndarray, horizon: int, chain: TemporalChain | None = None
) -> np.ndarray:
    """Exact Dirichlet-energy minimizer with prefix rows pinned to the boundary.

    Boundary occupies nodes 0..a-1; the interior solves the Laplacian system
    L_UU x = -L_UB b for all channels at once with one dense
    `np.linalg.solve`. On a unit-weight chain the one-sided boundary makes
    the interior a flat copy of the last boundary row. Returns the full
    (horizon, d) field.
    """
    B = np.atleast_2d(np.asarray(boundary_values, dtype=float))
    if np.ndim(boundary_values) == 1:
        B = B.T
    a = B.shape[0]
    if a < 1:
        raise EmptyBoundaryError("need at least one boundary row")
    if a >= horizon:
        return B[:horizon].copy()
    if chain is None:
        chain = TemporalChain(horizon)
    L = chain_laplacian(chain)
    L_UU = L[a:, a:]
    L_UB = L[a:, :a]
    interior = np.linalg.solve(L_UU, -L_UB @ B)
    return np.vstack([B, interior])
