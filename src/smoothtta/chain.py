"""Operators on the 1-D temporal chain over horizon steps.

The prediction horizon is treated as a path graph with one node per step.
Correction fields live on this graph; smoothness is measured by the discrete
Dirichlet energy of adjacent-step differences. This module builds the
first-order difference matrix and, from it, the cached regularized transfer
operator (L + alpha*I)^-1 used for error propagation. The exact
harmonic-extension oracle lives in `reference`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


class InvalidHorizonError(ValueError):
    """Horizon too short to carry a chain (needs at least 2 steps)."""


class InvalidRegularizerError(ValueError):
    """Smoothness regularizer must be finite, with 1 + alpha > 1 in floating point."""


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
    solve. The key is alpha itself, so two regularizers share an operator
    only when they are the same float.
    """
    if horizon < 2:
        raise InvalidHorizonError(f"transfer operator needs horizon >= 2, got {horizon}")
    if not 1.0 < 1.0 + alpha < np.inf:
        raise InvalidRegularizerError(
            "smoothness regularizer must be finite with 1 + alpha > 1 (else the matrix "
            f"rounds to the singular chain Laplacian), got {alpha}"
        )
    key = (int(horizon), float(alpha))
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
