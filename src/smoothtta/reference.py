"""Reference oracles for the acceptance suite and the local-branch tests.

Nothing here is on the solver path. `harmonic_extension` solves the chain
Laplacian of a `TemporalChain` exactly with the prefix pinned to the
boundary; the acceptance suite (`tests/test_acceptance.py`) and demo 01
check the paper's harmonic-extension claim on it (a stationary field whose
`dirichlet_energy` no boundary-fixed perturbation lowers).
`propagate_fast_error` and `bias_field` build the local branch's two basis
fields one window at a time; `tests/test_local.py` checks the batched
`local.solve_local` against this step-by-step reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import InvalidHorizonError, TransferOperator


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


def propagate_fast_error(op: TransferOperator, fast_error: np.ndarray) -> np.ndarray:
    """Extend the fast prefix error across the horizon: P[:, :a] @ R_fast."""
    R = np.asarray(fast_error, dtype=float)
    a = R.shape[0]
    if a > op.horizon:
        raise ValueError(f"prefix length {a} exceeds operator horizon {op.horizon}")
    return op.prefix_columns(a) @ R


def bias_field(prefix_error: np.ndarray, horizon: int) -> np.ndarray:
    """Rank-one field repeating the prefix-mean error down the horizon."""
    R = np.asarray(prefix_error, dtype=float)
    mu = R.mean(axis=0)
    return np.tile(mu, (horizon, 1))
