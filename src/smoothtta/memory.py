"""Cross-window error memory.

Keeps an exponentially weighted template of full-horizon residuals over
completed windows, plus a small ring of per-window summary statistics that
the global decoder consumes as a context vector. Updates are only legal for
windows whose entire target horizon has been revealed; the rollout schedule
enforces that, and states are immutable so every window corrects against a
well-defined snapshot.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MemoryState:
    """Immutable snapshot of the error memory.

    template       (H, d) EMA of completed-window residuals
    context_ring   up to `context_size` (mean, mean_abs) summaries,
                   oldest first
    updates        number of applied updates (the snapshot version)
    decay          EMA retention factor rho in [0, 1]
    """

    template: np.ndarray
    context_ring: tuple[tuple[float, float], ...]
    updates: int
    decay: float
    context_size: int = 8
    empty_batch_warnings: int = 0

    def __post_init__(self):
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must lie in [0, 1], got {self.decay}")
        t = np.asarray(self.template, dtype=float)
        t.flags.writeable = False
        object.__setattr__(self, "template", t)

    @property
    def horizon(self) -> int:
        return self.template.shape[0]

    @property
    def channels(self) -> int:
        return self.template.shape[1]


def cold_start(horizon: int, channels: int, decay: float = 0.5, context_size: int = 8) -> MemoryState:
    """Zero template, empty ring: zero long-range correction before evidence."""
    return MemoryState(
        template=np.zeros((horizon, channels)),
        context_ring=(),
        updates=0,
        decay=decay,
        context_size=context_size,
    )


def fold_templates(template: np.ndarray, residuals, decay: float) -> np.ndarray:
    """The template after each of k single-residual EMA updates, entry 0 before any."""
    out = np.empty((len(residuals) + 1,) + template.shape)
    out[0] = template
    for j, r in enumerate(residuals):
        out[j + 1] = decay * out[j] + (1.0 - decay) * r
    return out


def residual_summaries(residuals: np.ndarray) -> np.ndarray:
    """(mean, mean_abs) of each (H, d) residual in a (k, H, d) stack, shape (k, 2)."""
    flat = residuals.reshape(len(residuals), -1)
    out = np.empty((len(flat), 2))
    out[:, 0] = np.add.reduce(flat, axis=1) / flat.shape[1]
    out[:, 1] = np.add.reduce(np.abs(flat), axis=1) / flat.shape[1]
    return out


def context_rows(summaries: np.ndarray, versions, context_size: int) -> np.ndarray:
    """Context vectors (n, 2K) of memories that have folded summaries[:versions[i]]."""
    K = context_size
    padded = np.zeros((K + len(summaries), 2))
    padded[K:] = summaries
    idx = np.asarray(versions)[:, None] + np.arange(K)
    return padded[idx].reshape(len(idx), 2 * K)


def update_memory(state: MemoryState, batch_residuals: list[np.ndarray]) -> MemoryState:
    """Fold a batch of completed-window residuals into the memory.

    template <- decay * template + (1 - decay) * batch_mean; the ring gets
    one (mean, mean_abs) summary per window in the batch. An empty batch
    logs a warning, counts it in `empty_batch_warnings` and does not advance
    the version counter. Caller is responsible for only passing residuals of
    fully revealed windows.
    """
    if len(batch_residuals) == 0:
        logger.warning("empty memory batch: nothing folded, version stays %d", state.updates)
        return replace(state, empty_batch_warnings=state.empty_batch_warnings + 1)
    shape = (state.horizon, state.channels)
    batch = np.empty((len(batch_residuals),) + shape)
    for j, r in enumerate(batch_residuals):
        r = np.asarray(r, dtype=float)
        if r.shape != shape:
            raise ValueError(f"residual shape {r.shape} does not match memory {shape}")
        batch[j] = r
    batch_mean = np.add.reduce(batch, axis=0) / len(batch)
    template = fold_templates(state.template, batch_mean[None], state.decay)[1]
    ring = state.context_ring + tuple(map(tuple, residual_summaries(batch).tolist()))
    return MemoryState(template, ring[-state.context_size:], state.updates + 1, state.decay,
                       state.context_size, state.empty_batch_warnings)


def context_vector(state: MemoryState) -> np.ndarray:
    """Flat length-2K context: (mean, mean_abs) per ring slot, oldest first.

    Slots without a completed window yet are zero, padded at the front so
    the newest window always sits at the end of the vector.
    """
    K = state.context_size
    ring = state.context_ring[-K:]
    out = np.zeros(2 * K)
    out[2 * (K - len(ring)) :] = [v for summary in ring for v in summary]
    return out
