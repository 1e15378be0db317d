"""Horizon-ramped bounded fusion of the local and global correction fields.

A logistic gate over the normalized horizon position shifts influence from
the local propagation branch (trustworthy near the revealed boundary) to the
global memory branch (needed at distant steps), and an elementwise clip keeps
the final correction bounded no matter how corrupted the boundary evidence
was. Step indices run 0..H-1 so the gate argument h/H starts at exactly 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FusionSchedule:
    """Gate and bound parameters of the fusion stage."""

    global_mix: float = 0.7       # weight of the global branch (gamma)
    ramp_sharpness: float = 8.0   # logistic steepness (kappa)
    ramp_midpoint: float = 0.25   # normalized transition position (tau)
    correction_clip: float = 2.5  # final elementwise bound; inf disables

    def __post_init__(self):
        if not self.correction_clip > 0:
            raise ValueError(f"correction clip must be > 0, got {self.correction_clip}")
        if not 0 < self.ramp_sharpness < np.inf:
            raise ValueError(f"ramp sharpness must be finite and > 0, got {self.ramp_sharpness}")
        if not 0.0 <= self.ramp_midpoint <= 1.0:
            raise ValueError(f"ramp midpoint must lie in [0, 1], got {self.ramp_midpoint}")
        if not 0 <= self.global_mix < np.inf:
            raise ValueError(f"global mix must be finite and >= 0, got {self.global_mix}")

    def transition_step(self, horizon: int) -> int:
        """Step at which the gate crosses one half: round(midpoint * horizon)."""
        return int(round(self.ramp_midpoint * horizon))


def ramp(schedule: FusionSchedule, horizon: int) -> np.ndarray:
    """Gate values q(h) = sigmoid(kappa * (h/H - tau)) for h = 0..H-1.

    Strictly increasing in h; q -> sigmoid(kappa * (1 - tau)) toward the
    horizon end.
    """
    u = np.arange(horizon) / horizon
    return 1.0 / (1.0 + np.exp(-schedule.ramp_sharpness * (u - schedule.ramp_midpoint)))


def global_gate(schedule: FusionSchedule, horizon: int) -> np.ndarray:
    """Effective per-step coefficient of the global branch: gamma * q(h)."""
    return schedule.global_mix * ramp(schedule, horizon)


@functools.lru_cache(maxsize=64)
def gate_column(schedule: FusionSchedule, horizon: int) -> np.ndarray:
    """`global_gate` as a read-only (H, 1) column, built once per (schedule, horizon)."""
    gate = global_gate(schedule, horizon)
    gate.flags.writeable = False
    return gate[:, None]


def fuse(
    local_field: np.ndarray,
    global_field: np.ndarray,
    schedule: FusionSchedule,
) -> np.ndarray:
    """clip(local + gamma * q(h) * global, -c, c), elementwise.

    Fields are (H, d), or (n, H, d) for n windows at once. The max norm of
    the result never exceeds the clip, which is what keeps contaminated
    boundaries from producing unbounded corrections. Non-finite inputs (NaN
    or +-inf) are rejected up front instead of being laundered through the
    clip.
    """
    local_field = np.asarray(local_field, dtype=float)
    global_field = np.asarray(global_field, dtype=float)
    if local_field.shape != global_field.shape:
        raise ValueError(
            f"field shapes differ: {local_field.shape} vs {global_field.shape}"
        )
    if not (np.isfinite(local_field).all() and np.isfinite(global_field).all()):
        raise ValueError("correction fields contain non-finite values (NaN or inf)")
    out = local_field + gate_column(schedule, local_field.shape[-2]) * global_field
    c = schedule.correction_clip
    return out.clip(-c, c, out=out)


def normalized_shares(schedule: FusionSchedule, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Local/global mixing shares under equal-magnitude responses.

    w_local = 1 / (1 + gamma*q), w_global = gamma*q / (1 + gamma*q); the two
    always sum to one. A visualization of relative mixing pressure, not a
    learned gate.
    """
    g = global_gate(schedule, horizon)
    w_local = 1.0 / (1.0 + g)
    return w_local, 1.0 - w_local


def apply_correction(forecast: np.ndarray, correction: np.ndarray) -> np.ndarray:
    """Corrected forecast: zero-shot output plus the bounded correction field."""
    forecast = np.asarray(forecast, dtype=float)
    correction = np.asarray(correction, dtype=float)
    if forecast.shape != correction.shape:
        raise ValueError(
            f"forecast shape {forecast.shape} does not match correction {correction.shape}"
        )
    return forecast + correction


def schedule_table(schedule: FusionSchedule, horizon: int) -> list[dict]:
    """Per-step gate and share values, ready for CSV dumping or plotting."""
    q = ramp(schedule, horizon)
    w_local, w_global = normalized_shares(schedule, horizon)
    return [
        {
            "step": h,
            "position": h / horizon,
            "gate": float(q[h]),
            "global_coefficient": float(schedule.global_mix * q[h]),
            "local_share": float(w_local[h]),
            "global_share": float(w_global[h]),
        }
        for h in range(horizon)
    ]
