"""Closed-form local correction branch.

Splits the prefix error into a slow drift (removed), a fast component
(propagated smoothly across the horizon through the transfer operator), and
a systematic level offset (repeated as a rank-one bias field). A tiny
per-channel ridge fit then mixes the two fields against the observed prefix,
with the coefficients clipped so sparse evidence can never be over-amplified.
No trainable weights anywhere in this branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransferOperator


@dataclass(frozen=True)
class LocalCorrection:
    """Local branch output: the two basis fields, fitted coefficients, result.

    coefficients is (2, d): row 0 scales the propagated field, row 1 the bias
    field, already clipped to the configured box. Batched solves put the
    window axis first on every field.
    """

    harmonic_field: np.ndarray
    bias_field: np.ndarray
    coefficients: np.ndarray
    combined: np.ndarray


def extract_fast_error(prefix_error: np.ndarray) -> np.ndarray:
    """Remove slow drift from the prefix error by least squares, per channel.

    The projection span degrades with prefix length: constant + linear for
    a >= 3, constant only for a = 2 (a two-point linear fit would annihilate
    everything), and the identity for a = 1.
    """
    R = np.asarray(prefix_error, dtype=float)
    a = R.shape[0]
    if a <= 1:
        return R.copy()
    h = np.arange(1, a + 1, dtype=float)
    if a == 2:
        basis = np.ones((a, 1))
    else:
        basis = np.column_stack([np.ones(a), h])
    coef, *_ = np.linalg.lstsq(basis, R, rcond=None)
    return R - basis @ coef


class InvalidRidgeError(ValueError):
    """Ridge coefficient must be strictly positive (keeps the 2x2 solve regular)."""


def fit_bounded_response(
    harmonic: np.ndarray,
    bias: np.ndarray,
    prefix_error: np.ndarray,
    ridge_coef: float = 0.03,
    coef_clip: float = 0.5,
    response_mix: float = 0.55,
) -> LocalCorrection:
    """Per-channel 2-parameter ridge fit of the basis fields to the prefix.

    Solves min ||B_prefix beta - r||^2 + ridge * ||beta||^2 for each channel
    with B = [harmonic, bias], clips beta into [-coef_clip, coef_clip], and
    scales the combined field by response_mix. Leading (window) axes are
    fitted together as one stacked 2x2 solve. A system left singular because
    the ridge is lost in rounding (collinear fields, as at a 1-step prefix)
    takes its least-squares solution, which the box then clips.
    """
    if not ridge_coef > 0:
        raise InvalidRidgeError(f"ridge coefficient must be > 0, got {ridge_coef}")
    R = np.asarray(prefix_error, dtype=float)
    a = R.shape[-2]
    h, b = harmonic[..., :a, :], bias[..., :a, :]
    G = np.empty(R.shape[:-2] + R.shape[-1:] + (2, 2))
    G[..., 0, 0] = np.add.reduce(h * h, axis=-2) + ridge_coef
    G[..., 0, 1] = G[..., 1, 0] = np.add.reduce(h * b, axis=-2)
    G[..., 1, 1] = np.add.reduce(b * b, axis=-2) + ridge_coef
    rhs = np.empty(G.shape[:-1] + (1,))
    rhs[..., 0, 0] = np.add.reduce(h * R, axis=-2)
    rhs[..., 1, 0] = np.add.reduce(b * R, axis=-2)
    beta = np.swapaxes(_solve_2x2(G, rhs)[..., 0], -1, -2)
    beta.clip(-coef_clip, coef_clip, out=beta)
    combined = response_mix * (harmonic * beta[..., :1, :] + bias * beta[..., 1:, :])
    return LocalCorrection(
        harmonic_field=harmonic, bias_field=bias, coefficients=beta, combined=combined
    )


def _solve_2x2(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """`np.linalg.solve` of stacked systems; a singular one gets its least-squares solution.

    Regular systems keep the bits of the stacked solve, which runs the same
    LAPACK routine system by system.
    """
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for i in np.ndindex(G.shape[:-2]):
            try:
                out[i] = np.linalg.solve(G[i], rhs[i])
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(G[i], rhs[i], rcond=None)[0]
        return out


_propagators: dict[tuple[int, float, int], np.ndarray] = {}


def _propagator(op: TransferOperator, a: int) -> np.ndarray:
    """Cached (H, a) map from a raw prefix error to its propagated fast part."""
    key = (op.horizon, op.alpha, a)
    if key not in _propagators:  # drift removal is linear: its matrix is the fast part of I
        _propagators[key] = op.prefix_columns(a) @ extract_fast_error(np.eye(a))
    return _propagators[key]


def solve_local(
    boundary_error: np.ndarray,
    op: TransferOperator,
    ridge_coef: float = 0.03,
    coef_clip: float = 0.5,
    response_mix: float = 0.55,
) -> LocalCorrection:
    """Full local branch: drift removal, propagation, bias, bounded fit.

    boundary_error is (a, d), or (n, a, d) for n windows sharing the prefix
    length a; every field of the result then has the same leading axes.
    """
    R = np.asarray(boundary_error, dtype=float)
    *lead, a, d = R.shape
    H, k = op.horizon, len(lead)
    if a == 0:
        zero = np.zeros((*lead, H, d))
        return LocalCorrection(zero, zero.copy(), np.zeros((*lead, 2, d)), zero.copy())
    if a > H:
        raise ValueError(f"prefix length {a} exceeds operator horizon {H}")
    columns = R.transpose(k, *range(k), k + 1).reshape(a, -1)  # every (window, channel) at once
    harm = (_propagator(op, a) @ columns).reshape(H, *lead, d).transpose(*range(1, k + 1), 0, k + 1)
    level = np.add.reduce(R, axis=-2, keepdims=True) / a
    # the level repeated along the steps as a read-only stride-0 view, as np.broadcast_to makes
    bias = np.ndarray(harm.shape, float, level, strides=level.strides[:-2] + (0, level.itemsize))
    bias.flags.writeable = False
    return fit_bounded_response(harm, bias, R, ridge_coef, coef_clip, response_mix)
