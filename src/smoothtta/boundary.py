"""Turning delayed observations into a boundary for the correction solver.

The first few revealed target steps of a window, compared against the frozen
forecast, give a prefix error. That prefix is the boundary evidence everything
downstream consumes: the propagation solver reads the raw prefix error, the
global decoder reads a zero-padded full-horizon copy plus an observation mask.
Prefix length is tied to the dominant input period estimated from the
lookback spectrum, so the boundary covers a meaningful temporal scale instead
of an arbitrary number of steps.

Contamination (the robustness protocol) and sparse anchors draw prefix
positions and outlier signs exactly as `default_rng(seed).choice(a, k,
replace=False)` and `.integers(2, size=k)` would, replayed for many windows
at once from each window's raw `PCG64(seed).random_raw` stream, whose output
numpy keeps stable across releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OUTLIER_MAGNITUDE = 6.0  # contamination outliers, in units of the train-split per-channel std
_SIGNS = np.array([-1.0, 1.0])  # indexed by rng.integers(2): the draw rng.choice([-1.0, 1.0]) makes
_LOW32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class PrefixBoundary:
    """Revealed prefix error in its full-horizon masked representation.

    length        number of revealed steps a (0 means nothing revealed yet)
    padded_error  (H, d) observed minus forecast on the first a steps, zero after
    mask          (H,) 1.0 on observed steps, 0.0 elsewhere
    """

    length: int
    padded_error: np.ndarray
    mask: np.ndarray

    @property
    def prefix_error(self) -> np.ndarray:
        """(a, d) observed minus forecast on the revealed steps: `padded_error[:a]`."""
        return self.padded_error[: self.length]

    @property
    def horizon(self) -> int:
        return self.padded_error.shape[0]

    def is_empty(self) -> bool:
        return self.length == 0


def empty_boundary(horizon: int, channels: int) -> PrefixBoundary:
    """Sentinel for a pure zero-shot window: solver must return zero correction."""
    return PrefixBoundary(
        length=0,
        padded_error=np.zeros((horizon, channels)),
        mask=np.zeros(horizon),
    )


def estimate_periods(lookbacks: np.ndarray, fallback: int = 2) -> np.ndarray:
    """Dominant period of each lookback window in a (n, L, d) batch.

    Per window and channel the mean is removed and the real-input Fourier
    amplitude spectrum is taken; amplitudes are averaged across channels and
    the strongest nonzero-frequency bin k* wins, with ties broken toward the
    lower frequency (longer period). Returns round(L / k*) clamped to
    [2, L]. A flat lookback (peak amplitude at most 1e-12 times its largest
    absolute value, floored at 1) has an empty spectrum and falls back to the
    configured minimum prefix support.
    """
    X = np.asarray(lookbacks, dtype=float)
    n, L, d = X.shape
    if L < 4:
        raise ValueError(f"period estimation needs lookback length >= 4, got {L}")
    centered = X - np.add.reduce(X, axis=1, keepdims=True) / L
    spectrum = np.abs(np.fft.rfft(centered, axis=1))
    amplitude = np.add.reduce(spectrum, axis=2)[:, 1:] / d  # drop DC
    peak = np.maximum.reduce(amplitude, axis=1, initial=0.0)
    scale = np.maximum.reduce(np.abs(X).reshape(n, L * d), axis=1, initial=0.0)
    flat = peak <= 1e-12 * np.maximum(1.0, scale)
    k_star = np.argmax(amplitude, axis=1) + 1  # argmax takes the first (lowest) bin on ties
    period = np.minimum(L, np.maximum(2, np.rint(L / k_star).astype(int)))
    return np.where(flat, fallback, period)


def estimate_dominant_period(lookback: np.ndarray, fallback: int = 2) -> int:
    """Dominant period of one (L, d) or (L,) lookback; see `estimate_periods`."""
    X = np.asarray(lookback, dtype=float)
    X = X[:, None] if X.ndim == 1 else np.atleast_2d(X)
    return int(estimate_periods(X[None], fallback)[0])


def select_prefix_length(
    period: int, revealed_count: int, horizon: int, min_support: int
) -> int:
    """Prefix length: the period budget capped by availability and horizon.

    The period is an upper budget, not a guarantee; a minimum support floor
    keeps degenerate one-step periods from starving the boundary. Zero
    revealed steps means a zero-shot window (returns 0).
    """
    if revealed_count <= 0:
        return 0
    a = min(period, revealed_count, horizon)
    return max(a, min(min_support, revealed_count))


def build_boundary(
    observed_prefix: np.ndarray, forecast: np.ndarray, length: int
) -> PrefixBoundary:
    """Boundary from the first `length` revealed targets against the forecast."""
    forecast = np.asarray(forecast, dtype=float)
    horizon, channels = forecast.shape
    if length == 0:
        return empty_boundary(horizon, channels)
    if not 1 <= length <= horizon:
        raise ValueError(f"prefix length {length} outside [1, {horizon}]")
    observed = np.atleast_2d(np.asarray(observed_prefix, dtype=float))
    if np.ndim(observed_prefix) == 1:
        observed = observed.T
    if observed.shape != (length, channels):
        raise ValueError(
            f"observed prefix has shape {observed.shape}, expected {(length, channels)}"
        )
    padded = np.zeros((horizon, channels))
    padded[:length] = observed - forecast[:length]
    mask = np.zeros(horizon)
    mask[:length] = 1.0
    return PrefixBoundary(length=length, padded_error=padded, mask=mask)


class InvalidRatioError(ValueError):
    """Contamination ratio must lie in [0, 1]."""


def _uint32_draws(seeds, n: int) -> np.ndarray:
    """(rows, n rounded up to even) uint64: the first uint32 draws a Generator takes
    from each `PCG64(seed)`, the low half and then the high half of each raw output."""
    half = (n + 1) // 2
    raw = np.array([np.random.PCG64(s).random_raw(half) for s in seeds], np.uint64)
    raw = raw.reshape(len(seeds), half, 1)
    halves = np.concatenate([raw & _LOW32, raw >> np.uint64(32)], axis=2)
    return halves.reshape(len(seeds), 2 * half)


def derive_seeds(keys) -> list[int]:
    """`int(default_rng(key).integers(2**31))` per key: its first uint32 >> 1 (never rejects)."""
    return (_uint32_draws(keys, 1)[:, 0] >> np.uint64(1)).tolist()


def _bounded(seeds, bounds) -> np.ndarray:
    """(rows, len(bounds)): per seed, Generator's draws in [0, m] for each bound m in turn.

    Lemire's method: with x = u * (m + 1) the draw is x >> 32, and u is rejected
    while x mod 2**32 < (2**32 - (m + 1)) mod (m + 1); a row's cursor then moves
    one draw on, from that step to the end. m = 0 gives 0 and draws nothing.
    """
    excl = np.asarray(bounds, dtype=np.uint64) + np.uint64(1)
    threshold = (np.uint64(2**32) - excl) % excl
    drawing = excl > 1
    cursor = np.broadcast_to(np.cumsum(drawing) - drawing, (len(seeds), excl.size))
    u = _uint32_draws(seeds, excl.size + 2)
    while True:
        if cursor.max(initial=0) >= u.shape[1]:  # more rejections than the margin: draw on
            u = _uint32_draws(seeds, 2 * u.shape[1])
        x = np.take_along_axis(u, cursor, axis=1) * excl
        rejected = (x & _LOW32) < threshold
        if not rejected.any():
            return (x >> np.uint64(32)).astype(np.intp)
        first = np.where(rejected.any(axis=1), rejected.argmax(axis=1), excl.size)
        cursor = cursor + (np.arange(excl.size) >= first[:, None])


def prefix_hits(seeds, a: int, k: int, channels: int):
    """(positions, sign bits), each (rows, channels, k): per seed, what `default_rng(seed)`
    draws for `channels` rounds of `choice(a, k, replace=False)` then `integers(2, size=k)`.

    One pass over all rows replays numpy's `choice`: Floyd's algorithm (for j in
    a-k..a-1 take bounded(j), or j if that is taken) then a shuffle of the k
    picks, or, when a > 10000 and k > a // 50, a shuffle of the tail of
    arange(a). Each shuffle swaps i with bounded(i) for i downwards.
    """
    floyd = a <= 10000 or k <= a // 50
    picks = range(a - k, a) if floyd else range(0)
    swaps = range(k - 1, 0, -1) if floyd else range(a - 1, max(a - k, 1) - 1, -1)
    per_channel = [*picks, *swaps, *[1] * k]
    width = len(per_channel)
    draws = _bounded(seeds, per_channel * channels).reshape(len(seeds) * channels, width)
    rows = np.arange(draws.shape[0])
    chosen = np.empty((rows.size, k), np.intp) if floyd else np.tile(np.arange(a), (rows.size, 1))
    for t, j in enumerate(picks):
        chosen[:, t] = np.where((chosen[:, :t] == draws[:, t, None]).any(axis=1), j, draws[:, t])
    for t, i in enumerate(swaps, len(picks)):
        top = chosen[:, i].copy()
        chosen[:, i] = chosen[rows, draws[:, t]]
        chosen[rows, draws[:, t]] = top
    shape = (len(seeds), channels, k)
    return chosen[:, chosen.shape[1] - k :].reshape(shape), draws[:, width - k :].reshape(shape)


def contaminate_errors(
    padded_errors: np.ndarray,
    forecasts: np.ndarray,
    lengths,
    ratio: float,
    sigma: np.ndarray,
    rng_seeds,
) -> np.ndarray:
    """Replace a fraction of each window's prefix observations by large outliers.

    Fields are (n, H, d). For window i with prefix length a_i > 0, per
    channel in turn, k = ceil(ratio * a_i) prefix positions are drawn as
    `default_rng(rng_seeds[i]).choice(a_i, k, replace=False)` and their signs
    as `.integers(2, size=k)`; the observed value there becomes
    +-OUTLIER_MAGNITUDE * sigma_channel. The draws are replayed from each
    window's raw `PCG64(rng_seeds[i])` stream, one pass per prefix length
    (`prefix_hits`), so they are bit-reproducible. Returns the padded prefix
    errors rebuilt from the corrupted observations; evaluation targets are
    never touched.
    """
    if not 0.0 <= ratio <= 1.0:
        raise InvalidRatioError(f"contamination ratio must be in [0, 1], got {ratio}")
    n, horizon, channels = forecasts.shape
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (channels,))
    observed = padded_errors + forecasts
    lengths = np.asarray(lengths)
    for a in np.unique(lengths[lengths > 0]).tolist():
        rows = np.flatnonzero(lengths == a)
        pos, bits = prefix_hits([rng_seeds[i] for i in rows], a, math.ceil(ratio * a), channels)
        column = np.arange(channels)[:, None]
        outliers = _SIGNS[bits] * OUTLIER_MAGNITUDE * sigma[column]
        observed[rows[:, None, None], pos, column] = outliers
    inside = np.arange(horizon) < lengths[:, None]
    return np.where(inside[..., None], observed - forecasts, 0.0)


def contaminate_prefix(
    boundary: PrefixBoundary,
    forecast: np.ndarray,
    ratio: float,
    sigma: np.ndarray,
    rng_seed: int,
) -> PrefixBoundary:
    """One window's boundary under `contaminate_errors`; ratio 0 changes nothing."""
    if not 0.0 <= ratio <= 1.0:
        raise InvalidRatioError(f"contamination ratio must be in [0, 1], got {ratio}")
    if boundary.is_empty() or ratio == 0.0:
        return boundary
    forecast = np.asarray(forecast, dtype=float)
    padded = contaminate_errors(
        boundary.padded_error[None], forecast[None], [boundary.length], ratio, sigma, [rng_seed]
    )[0]
    return PrefixBoundary(length=boundary.length, padded_error=padded, mask=boundary.mask)
