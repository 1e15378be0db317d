"""Turning delayed observations into a boundary for the correction solver.

The first few revealed target steps of a window, compared against the frozen
forecast, give a prefix error. That prefix is the boundary evidence everything
downstream consumes: the propagation solver reads the raw prefix error, the
global decoder reads a zero-padded full-horizon copy plus an observation mask.
Prefix length is tied to the dominant input period estimated from the
lookback spectrum, so the boundary covers a meaningful temporal scale instead
of an arbitrary number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OUTLIER_MAGNITUDE = 6.0  # contamination outliers, in units of the train-split per-channel std
_SIGNS = np.array([-1.0, 1.0])  # indexed by rng.integers(2): the draw rng.choice([-1.0, 1.0]) makes


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


def contaminate_errors(
    padded_errors: np.ndarray,
    forecasts: np.ndarray,
    lengths,
    ratio: float,
    sigma: np.ndarray,
    rng_seeds,
) -> np.ndarray:
    """Replace a fraction of each window's prefix observations by large outliers.

    Fields are (n, H, d). For window i, per channel, ceil(ratio * a_i)
    prefix positions are drawn without replacement from
    `default_rng(rng_seeds[i])` (so bit-reproducible) and the observed value
    there is replaced by +-OUTLIER_MAGNITUDE * sigma_channel with a uniform
    random sign. Returns the padded prefix errors rebuilt from the corrupted
    observations; evaluation targets are never touched.
    """
    if not 0.0 <= ratio <= 1.0:
        raise InvalidRatioError(f"contamination ratio must be in [0, 1], got {ratio}")
    n, horizon, channels = forecasts.shape
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (channels,))
    observed = padded_errors + forecasts
    for i, (a, seed) in enumerate(zip(lengths, rng_seeds)):
        n_hit = math.ceil(ratio * a)
        rng = np.random.default_rng(seed)
        for c in range(channels):
            pos = rng.choice(a, size=n_hit, replace=False)
            signs = _SIGNS[rng.integers(2, size=n_hit)]
            observed[i, pos, c] = signs * OUTLIER_MAGNITUDE * sigma[c]
    inside = np.arange(horizon) < np.asarray(lengths)[:, None]
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
    a = boundary.length
    forecast = np.asarray(forecast, dtype=float)
    padded = contaminate_errors(
        boundary.padded_error[None], forecast[None], [a], ratio, sigma, [rng_seed]
    )[0]
    mask = (np.arange(boundary.horizon) < a).astype(float)
    return PrefixBoundary(length=a, padded_error=padded, mask=mask)
