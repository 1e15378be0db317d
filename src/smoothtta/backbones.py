"""Frozen forecasting backbones behind a single predict interface.

The correction solver never looks inside a backbone; it only needs a frozen
(L, d) -> (H, d) map. Provided here: a closed-form linear (ridge) forecaster
fit offline on sliding windows, a biased oracle fixture whose residual field
is known by construction, and a per-window normalization wrapper. All
parameters are immutable after fitting; a digest over the parameter block
lets the harness verify nothing moved during a rollout.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import paramio


class FitError(RuntimeError):
    """Insufficient data to fit the requested backbone."""


def _digest_arrays(*arrays: np.ndarray) -> str:
    md = hashlib.sha256()
    for arr in arrays:
        md.update(np.ascontiguousarray(arr, dtype=np.float64))  # the bytes of tobytes(), uncopied
    return md.hexdigest()


class LinearForecaster:
    """Direct multi-step linear map per channel, ridge-fit with intercept.

    For each channel the full horizon is regressed on the lookback at once
    (one (L, H) weight block per channel), so prediction is a single matrix
    product. The intercept is left unpenalized by centering.
    """

    kind = "linear"

    def __init__(self, lookback: int, horizon: int, weights: np.ndarray, intercepts: np.ndarray):
        # weights (d, L, H); intercepts (d, H)
        self.lookback = lookback
        self.horizon = horizon
        self.weights = np.asarray(weights, dtype=float)
        self.intercepts = np.asarray(intercepts, dtype=float)
        self.channels = self.weights.shape[0]
        self.weights.flags.writeable = False
        self.intercepts.flags.writeable = False

    def predict(self, X: np.ndarray, start: int | None = None) -> np.ndarray:
        return self.predict_batch(np.asarray(X, dtype=float)[None])[0]

    def predict_batch(self, X: np.ndarray, starts=None) -> np.ndarray:
        """(n, L, d) lookbacks -> (n, H, d) forecasts, one product stacked over the channels."""
        X = np.asarray(X, dtype=float)
        if X.shape[1:] != (self.lookback, self.channels):
            raise ValueError(
                f"lookback shape {X.shape[1:]}, fitted for {(self.lookback, self.channels)}"
            )
        out = np.empty((X.shape[0], self.horizon, self.channels))
        # no copies: each channel's (n, L) view keeps the strides, and so the bits, of X[:, :, c]
        np.matmul(X.transpose(2, 0, 1), self.weights, out=out.transpose(2, 0, 1))
        out += self.intercepts.T
        return out

    def param_digest(self) -> str:
        return _digest_arrays(self.weights, self.intercepts)


def predict_batch(backbone, X: np.ndarray, starts) -> np.ndarray:
    """Forecasts (n, H, d) for lookbacks (n, L, d) whose targets start at `starts`.

    Uses the backbone's own `predict_batch(X, starts)` when it has one and
    otherwise calls `predict` window by window, in order.
    """
    batch = getattr(backbone, "predict_batch", None)
    if batch is not None:
        return batch(X, starts)
    return np.stack([backbone.predict(x, start=t) for x, t in zip(X, starts)])


def fit_linear_backbone(
    train_series: np.ndarray, lookback: int, horizon: int, ridge_strength: float = 1e-3
) -> LinearForecaster:
    """Ridge-fit the lookback-to-horizon map over every sliding train window."""
    Y = np.asarray(train_series, dtype=float)
    T, d = Y.shape
    n_windows = T - lookback - horizon + 1
    if n_windows < 1:
        raise FitError(
            f"need at least lookback + horizon = {lookback + horizon} points, got {T}"
        )
    weights = np.empty((d, lookback, horizon))
    intercepts = np.empty((d, horizon))
    starts = np.arange(n_windows)
    for c in range(d):
        col = Y[:, c]
        X = np.lib.stride_tricks.sliding_window_view(col, lookback)[starts]
        targets = np.lib.stride_tricks.sliding_window_view(col, horizon)[starts + lookback]
        x_mean = X.mean(axis=0)
        t_mean = targets.mean(axis=0)
        Xc = X - x_mean
        Tc = targets - t_mean
        G = Xc.T @ Xc + ridge_strength * np.eye(lookback)
        W = np.linalg.solve(G, Xc.T @ Tc)
        weights[c] = W
        intercepts[c] = t_mean - x_mean @ W
    return LinearForecaster(lookback, horizon, weights, intercepts)


class BiasedOracleForecaster:
    """Test fixture: the reference trajectory plus a fixed bias field.

    Constructed from a reference series (e.g. the clean component of a
    synthetic stream, or the dataset itself); predictions read the reference
    at the window position, so the residual field is known analytically.
    Needs the window's first target index via `start`.
    """

    kind = "oracle-with-bias"

    def __init__(self, reference: np.ndarray, lookback: int, horizon: int, bias: np.ndarray):
        self.reference = np.asarray(reference, dtype=float)
        self.lookback = lookback
        self.horizon = horizon
        self.channels = self.reference.shape[1]
        bias = np.asarray(bias, dtype=float)
        self.bias = np.broadcast_to(bias, (horizon, self.channels)).copy()
        self.reference.flags.writeable = False
        self.bias.flags.writeable = False

    def predict(self, X: np.ndarray, start: int | None = None) -> np.ndarray:
        if start is None:
            raise ValueError("oracle backbone needs the window start index")
        if start + self.horizon > self.reference.shape[0]:
            raise ValueError("window extends past the oracle reference series")
        return self.reference[start : start + self.horizon] + self.bias

    def param_digest(self) -> str:
        return _digest_arrays(self.bias)


class NormalizationWrapper:
    """Per-window standardize/de-standardize shell around a backbone.

    The lookback's per-channel mean/std standardize the input and exactly
    invert on the output (std floored at 1e-8 for flat channels).
    """

    STD_FLOOR = 1e-8

    def __init__(self, inner):
        self.inner = inner
        self.kind = f"norm({inner.kind})"
        self.lookback, self.horizon, self.channels = inner.lookback, inner.horizon, inner.channels

    def predict(self, X: np.ndarray, start: int | None = None) -> np.ndarray:
        return self.predict_batch(np.asarray(X, dtype=float)[None], [start])[0]

    def predict_batch(self, X: np.ndarray, starts) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        mu = X.mean(axis=1, keepdims=True)
        sd = np.maximum(X.std(axis=1, keepdims=True), self.STD_FLOOR)
        return predict_batch(self.inner, (X - mu) / sd, starts) * sd + mu

    def param_digest(self) -> str:
        return self.inner.param_digest()


def save_backbone(forecaster: LinearForecaster, path) -> None:
    header = {
        "kind": forecaster.kind,
        "lookback": forecaster.lookback,
        "horizon": forecaster.horizon,
        "channels": forecaster.channels,
    }
    paramio.save_blocks(
        path, header, {"weights": forecaster.weights, "intercepts": forecaster.intercepts}
    )


def load_backbone(path) -> LinearForecaster:
    """The saved linear backbone; ValueError if the header and blocks disagree."""
    header, blocks = paramio.load_blocks(path)
    if header.get("kind") != "linear":
        raise ValueError(f"unsupported backbone kind {header.get('kind')!r}")
    L, H, d = (paramio.header_number(header, k) for k in ("lookback", "horizon", "channels"))
    shapes = {name: arr.shape for name, arr in blocks.items()}
    if shapes != {"weights": (d, L, H), "intercepts": (d, H)}:
        raise ValueError(f"blocks {shapes} do not fit the header's (L, H, d) = {(L, H, d)}")
    return LinearForecaster(L, H, blocks["weights"], blocks["intercepts"])
