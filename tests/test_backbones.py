import hashlib
import logging
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothtta.backbones import (
    BiasedOracleForecaster,
    FitError,
    NormalizationWrapper,
    fit_linear_backbone,
    load_backbone,
    save_backbone,
)


def test_linear_backbone_extrapolates_pure_trend():
    # independent oracle: on y_t = t the best linear one-step map is exact,
    # so lookback [1,2,3,4] must forecast [5,6]
    series = np.arange(1.0, 401.0)[:, None]
    fc = fit_linear_backbone(series, lookback=4, horizon=2, ridge_strength=1e-9)
    pred = fc.predict(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert np.allclose(pred.ravel(), [5.0, 6.0], atol=1e-6)


def test_linear_backbone_constant_series_predicts_constant():
    series = np.full((300, 2), 3.3)
    fc = fit_linear_backbone(series, lookback=8, horizon=4)
    pred = fc.predict(np.full((8, 2), 3.3))
    assert np.allclose(pred, 3.3, atol=1e-8)


def test_linear_backbone_huge_ridge_falls_back_to_mean():
    rng = np.random.default_rng(0)
    series = rng.standard_normal((500, 1)) + 2.0
    fc = fit_linear_backbone(series, lookback=6, horizon=3, ridge_strength=1e12)
    pred = fc.predict(rng.standard_normal((6, 1)) + 2.0)
    # map ~ 0, prediction ~ train target mean
    assert np.allclose(pred, series.mean(), atol=0.05)


def test_linear_backbone_insufficient_data():
    with pytest.raises(FitError):
        fit_linear_backbone(np.zeros((10, 1)), lookback=8, horizon=4)


def test_linear_backbone_rejects_wrong_shape():
    series = np.random.default_rng(1).standard_normal((200, 2))
    fc = fit_linear_backbone(series, lookback=6, horizon=3)
    with pytest.raises(ValueError):
        fc.predict(np.zeros((5, 2)))


def test_linear_backbone_params_frozen_and_digest_stable():
    series = np.random.default_rng(2).standard_normal((200, 1))
    fc = fit_linear_backbone(series, lookback=6, horizon=3)
    digest = fc.param_digest()
    with pytest.raises(ValueError):
        fc.weights[0, 0, 0] = 5.0
    fc.predict(series[:6])
    assert fc.param_digest() == digest


def test_oracle_with_bias_residual_is_minus_bias():
    rng = np.random.default_rng(3)
    series = rng.standard_normal((50, 2))
    fc = BiasedOracleForecaster(series, lookback=8, horizon=4, bias=np.float64(0.3))
    start = 20
    pred = fc.predict(series[start - 8 : start], start=start)
    residual = series[start : start + 4] - pred
    assert np.allclose(residual, -0.3, atol=1e-12)


def test_oracle_requires_start_index():
    fc = BiasedOracleForecaster(np.zeros((20, 1)), lookback=4, horizon=2, bias=np.float64(0.0))
    with pytest.raises(ValueError, match="start"):
        fc.predict(np.zeros((4, 1)))


def test_normalization_wrapper_affine_equivariance():
    rng = np.random.default_rng(5)
    series = rng.standard_normal((400, 2))
    inner = fit_linear_backbone(series, lookback=8, horizon=4)
    wrapped = NormalizationWrapper(inner)
    X = rng.standard_normal((8, 2))
    base = wrapped.predict(X)
    scaled = X.copy()
    scaled[:, 0] = 3.0 * X[:, 0] + 7.0
    out = wrapped.predict(scaled)
    assert np.allclose(out[:, 0], 3.0 * base[:, 0] + 7.0, atol=1e-9)
    assert np.allclose(out[:, 1], base[:, 1], atol=1e-12)


def test_normalization_round_trip_on_lookback_statistics():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 3)) * 4 + 1

    class Echo:
        kind = "echo"
        lookback, horizon, channels = 10, 10, 3

        def predict(self, Xn, start=None):
            return Xn.copy()

        def param_digest(self):
            return "echo"

    wrapped = NormalizationWrapper(Echo())
    assert np.abs(wrapped.predict(X) - X).max() < 1e-10


def test_normalization_handles_flat_channel():
    class Echo:
        kind = "echo"
        lookback, horizon, channels = 6, 6, 1

        def predict(self, Xn, start=None):
            return Xn.copy()

        def param_digest(self):
            return "echo"

    X = np.full((6, 1), 4.0)
    out = NormalizationWrapper(Echo()).predict(X)
    assert np.all(np.isfinite(out))
    assert np.allclose(out, 4.0)


def test_backbone_file_round_trip(tmp_path):
    series = np.random.default_rng(7).standard_normal((300, 2))
    fc = fit_linear_backbone(series, lookback=8, horizon=4)
    path = tmp_path / "backbone.params"
    save_backbone(fc, path)
    loaded = load_backbone(path)
    assert loaded.param_digest() == fc.param_digest()
    X = series[:8]
    assert np.array_equal(loaded.predict(X), fc.predict(X))


def test_batched_prediction_matches_per_window_formulas():
    rng = np.random.default_rng(9)
    series = rng.standard_normal((300, 3))
    inner = fit_linear_backbone(series, lookback=8, horizon=5)
    X = rng.standard_normal((6, 8, 3))
    batch = inner.predict_batch(X)
    for i in range(6):
        ref = np.column_stack(
            [X[i, :, c] @ inner.weights[c] + inner.intercepts[c] for c in range(3)]
        )
        assert np.allclose(batch[i], ref, rtol=1e-12, atol=1e-14)
    wrapped = NormalizationWrapper(inner)
    normed = wrapped.predict_batch(X, [None] * 6)
    for i in range(6):
        mu, sd = X[i].mean(axis=0), np.maximum(X[i].std(axis=0), wrapped.STD_FLOOR)
        ref = inner.predict((X[i] - mu) / sd) * sd + mu
        assert np.allclose(normed[i], ref, rtol=1e-12, atol=1e-14)


def test_linear_backbone_digest_is_the_sha256_of_the_parameter_bytes():
    # saved digests were computed from tobytes(); hashing the arrays directly must agree
    series = np.random.default_rng(2).standard_normal((300, 3))
    fc = fit_linear_backbone(series, lookback=8, horizon=5)
    md = hashlib.sha256(fc.weights.tobytes())
    md.update(fc.intercepts.tobytes())
    assert fc.param_digest() == md.hexdigest()


def _old_fit(train_series, lookback, horizon, ridge_strength):
    """The fit as it was, centring copies of the windows: the oracle for the in-place centring."""
    Y = np.asarray(train_series, dtype=float)
    starts = np.arange(Y.shape[0] - lookback - horizon + 1)
    weights, intercepts = [], []
    for col in Y.T:
        X = np.lib.stride_tricks.sliding_window_view(col, lookback)[starts]
        targets = np.lib.stride_tricks.sliding_window_view(col, horizon)[starts + lookback]
        x_mean = X.mean(axis=0)
        t_mean = targets.mean(axis=0)
        Xc = X - x_mean
        Tc = targets - t_mean
        G = Xc.T @ Xc + ridge_strength * np.eye(lookback)
        W = np.linalg.solve(G, Xc.T @ Tc)
        weights.append(W)
        intercepts.append(t_mean - x_mean @ W)
    return np.array(weights), np.array(intercepts)


@settings(max_examples=30, deadline=None)
@given(
    lookback=st.integers(1, 24),
    horizon=st.integers(1, 24),
    extra=st.integers(0, 60),
    channels=st.integers(1, 3),
    ridge=st.sampled_from([1e-9, 1e-3, 1.0, 1e6]),
    seed=st.integers(0, 2**16),
)
def test_linear_backbone_fit_matches_the_copying_fit_bit_for_bit(
    lookback, horizon, extra, channels, ridge, seed
):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((lookback + horizon + extra, channels)).cumsum(axis=0)
    fc = fit_linear_backbone(series, lookback, horizon, ridge)
    weights, intercepts = _old_fit(series, lookback, horizon, ridge)
    assert fc.weights.tobytes() == weights.tobytes()
    assert fc.intercepts.tobytes() == intercepts.tobytes()


def _serial_fit(train_series, lookback, horizon, ridge_strength):
    """The fit on the calling thread alone, channel after channel, centring in place."""
    Y = np.asarray(train_series, dtype=float)
    d = Y.shape[1]
    starts = np.arange(Y.shape[0] - lookback - horizon + 1)
    weights, intercepts = np.empty((d, lookback, horizon)), np.empty((d, horizon))
    for c in range(d):
        col = Y[:, c]
        X = np.lib.stride_tricks.sliding_window_view(col, lookback)[starts]
        targets = np.lib.stride_tricks.sliding_window_view(col, horizon)[starts + lookback]
        x_mean = X.mean(axis=0)
        t_mean = targets.mean(axis=0)
        X -= x_mean
        targets -= t_mean
        G = X.T @ X + ridge_strength * np.eye(lookback)
        W = np.linalg.solve(G, X.T @ targets)
        weights[c] = W
        intercepts[c] = t_mean - x_mean @ W
    return weights, intercepts


@settings(max_examples=40, deadline=None)
@given(
    channels=st.sampled_from([1, 2, 3, 7]),
    lookback=st.integers(1, 20),
    horizon=st.integers(1, 20),
    extra=st.integers(0, 50),
    ridge=st.sampled_from([1e-9, 1e-3, 1.0, 1e6]),
    seed=st.integers(0, 2**16),
)
def test_two_thread_fit_equals_the_serial_per_channel_fit_byte_for_byte(
    channels, lookback, horizon, extra, ridge, seed
):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((lookback + horizon + extra, channels)).cumsum(axis=0)
    fc = fit_linear_backbone(series, lookback, horizon, ridge)
    weights, intercepts = _serial_fit(series, lookback, horizon, ridge)
    assert fc.weights.tobytes() == weights.tobytes()
    assert fc.intercepts.tobytes() == intercepts.tobytes()


def test_fit_logs_each_channel_fitted_once_under_rapid_thread_switches(caplog):
    series = np.random.default_rng(4).standard_normal((200, 7))
    weights, intercepts = _serial_fit(series, 12, 6, 1e-3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a lost or doubled take of the shared counter shows here
    try:
        for _ in range(20):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="smoothtta.backbones"):
                fc = fit_linear_backbone(series, lookback=12, horizon=6)
            (record,) = [r for r in caplog.records if r.name == "smoothtta.backbones"]
            assert record.levelno == logging.INFO
            seconds, mine, theirs = record.args  # wall time, then each thread's channels
            assert seconds >= 0.0
            assert sorted(mine + theirs) == list(range(7))
            assert fc.weights.tobytes() == weights.tobytes()
            assert fc.intercepts.tobytes() == intercepts.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_an_error_in_the_helpers_channel_reaches_the_caller_unchanged(monkeypatch):
    error = np.linalg.LinAlgError("the helper's channel is singular")
    helper_failed, waited = threading.Event(), []
    solve = np.linalg.solve

    def solve_failing_on_the_helper(a, b):
        if threading.current_thread() is not threading.main_thread():
            helper_failed.set()
            raise error
        if not waited:  # the caller's first channel waits for the helper's
            waited.append(helper_failed.wait(timeout=10))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve_failing_on_the_helper)
    series = np.random.default_rng(5).standard_normal((120, 7))
    with pytest.raises(np.linalg.LinAlgError) as info:
        fit_linear_backbone(series, lookback=8, horizon=4)
    assert info.value is error
    assert helper_failed.is_set()
    assert not [t for t in threading.enumerate() if t.name.startswith("smoothtta-fit")]
