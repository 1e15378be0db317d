"""The batched correction engine against a golden capture and a sequential oracle."""

import dataclasses
import importlib
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothtta.backbones import fit_linear_backbone
from smoothtta.boundary import build_boundary, estimate_dominant_period, select_prefix_length
from smoothtta.config import RolloutConfig, SolverConfig
from smoothtta.data import Dataset, split_dataset
from smoothtta.decoder import feature_blocks, init_params
from smoothtta.fusion import FusionSchedule, apply_correction, fuse
from smoothtta.memory import cold_start, update_memory
from smoothtta.protocols import ABLATION_VARIANTS, variant_config
from smoothtta.rollout import ContractViolation, correct_window, rollout
from smoothtta.synth import seasonal_stream

import engine_cases

# the package re-exports the `rollout` function under the submodule's name
rollout_mod = importlib.import_module("smoothtta.rollout")
INTEGER_COLUMNS = ("window", "start", "prefix_length", "memory_version", "n_flagged")


def test_engine_matches_the_golden_capture():
    # The golden was captured from the sequential per-window engine this
    # engine replaced. Values agree within 1e-12 relative, taken per element
    # and, for elements near zero, relative to the largest one in the array.
    golden = np.load(engine_cases.GOLDEN)
    current = engine_cases.capture()
    assert sorted(current) == sorted(golden.files)
    for key in golden.files:
        want, got = golden[key], current[key]
        assert got.shape == want.shape, key
        if key.rsplit("/", 1)[1] in INTEGER_COLUMNS:
            assert np.array_equal(got, want), key
        else:
            scale = np.abs(want).max(initial=0.0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, err_msg=key)


class FlagStarts:
    """Linear backbone whose forecast is NaN for the given window starts."""

    def __init__(self, inner, bad_starts):
        self.inner = inner
        self.bad = set(bad_starts)
        self.kind = "flagged"
        self.lookback, self.horizon, self.channels = inner.lookback, inner.horizon, inner.channels

    def predict(self, X, start=None):
        return self.predict_batch(np.asarray(X)[None], [start])[0]

    def predict_batch(self, X, starts):
        out = self.inner.predict_batch(X, starts)
        for row, t in enumerate(starts):
            if t in self.bad:
                out[row, -1, 0] = np.nan
        return out

    def param_digest(self):
        return self.inner.param_digest()


def reference_rollout(backbone, dataset, config, params):
    """The sequential oracle: one window at a time through the per-window API."""
    s = config.solver
    H, L = config.horizon, config.lookback
    values = dataset.values
    memory = cold_start(H, dataset.channels, s.memory_decay, s.context_size)
    pending = deque()
    lo, hi = dataset.range_of("test")
    starts = list(range(lo + L, hi - H + 1, config.effective_stride))[: config.max_windows]
    rows = []
    for i, t in enumerate(starts):
        while pending and pending[0][0] + H <= t:
            memory = update_memory(memory, [pending.popleft()[1]])
        X = values[t - L : t]
        forecast = backbone.predict(X, start=t)
        if not np.all(np.isfinite(forecast)):
            continue
        if config.prefix == "fft":
            period = estimate_dominant_period(X, fallback=s.min_prefix_support)
        else:
            period = config.prefix
        a = select_prefix_length(period, period, H, s.min_prefix_support)
        Y = values[t : t + H]
        delta, _ = correct_window(forecast, build_boundary(Y[:a], forecast, a), memory, params,
                                  config)
        corrected = apply_correction(forecast, delta)
        rows.append({
            "window": i,
            "start": t,
            "prefix_length": a,
            "memory_version": memory.updates,
            "mse_corrected": float(np.mean((Y - corrected) ** 2)),
            "max_abs_delta": float(np.max(np.abs(delta))),
        })
        pending.append((t, Y - forecast))
    return rows


def _stream(seed, d, length=900):
    _, noisy = seasonal_stream(length, d, period=12, seed=seed)
    ds = Dataset("property", noisy, [f"c{j}" for j in range(d)])
    split_dataset(ds, (0.5, 0.2, 0.3), min_span=8)
    return ds.standardized()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    H=st.integers(4, 20),
    L=st.integers(8, 24),
    d=st.integers(1, 3),
    stride=st.integers(1, 24),
    prefix=st.one_of(st.none(), st.integers(1, 20)),
    windows=st.integers(1, 30),
    chunk=st.integers(1, 7),
    flagged=st.sets(st.integers(0, 29)),
    decay=st.floats(0.0, 1.0),
    variant=st.sampled_from(ABLATION_VARIANTS),
    # W1 blocks held at zero: with both, the engine folds no memory; the reference still does
    dead=st.sampled_from([(), ("memory",), ("context",), ("memory", "context")]),
)
def test_batched_rollout_equals_sequential_reference(
    seed, H, L, d, stride, prefix, windows, chunk, flagged, decay, variant, dead
):
    ds = _stream(seed, d)
    cfg = RolloutConfig(lookback=L, horizon=H, stride=stride, seed=seed, standardize=False,
                        max_windows=windows, solver=SolverConfig(memory_decay=decay))
    cfg = variant_config(cfg, variant)
    if prefix is not None:
        cfg.prefix = min(prefix, H)
    inner = fit_linear_backbone(ds.part("train"), L, H)
    lo, hi = ds.range_of("test")
    starts = range(lo + L, hi - H + 1, stride)
    backbone = FlagStarts(inner, [t for k, t in enumerate(starts) if k in flagged])
    s = cfg.solver
    params = init_params(H, s.context_size, hidden=8, output_scale=s.global_scale, seed=seed)
    W1, blocks = np.array(params.W1), feature_blocks(H, s.context_size)
    for name in dead:
        W1[:, blocks[name]] = 0.0
    params = dataclasses.replace(params, W1=W1)

    # a tiny chunk budget makes the window count straddle several chunks
    row_bytes = 8 * d * (5 * H + 2 * s.context_size)
    with mock.patch.object(rollout_mod, "CHUNK_BYTES", chunk * row_bytes):
        report = rollout(backbone, ds, cfg, params)
    expected = reference_rollout(backbone, ds, cfg, params)

    assert report.n_flagged + report.n_windows == min(windows, len(starts))
    folds = variant not in ("local_only", "no_memory") and len(dead) < 2
    assert report.manifest["memory_folded"] == folds
    assert len(report.rows) == len(expected)
    for got, want in zip(report.rows, expected):
        for key in ("window", "start", "prefix_length", "memory_version"):
            assert got[key] == want[key], key
        assert got["mse_corrected"] == pytest.approx(want["mse_corrected"], rel=1e-9, abs=1e-12)
        if variant != "no_bound":
            assert want["max_abs_delta"] <= s.correction_clip


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), H=st.integers(4, 20), data=st.data())
def test_immediate_schedule_with_overlapping_windows_trips_the_guard(seed, H, data):
    stride = data.draw(st.integers(1, H - 1))
    ds = _stream(seed, 2)
    cfg = RolloutConfig(lookback=12, horizon=H, stride=stride, standardize=False,
                        memory_schedule="immediate", max_windows=20)
    backbone = fit_linear_backbone(ds.part("train"), 12, H)
    with pytest.raises(ContractViolation, match="leak"):
        rollout(backbone, ds, cfg, None)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(2, 12), st.integers(1, 3)),
    scale=st.floats(1e-3, 1e12),
    clip=st.floats(1e-3, 10.0),
    seed=st.integers(0, 1000),
)
def test_fused_corrections_stay_within_the_clip(shape, scale, clip, seed):
    rng = np.random.default_rng(seed)
    local = scale * rng.standard_normal(shape)
    global_field = scale * rng.standard_normal(shape)
    out = fuse(local, global_field, FusionSchedule(correction_clip=clip))
    assert np.abs(out).max() <= clip


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    d=st.sampled_from([1, 2, 7]),
    H=st.integers(4, 16),
    prefix=st.sampled_from(["fft", 0, 2, 5]),
    protocol=st.sampled_from(["clean", "contaminated", "anchors"]),
    variant=st.sampled_from(["full", "local_only", "no_memory", "global_only"]),
    windows=st.integers(2, 30),
    chunk=st.integers(2, 10),
    flagged=st.sets(st.integers(0, 29)),
)
def test_rollout_in_row_blocks_equals_the_one_block_pass(
    seed, d, H, prefix, protocol, variant, windows, chunk, flagged
):
    # Every block size from d rows (with d = 1, the block floor of two rows
    # that keeps products off numpy's matrix-vector path) to past the chunk.
    ds = _stream(seed, d)
    cfg = RolloutConfig(lookback=16, horizon=H, stride=1, seed=seed, standardize=False,
                        max_windows=windows, prefix=prefix if prefix == "fft" else min(prefix, H))
    cfg = variant_config(cfg, variant)
    lo, _ = ds.range_of("test")
    backbone = FlagStarts(fit_linear_backbone(ds.part("train"), 16, H),
                          [lo + 16 + k for k in flagged])
    s = cfg.solver
    params = init_params(H, s.context_size, hidden=16, output_scale=s.global_scale, seed=seed)
    hooks = {"clean": {}, "contaminated": {"contamination_ratio": 0.3},
             "anchors": {"anchors": (min(6, H), 2)}}[protocol]
    row_bytes = 8 * d * (5 * H + 2 * s.context_size)

    def rows(block_rows):
        with mock.patch.multiple(rollout_mod, CHUNK_BYTES=chunk * row_bytes,
                                 BLOCK_ROWS=block_rows):
            return [repr(row) for row in rollout(backbone, ds, cfg, params, **hooks).rows]

    one_block = rows(10**9)
    for block_rows in range(d, (chunk + 1) * d + 1, d):
        assert rows(block_rows) == one_block, block_rows
