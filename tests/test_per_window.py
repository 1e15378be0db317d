"""The per-window kernels against a golden capture and their previous expressions.

The golden (`per_window_cases.py`) was captured before the per-window
kernels were slimmed; every array must match it exactly. The `_old_*`
functions below are those kernels as they were, kept as bit-for-bit oracles
for the rewritten ones over leading batch axes, batches of one and memory
batches of 1-4 residuals.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothtta.backbones import LinearForecaster
from smoothtta.boundary import estimate_dominant_period, estimate_periods
from smoothtta.chain import build_transfer_operator
from smoothtta.config import SolverConfig
from smoothtta.decoder import decode_batch, init_params
from smoothtta.fusion import FusionSchedule, fuse, gate_column, global_gate
from smoothtta.local import (
    LocalCorrection,
    _propagator,
    _solve_2x2,
    fit_bounded_response,
    solve_local,
)
from smoothtta.memory import (
    MemoryState,
    cold_start,
    context_rows,
    context_vector,
    fold_templates,
    residual_summaries,
    update_memory,
)

import per_window_cases


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_per_window_loop_matches_the_golden_capture():
    golden = np.load(per_window_cases.GOLDEN)
    current = per_window_cases.capture()
    assert sorted(current) == sorted(golden.files)
    for key in golden.files:
        assert np.array_equal(current[key], golden[key]), key


# --- the previous kernels -------------------------------------------------


def _old_fuse(local_field, global_field, schedule):
    gate = global_gate(schedule, local_field.shape[-2])[:, None]
    return np.clip(local_field + gate * global_field,
                   -schedule.correction_clip, schedule.correction_clip)


def _old_residual_summaries(residuals):
    flat = residuals.reshape(len(residuals), -1)
    return np.column_stack([flat.mean(axis=1), np.abs(flat).mean(axis=1)])


def _old_update_memory(state, batch_residuals):
    residuals = [np.asarray(r, dtype=float) for r in batch_residuals]
    batch_mean = np.mean(residuals, axis=0)
    template = fold_templates(state.template, batch_mean[None], state.decay)[1]
    summaries = _old_residual_summaries(np.stack(residuals))
    ring = state.context_ring + tuple((float(m), float(ma)) for m, ma in summaries)
    return replace(state, template=template, context_ring=ring[-state.context_size:],
                   updates=state.updates + 1)


def _old_context_vector(state):
    ring = np.array(state.context_ring[-state.context_size:], dtype=float).reshape(-1, 2)
    return context_rows(ring, [len(ring)], state.context_size)[0]


def _old_estimate_periods(X, fallback):
    L = X.shape[1]
    centered = X - X.mean(axis=1, keepdims=True)
    amplitude = np.abs(np.fft.rfft(centered, axis=1)).mean(axis=2)[:, 1:]
    peak = amplitude.max(axis=1, initial=0.0)
    flat = peak <= 1e-12 * np.maximum(1.0, np.abs(X).max(axis=(1, 2), initial=0.0))
    k_star = np.argmax(amplitude, axis=1) + 1
    period = np.clip(np.rint(L / k_star).astype(int), 2, L)
    return np.where(flat, fallback, period)


def _old_fit(harmonic, bias, R, ridge_coef, coef_clip, response_mix):
    a = R.shape[-2]
    h, b = harmonic[..., :a, :], bias[..., :a, :]
    G = np.empty(R.shape[:-2] + R.shape[-1:] + (2, 2))
    G[..., 0, 0] = (h * h).sum(axis=-2) + ridge_coef
    G[..., 0, 1] = G[..., 1, 0] = (h * b).sum(axis=-2)
    G[..., 1, 1] = (b * b).sum(axis=-2) + ridge_coef
    rhs = np.stack([(h * R).sum(axis=-2), (b * R).sum(axis=-2)], axis=-1)
    beta = np.swapaxes(_solve_2x2(G, rhs[..., None])[..., 0], -1, -2)
    beta = np.clip(beta, -coef_clip, coef_clip)
    combined = response_mix * (harmonic * beta[..., :1, :] + bias * beta[..., 1:, :])
    return LocalCorrection(harmonic, bias, beta, combined)


def _old_solve_local(R, op, ridge_coef, coef_clip, response_mix):
    *lead, a, d = R.shape
    columns = np.moveaxis(R, -2, 0).reshape(a, -1)
    P = _propagator(op.horizon, op.alpha, a)
    harm = np.moveaxis((P @ columns).reshape(op.horizon, *lead, d), 0, -2)
    bias = np.broadcast_to(R.mean(axis=-2, keepdims=True), harm.shape)
    return _old_fit(harm, bias, R, ridge_coef, coef_clip, response_mix)


def _old_predict_batch(model, X):
    out = np.empty((X.shape[0], model.horizon, model.channels))
    for c in range(model.channels):
        out[:, :, c] = X[:, :, c] @ model.weights[c] + model.intercepts[c]
    return out


def _old_decode_tail(params, t, n, d, H):
    out = params.output_scale * (t.reshape(n * d, -1) @ params.W2.T + params.b2)
    return out.reshape(n, d, H).transpose(0, 2, 1)


# --- bit-for-bit properties -----------------------------------------------

lead_axes = st.lists(st.integers(1, 3), max_size=2).map(tuple)  # () is a batch of one


def _normal(seed, shape, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(lead=lead_axes, H=st.integers(1, 16), d=st.integers(1, 4), seed=st.integers(0, 9999),
       mix=st.floats(0.0, 5.0), sharpness=st.floats(0.1, 40.0), midpoint=st.floats(0.0, 1.0),
       clip=st.one_of(st.floats(1e-3, 5.0), st.just(np.inf)),
       scale=st.sampled_from([1e-3, 1.0, 50.0]))
def test_fuse_equals_the_previous_expression(lead, H, d, seed, mix, sharpness, midpoint, clip,
                                             scale):
    schedule = FusionSchedule(mix, sharpness, midpoint, clip)
    local = _normal(seed, (*lead, H, d), scale)
    glob = _normal(seed + 1, (*lead, H, d), scale)
    local.flat[::3] = 0.0 * -local.flat[::3]  # signed zeros too
    _same_bits(fuse(local, glob, schedule), _old_fuse(local, glob, schedule))


@settings(max_examples=60, deadline=None)
@given(H=st.integers(1, 12), d=st.integers(1, 4), K=st.integers(1, 5),
       decay=st.floats(0.0, 1.0), batches=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       seed=st.integers(0, 9999))
def test_memory_update_and_context_equal_the_previous_expressions(H, d, K, decay, batches,
                                                                  seed):
    new = old = cold_start(H, d, decay, K)
    _same_bits(context_vector(new), _old_context_vector(old))
    for j, k in enumerate(batches):
        batch = list(_normal(seed + j, (k, H, d), 10.0 ** (j % 3 - 1)))
        new, old = update_memory(new, batch), _old_update_memory(old, batch)
        _same_bits(new.template, old.template)
        assert new.context_ring == old.context_ring
        assert all(type(v) is float for s in new.context_ring for v in s)
        assert (new.updates, new.decay, new.context_size, new.empty_batch_warnings) == (
            old.updates, old.decay, old.context_size, old.empty_batch_warnings)
        assert not new.template.flags.writeable
        _same_bits(context_vector(new), _old_context_vector(old))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), H=st.integers(1, 12), d=st.integers(1, 4), seed=st.integers(0, 9999))
def test_residual_summaries_equal_the_previous_expression(n, H, d, seed):
    residuals = _normal(seed, (n, H, d))
    _same_bits(residual_summaries(residuals), _old_residual_summaries(residuals))


@st.composite
def lookbacks(draw):
    n, L, d = draw(st.integers(1, 4)), draw(st.integers(4, 48)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 9999))
    kind = draw(st.sampled_from(["noise", "periodic", "flat", "tiny"]))
    X = _normal(seed, (n, L, d))
    if kind == "periodic":  # integer waves give exactly tied amplitudes
        p = draw(st.integers(2, L))
        X = np.rint(3 * np.sin(2 * np.pi * np.arange(L) / p))[None, :, None] + 0 * X
    elif kind == "flat":
        X = np.full((n, L, d), draw(st.floats(-1e6, 1e6)))
    elif kind == "tiny":
        X = 1e-13 * X
    return X


@settings(max_examples=80, deadline=None)
@given(X=lookbacks(), fallback=st.integers(1, 6))
def test_period_estimate_equals_the_previous_expression(X, fallback):
    _same_bits(estimate_periods(X, fallback), _old_estimate_periods(X, fallback))
    assert estimate_dominant_period(X[0], fallback) == _old_estimate_periods(X[:1], fallback)[0]
    one = X[0, :, 0]
    assert estimate_dominant_period(one, fallback) == _old_estimate_periods(
        one[None, :, None], fallback)[0]


@settings(max_examples=80, deadline=None)
@given(lead=lead_axes, H=st.integers(2, 24), d=st.integers(1, 4), data=st.data(),
       alpha=st.floats(0.01, 5.0), ridge=st.floats(1e-6, 1.0),
       clip=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
       mix=st.floats(-2.0, 2.0), seed=st.integers(0, 9999))
def test_local_solve_equals_the_previous_expression(lead, H, d, data, alpha, ridge, clip, mix,
                                                    seed):
    a = data.draw(st.integers(1, H), label="a")
    op = build_transfer_operator(H, alpha)
    R = _normal(seed, (*lead, a, d), data.draw(st.sampled_from([1e-3, 1.0, 30.0])))
    if data.draw(st.booleans(), label="zero channel"):  # exact zero coefficients meet the box
        R[..., 0] = 0.0
    got, want = solve_local(R, op, ridge, clip, mix), _old_solve_local(R, op, ridge, clip, mix)
    for name in ("harmonic_field", "bias_field", "coefficients", "combined"):
        _same_bits(getattr(got, name), getattr(want, name))
    assert not got.bias_field.flags.writeable
    bias = _normal(seed + 1, got.harmonic_field.shape)  # a free bias field, not a level
    _same_bits(fit_bounded_response(got.harmonic_field, bias, R, ridge, clip, mix).combined,
               _old_fit(got.harmonic_field, bias, R, ridge, clip, mix).combined)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), L=st.integers(1, 24), H=st.integers(1, 24), d=st.integers(1, 4),
       seed=st.integers(0, 9999))
def test_linear_prediction_equals_the_previous_expression(n, L, H, d, seed):
    model = LinearForecaster(L, H, _normal(seed, (d, L, H)), _normal(seed + 1, (d, H)))
    X = _normal(seed + 2, (n, L, d))
    got = model.predict_batch(X)
    assert got.flags.c_contiguous
    _same_bits(got, _old_predict_batch(model, X))
    _same_bits(model.predict(X[0]), _old_predict_batch(model, X[:1])[0])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), H=st.integers(2, 16), d=st.integers(1, 3), K=st.integers(1, 3),
       hidden=st.integers(1, 8), data=st.data(), seed=st.integers(0, 9999))
def test_decoder_output_layer_equals_the_previous_expression(n, H, d, K, hidden, data, seed):
    params = init_params(H, K, hidden, output_scale=data.draw(st.floats(0.1, 3.0)), seed=seed)
    params = replace(params, b2=_normal(seed, H))
    a = data.draw(st.integers(0, H), label="a")
    inputs = [_normal(seed + j, (n, H, d)) for j in range(3)]
    masks = np.zeros((n, H))
    masks[:, :a] = 1.0
    padded = np.where(masks[..., None] > 0, _normal(seed + 3, (n, H, d)), 0.0)
    contexts = _normal(seed + 4, (n, 2 * K))
    got = decode_batch(params, inputs[0], inputs[1], padded, masks, inputs[2], contexts)
    # the hidden state decode_batch feeds its output layer, rebuilt from its own inputs
    m = a
    w = params.w1_views(m)
    rows = np.concatenate([inputs[0], inputs[1], padded[:, :m], inputs[2]], axis=1)
    rows = rows.transpose(0, 2, 1).reshape(n * d, -1)
    k = 2 * H + m
    z1 = rows[:, :k] @ w["forecast|local|padded_error"].T + rows[:, k:] @ w["memory"].T
    per_window = masks[:, :m] @ w["mask"].T + contexts @ w["context"].T + params.b1
    t = np.tanh(z1.reshape(n, d, -1) + per_window[:, None])
    _same_bits(got, _old_decode_tail(params, t, n, d, H))


# --- cached constants -----------------------------------------------------


def test_cached_gate_is_read_only_and_keyed_on_every_field():
    base = FusionSchedule(0.7, 8.0, 0.25, 2.5)
    gate = gate_column(base, 12)
    assert gate.shape == (12, 1)
    assert not gate.flags.writeable
    with pytest.raises(ValueError):
        gate[0, 0] = 1.0
    with pytest.raises(ValueError):
        gate.base[0] = 1.0
    assert gate_column(FusionSchedule(0.7, 8.0, 0.25, 2.5), 12) is gate
    _same_bits(gate, global_gate(base, 12)[:, None])
    assert gate_column(base, 13).shape == (13, 1)
    changed = {"global_mix": 0.5, "ramp_sharpness": 3.0, "ramp_midpoint": 0.5,
               "correction_clip": 1.0}
    assert set(changed) == {f.name for f in fields(FusionSchedule)}
    for name, value in changed.items():
        other = replace(base, **{name: value})
        assert gate_column(other, 12) is not gate, name
        _same_bits(gate_column(other, 12), global_gate(other, 12)[:, None])


def test_schedule_of_a_config_is_shared_and_still_validated():
    s = SolverConfig()
    assert s.schedule() is s.schedule()
    assert s.schedule() == FusionSchedule(s.global_mix, s.ramp_sharpness, s.ramp_midpoint,
                                          s.correction_clip)
    s.global_mix = 0.3
    assert s.schedule().global_mix == 0.3
    s.ramp_midpoint = 2.0
    for _ in range(2):  # a rejected value is never cached
        with pytest.raises(ValueError, match="midpoint"):
            s.schedule()


def test_update_memory_keeps_the_state_inputsit_does_not_fold():
    state = MemoryState(np.zeros((3, 2)), ((1.0, 2.0),), 4, 0.25, context_size=2,
                        empty_batch_warnings=5)
    new = update_memory(state, [np.ones((3, 2))])
    assert (new.updates, new.decay, new.context_size, new.empty_batch_warnings) == (5, 0.25, 2, 5)
    assert new.context_ring == ((1.0, 2.0), (1.0, 1.0))
