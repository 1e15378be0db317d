import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decoder_reference as reference
import smoothtta.decoder as dec
from smoothtta.decoder import (
    DecoderParams,
    GradientCheckError,
    TrainingDivergedError,
    UntrainedDecoderError,
    _loss_and_grads,
    build_features,
    decode,
    decoder_span,
    gradient_check,
    init_params,
    load_params,
    save_params,
    train_decoder,
)

H, K, HID = 6, 3, 16


def _params(seed=0, scale=1.5):
    return init_params(horizon=H, context_size=K, hidden=HID, output_scale=scale, seed=seed)


def _inputs(d=2, seed=1):
    rng = np.random.default_rng(seed)
    forecast = rng.standard_normal((H, d))
    local = rng.standard_normal((H, d))
    padded = rng.standard_normal((H, d))
    mask = (np.arange(H) < 2).astype(float)
    template = rng.standard_normal((H, d))
    z = rng.standard_normal(2 * K)
    return forecast, local, padded, mask, template, z


def test_input_width_layout():
    p = _params()
    assert p.input_width == 5 * H + 2 * K
    feats = build_features(*_inputs())
    assert feats.shape == (2, p.input_width)


def test_zero_parameters_give_scaled_bias_output():
    zero = DecoderParams(
        horizon=H, context_size=K, hidden=HID, output_scale=1.5,
        W1=np.zeros((HID, 5 * H + 2 * K)), b1=np.zeros(HID),
        W2=np.zeros((H, HID)), b2=np.full(H, 0.4),
    )
    out = decode(zero, *_inputs())
    assert np.allclose(out, 1.5 * 0.4)
    zero_b2 = DecoderParams(
        horizon=H, context_size=K, hidden=HID, output_scale=1.5,
        W1=np.zeros((HID, 5 * H + 2 * K)), b1=np.zeros(HID),
        W2=np.zeros((H, HID)), b2=np.zeros(H),
    )
    assert np.allclose(decode(zero_b2, *_inputs()), 0.0)


def test_decode_is_deterministic():
    p = _params()
    a = decode(p, *_inputs())
    b = decode(p, *_inputs())
    assert np.array_equal(a, b)


def test_decode_channel_equivariance():
    p = _params(seed=3)
    forecast, local, padded, mask, template, z = _inputs(d=3, seed=4)
    out = decode(p, forecast, local, padded, mask, template, z)
    perm = [2, 0, 1]
    out_p = decode(p, forecast[:, perm], local[:, perm], padded[:, perm], mask, template[:, perm], z)
    assert np.allclose(out_p, out[:, perm])


def test_decode_output_bounded_by_weight_norms():
    # |out| <= scale * (||W2||_inf_row * 1 + |b2|) since tanh in (-1, 1)
    rng = np.random.default_rng(5)
    for trial in range(10):
        p = _params(seed=trial)
        bound = p.output_scale * (np.abs(p.W2).sum(axis=1) + np.abs(p.b2))
        forecast, local, padded, mask, template, z = _inputs(seed=100 + trial)
        out = decode(p, 1e6 * forecast, 1e6 * local, padded, mask, template, z)
        assert np.all(np.abs(out) <= bound[:, None] + 1e-12)


def test_decode_rejects_nan_inputs():
    p = _params()
    forecast, local, padded, mask, template, z = _inputs()
    forecast[0, 0] = np.nan
    with pytest.raises(ValueError, match="forecast"):
        decode(p, forecast, local, padded, mask, template, z)


# --- structured decode_batch against the dense forward pass ---


def _dense_decode(p, *inputs):
    n, H, d = inputs[0].shape
    out, _ = dec._forward(p, build_features(*inputs).reshape(n * d, -1))
    return out.reshape(n, d, H).transpose(0, 2, 1)


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 30),
    context=st.integers(1, 4),
    hidden=st.integers(1, 20),
    windows=st.integers(1, 4),
    channels=st.integers(1, 3),
    mask_kind=st.sampled_from(["prefix", "anchors", "empty"]),
    stray=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_structured_decode_matches_dense_forward(
    horizon, context, hidden, windows, channels, mask_kind, stray, seed
):
    rng = np.random.default_rng(seed)
    p = init_params(horizon=horizon, context_size=context, hidden=hidden, seed=seed)
    n, d = windows, channels
    if mask_kind == "prefix":
        masks = (np.arange(horizon) < rng.integers(1, horizon + 1, size=(n, 1))).astype(float)
    elif mask_kind == "anchors":
        masks = (rng.random((n, horizon)) < 0.3).astype(float)
    else:
        masks = np.zeros((n, horizon))
    padded = np.where(masks[..., None] > 0, rng.standard_normal((n, horizon, d)), 0.0)
    if stray:  # a public-API caller's padded error may be nonzero off the mask
        padded[rng.integers(n), rng.integers(horizon), rng.integers(d)] = rng.standard_normal()
    forecast, local, template = (rng.standard_normal((n, horizon, d)) for _ in range(3))
    inputs = (forecast, local, padded, masks, template, rng.standard_normal((n, 2 * context)))
    expected = _dense_decode(p, *inputs)
    got = dec.decode_batch(p, *inputs)
    assert got.shape == (n, horizon, d)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _without(params, dead, signed_zero=False):
    """`params` with the W1 columns of the blocks named in `dead` set to zero."""
    W1 = np.array(params.W1)
    blocks = dec.feature_blocks(params.horizon, params.context_size)
    for name in dead:
        W1[:, blocks[name]] = -0.0 if signed_zero else 0.0
    return replace(params, W1=W1)


_SKIPPED = {"memory": "memory_template", "context": "context"}  # W1 block -> decoder input


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 30),
    context=st.integers(1, 4),
    hidden=st.integers(1, 20),
    windows=st.integers(1, 4),
    channels=st.integers(1, 3),
    dead=st.sampled_from([("memory",), ("context",), ("memory", "context")]),
    signed_zero=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_decode_batch_skips_zero_memory_and_context_columns(
    horizon, context, hidden, windows, channels, dead, signed_zero, seed
):
    rng = np.random.default_rng(seed)
    p = _without(init_params(horizon=horizon, context_size=context, hidden=hidden, seed=seed),
                 dead, signed_zero)
    assert (p.reads_template, p.reads_context) == ("memory" not in dead, "context" not in dead)
    n, d = windows, channels
    masks = (np.arange(horizon) < rng.integers(0, horizon + 1, size=(n, 1))).astype(float)
    padded = np.where(masks[..., None] > 0, rng.standard_normal((n, horizon, d)), 0.0)
    forecast, local, template = (rng.standard_normal((n, horizon, d)) for _ in range(3))
    inputs = [forecast, local, padded, masks, template, rng.standard_normal((n, 2 * context))]
    expected = _dense_decode(p, *inputs)
    got = dec.decode_batch(p, *inputs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the skipped inputs may be anything finite: zero gives the same bytes
    skipped = [dec._INPUTS.index(_SKIPPED[name]) for name in dead]
    zeroed = [np.zeros_like(x) if i in skipped else x for i, x in enumerate(inputs)]
    assert dec.decode_batch(p, *zeroed).tobytes() == got.tobytes()
    # and are still checked: a NaN in any of them is named
    for i in skipped:
        inputs[i].flat[-1] = np.nan
    names = [dec._INPUTS[i] for i in sorted(skipped)]
    with pytest.raises(ValueError, match=re.escape(f"non-finite values in: {names}")):
        dec.decode_batch(p, *inputs)


def test_macs_per_window_leaves_out_the_skipped_blocks():
    p = _params()
    dense = p.macs_per_window(2, channels=3)
    no_memory = _without(p, ["memory"]).macs_per_window(2, channels=3)
    no_context = _without(p, ["context"]).macs_per_window(2, channels=3)
    assert dense - no_memory == 3 * HID * H
    assert dense - no_context == HID * 2 * K
    neither = _without(p, ["memory", "context"]).macs_per_window(2, channels=3)
    assert neither == no_memory + no_context - dense


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("block", range(6), ids=dec._INPUTS)
def test_decode_batch_names_the_non_finite_block(block, bad):
    # the last entry of every block lies past the 2-step prefix mask of _inputs
    inputs = [np.array(x, dtype=float)[None] for x in _inputs()]
    inputs[block].flat[-1] = bad
    with pytest.raises(ValueError, match=rf"non-finite values in: \['{dec._INPUTS[block]}'\]$"):
        dec.decode_batch(_params(), *inputs)


def test_decode_batch_names_every_non_finite_block():
    inputs = [np.array(x, dtype=float)[None] for x in _inputs()]
    for x in inputs:
        x.flat[-1] = np.nan
    with pytest.raises(ValueError) as err:
        dec.decode_batch(_params(), *inputs)
    assert str(err.value).endswith(str(list(dec._INPUTS)))


@pytest.mark.parametrize("span", [0, 2, H])
def test_w1_views_are_read_only_columns_of_w1(span):
    p = _params()
    w = p.w1_views(span)
    assert list(w) == ["forecast|local|padded_error", "mask", "memory", "context"]
    assert all(v.base is p.W1 and not v.flags.writeable for v in w.values())
    columns = np.r_[: 2 * H + span, 3 * H : 3 * H + span, 4 * H : p.input_width]
    assert np.array_equal(np.concatenate(list(w.values()), axis=1), p.W1[:, columns])


def test_macs_per_window_falls_with_the_observed_span():
    p = _params()
    counts = [p.macs_per_window(span, channels=3) for span in range(H, -1, -1)]
    assert all(a > b for a, b in zip(counts, counts[1:]))
    assert counts[0] < 3 * (p.W1.size + p.W2.size)  # below the dense count at any span


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 4),
    steps=st.integers(1, 6),
    d=st.integers(1, 3),
    h_major=st.booleans(),
    data=st.data(),
)
def test_decoder_span_equals_the_strided_reduction(n, steps, d, h_major, data):
    values = st.sampled_from([0.0, -0.0, 1.0, -2.5, np.nan, np.inf, -np.inf])
    masks = np.array(data.draw(st.lists(values, min_size=n * steps, max_size=n * steps)))
    padded = np.array(data.draw(st.lists(values, min_size=n * steps * d,
                                         max_size=n * steps * d))).reshape(n, steps, d)
    if h_major:  # a batched local solve's layout
        padded = np.ascontiguousarray(padded.transpose(1, 0, 2)).transpose(1, 0, 2)
    masks = masks.reshape(n, steps)
    observed = np.flatnonzero(masks.any(axis=0) | padded.any(axis=(0, 2)))
    assert decoder_span(masks, padded) == (int(observed[-1]) + 1 if observed.size else 0)


def test_params_are_frozen():
    p = _params()
    with pytest.raises(ValueError):
        p.W1[0, 0] = 1.0


def _sample(seed=0):
    rng = np.random.default_rng(seed)
    p = _params(seed=seed)
    feats = rng.standard_normal(p.input_width)
    target = rng.standard_normal(H)
    local = rng.standard_normal(H)
    gate = 0.7 / (1 + np.exp(-8 * (np.arange(H) / H - 0.25)))
    return p, feats, target, local, gate


def test_gradient_check_passes_for_correct_backprop():
    for seed in range(5):
        p, feats, target, local, gate = _sample(seed)
        err = gradient_check(p, feats, target, local, gate, seed=seed)
        assert err < 1e-4


def test_gradient_check_zero_sample_zero_params_is_zero():
    zero = DecoderParams(
        horizon=H, context_size=K, hidden=HID, output_scale=1.5,
        W1=np.zeros((HID, 5 * H + 2 * K)), b1=np.zeros(HID),
        W2=np.zeros((H, HID)), b2=np.zeros(H),
    )
    err = gradient_check(zero, np.zeros(5 * H + 2 * K), np.zeros(H), np.zeros(H), np.zeros(H))
    assert err == 0.0


def test_gradient_check_fails_on_a_nan_feature():
    p, feats, target, local, gate = _sample(3)
    feats[0] = np.nan
    assert gradient_check(p, feats, target, local, gate) == np.inf
    with pytest.raises(GradientCheckError):
        train_decoder(p, feats[None], target[None], local[None], gate)


def test_gradient_check_detects_corrupted_gradient():
    p, feats, target, local, gate = _sample(7)
    feats2 = np.atleast_2d(feats)
    _, analytic = _loss_and_grads(p, feats2, np.atleast_2d(target), np.atleast_2d(local), gate)
    corrupted = {k: v.copy() for k, v in analytic.items()}
    corrupted["W2"] = corrupted["W2"] + 1.0  # unit perturbation

    # replicate the checker against the corrupted gradients
    rng = np.random.default_rng(0)
    step = 1e-4
    worst = 0.0
    blocks = {name: np.array(getattr(p, name)) for name in ("W1", "b1", "W2", "b2")}
    coords = [(n, i) for n, a in blocks.items() for i in range(a.size)]
    picked = rng.choice(len(coords), size=200, replace=False)
    for j in picked:
        name, idx = coords[j]
        trial = {k: v.copy() for k, v in blocks.items()}
        trial[name].flat[idx] += step
        up = _loss_and_grads(
            DecoderParams(horizon=H, context_size=K, hidden=HID, output_scale=1.5, **trial),
            feats2, np.atleast_2d(target), np.atleast_2d(local), gate,
        )[0]
        trial[name].flat[idx] -= 2 * step
        down = _loss_and_grads(
            DecoderParams(horizon=H, context_size=K, hidden=HID, output_scale=1.5, **trial),
            feats2, np.atleast_2d(target), np.atleast_2d(local), gate,
        )[0]
        numeric = (up - down) / (2 * step)
        exact = corrupted[name].flat[idx]
        worst = max(worst, abs(exact - numeric) / max(abs(exact) + abs(numeric), 1e-6))
    assert worst > 1e-2


def _training_set(n=60, d_seed=0):
    rng = np.random.default_rng(d_seed)
    p = _params(seed=d_seed)
    feats = rng.standard_normal((n, p.input_width))
    local = 0.1 * rng.standard_normal((n, H))
    target = local + 0.3 + 0.05 * rng.standard_normal((n, H))
    gate = 0.7 / (1 + np.exp(-8 * (np.arange(H) / H - 0.25)))
    return p, feats, target, local, gate


def test_training_reduces_loss():
    p, feats, target, local, gate = _training_set()
    trained, trace = train_decoder(p, feats, target, local, gate)
    assert len(trace) == dec._EPOCHS
    assert trace[-1] <= trace[0]
    loss_before, _ = _loss_and_grads(p, feats, target, local, gate)
    loss_after, _ = _loss_and_grads(trained, feats, target, local, gate)
    assert loss_after < loss_before


def test_training_batch_budget(monkeypatch):
    # the gate stubbed out, so every counted pass is an optimizer batch
    monkeypatch.setattr(dec, "gradient_check", lambda *args, **kwargs: 0.0)
    p, feats, target, local, gate = _training_set(n=100)
    counted = []
    original = dec._loss_and_grads

    def counting(*args, **kwargs):
        counted.append(1)
        return original(*args, **kwargs)

    dec._loss_and_grads = counting
    try:
        train_decoder(p, feats, target, local, gate)
    finally:
        dec._loss_and_grads = original
    assert len(counted) <= dec._EPOCHS * dec._MAX_BATCHES


def test_training_empty_set_rejected():
    p = _params()
    with pytest.raises(UntrainedDecoderError):
        train_decoder(p, np.zeros((0, p.input_width)), np.zeros((0, H)), np.zeros((0, H)), np.zeros(H))


def test_training_aborts_on_nan_with_trace():
    p, feats, target, local, gate = _training_set()
    # a row the gate does not check, so the optimizer meets the NaN
    checked = np.random.default_rng(0).choice(len(feats), dec._GATE_SAMPLES, replace=False)
    feats[np.setdiff1d(np.arange(len(feats)), checked)[0], 0] = np.nan
    with pytest.raises(TrainingDivergedError) as err:
        train_decoder(p, feats, target, local, gate)
    assert hasattr(err.value, "trace")


def test_training_is_seed_deterministic():
    p, feats, target, local, gate = _training_set()
    one, trace_one = train_decoder(p, feats, target, local, gate, seed=5)
    two, trace_two = train_decoder(p, feats, target, local, gate, seed=5)
    assert one.digest() == two.digest()
    assert trace_one == trace_two


def test_param_file_round_trip_bit_exact(tmp_path):
    p = _params(seed=9)
    path = tmp_path / "decoder.params"
    save_params(p, path, channels=4)
    loaded = load_params(path)
    assert loaded.digest() == p.digest()
    assert loaded.horizon == p.horizon
    assert loaded.context_size == p.context_size
    assert loaded.hidden == p.hidden
    assert loaded.output_scale == p.output_scale
    assert loaded.seed == p.seed


def test_param_file_rejects_layout_mismatch(tmp_path):
    p = _params()
    path = tmp_path / "decoder.params"
    save_params(p, path)
    raw = path.read_bytes()
    tampered = raw.replace(b"mask|memory", b"memory|mask")
    path.write_bytes(tampered)
    with pytest.raises(ValueError, match="layout"):
        load_params(path)


# --- batched gradient gate and in-place optimizer against the reference loops ---

def _gate_case(horizon, context, hidden, rows, seed):
    rng = np.random.default_rng(seed)
    p = init_params(horizon=horizon, context_size=context, hidden=hidden, seed=seed)
    feats = rng.standard_normal((rows, p.input_width))
    target = rng.standard_normal((rows, horizon))
    local = rng.standard_normal((rows, horizon))
    gate = rng.uniform(0.0, 1.0, horizon)
    return p, feats, target, local, gate


def _central_difference_noise(p, feats, target, local, gate, max_coords, seed, step=1e-4):
    """Largest relative-error change that float64 rounding alone can cause.

    One central difference of the loss carries rounding noise of about
    eps * S / step, S the mean square of the error terms' magnitudes; over a
    probed coordinate's floor max(|ga| + |gn|, 1e-6) that noise moves its
    relative error. Two evaluations that round differently can disagree by
    this much at a coordinate whose gradient is tiny, whatever the code.
    """
    _, analytic = _loss_and_grads(p, feats, target, local, gate)
    grads = np.concatenate([analytic[name].ravel() for name in ("W1", "b1", "W2", "b2")])
    if grads.size > max_coords:
        rng = np.random.default_rng(seed)
        grads = grads[rng.choice(grads.size, size=max_coords, replace=False)]
    out, _ = dec._forward(p, feats)
    scale = np.mean((np.abs(local) + np.abs(gate * out) + np.abs(target)) ** 2)
    noise = np.finfo(float).eps * scale / step
    return float(np.max(noise / np.maximum(2 * np.abs(grads), 1e-6)))


@settings(max_examples=40, deadline=None)
@given(
    horizon=st.integers(2, 12),
    context=st.integers(1, 4),
    hidden=st.integers(1, 24),
    rows=st.integers(1, 3),
    max_coords=st.sampled_from([1, 17, 200, 10**6]),
    seed=st.integers(0, 2**16),
    # from one hidden-layer probe per chunk (any budget below 16 * rows * horizon
    # bytes) through a few per chunk, up to the default budget
    chunk_bytes=st.one_of(st.integers(1, 4096), st.just(dec._PROBE_CHUNK_BYTES)),
)
def test_gradient_check_matches_per_coordinate_reference(
    horizon, context, hidden, rows, max_coords, seed, chunk_bytes
):
    # The batched gate rounds differently from the per-coordinate loop, so
    # beyond 1e-8 the two may differ by the rounding noise of a central
    # difference (a factor 8 over the estimate; 3000 random cases peaked at 0.74).
    p, feats, target, local, gate = _gate_case(horizon, context, hidden, rows, seed)
    args = (p, feats, target, local, gate)
    with mock.patch.object(dec, "_PROBE_CHUNK_BYTES", chunk_bytes):
        fast = gradient_check(*args, max_coords=max_coords, seed=seed)
    slow = reference.gradient_check(*args, max_coords=max_coords, seed=seed)
    noise = _central_difference_noise(*args, max_coords=max_coords, seed=seed)
    assert abs(fast - slow) <= 1e-8 + 8 * noise


def _corrupting(block, position):
    original = dec._loss_and_grads

    def corrupted(*args, **kwargs):
        loss, grads = original(*args, **kwargs)
        grads[block] = grads[block].copy()
        grads[block].flat[position] += 1.0
        return loss, grads

    return corrupted


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("block", ["W1", "b1", "W2", "b2"])
def test_gradient_check_catches_each_corrupted_block(block, position, monkeypatch):
    # 4 * 17 + 4 + 3 * 4 + 3 = 87 coordinates: the default 200 probes cover
    # all, so one wrong entry at either end of any block must show
    p, feats, target, local, gate = _gate_case(horizon=3, context=1, hidden=4, rows=1, seed=2)
    assert p.count() <= 200
    assert gradient_check(p, feats, target, local, gate) < 1e-4
    monkeypatch.setattr(dec, "_loss_and_grads", _corrupting(block, position))
    assert gradient_check(p, feats, target, local, gate) > 1e-2
    with pytest.raises(GradientCheckError):
        train_decoder(p, feats, target, local, gate)


@pytest.mark.parametrize(
    "config",  # the seed, then the module constants to patch
    [
        (0, {"_EPOCHS": 4, "_GATE_SAMPLES": 3}),
        (2, {"_EPOCHS": 3, "_MAX_BATCHES": 5}),
        (1, {"_EPOCHS": 2, "_GRAD_CLIP": 1e-3, "_LEARNING_RATE": 1e-2}),
    ],
)
def test_in_place_adamw_matches_out_of_place_reference(config):
    seed, constants = config
    p, feats, target, local, gate = _training_set(n=70, d_seed=3)
    with mock.patch.multiple(dec, **constants):
        trained, trace = train_decoder(p, feats, target, local, gate, seed=seed)
        expected, expected_trace = reference.adamw(p, feats, target, local, gate, seed=seed)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(trained, name), getattr(expected, name))
    assert trace == expected_trace


def _zero_columns(pattern, horizon, context, cut, keep):
    """Boolean mask of the feature columns `pattern` zeroes in every row."""
    blocks = dec.feature_blocks(horizon, context)
    zero = np.zeros(5 * horizon + 2 * context, dtype=bool)
    if pattern == "error-mask-tail":  # padded error and mask past step `cut`
        for name in ("padded_error", "mask"):
            zero[blocks[name].start + cut : blocks[name].stop] = True
    elif pattern == "memory-context":
        zero[blocks["memory"].start :] = True
    elif pattern == "all-but-one":
        zero[:] = True
        zero[keep % zero.size] = False
    elif pattern == "all":
        zero[:] = True
    return zero


@pytest.mark.parametrize("check", [True, False], ids=["gate", "no-gate"])
@pytest.mark.parametrize("clip", [1e-3, np.inf], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("pattern", ["none", "error-mask-tail", "memory-context", "all-but-one", "all"])
@settings(max_examples=15, deadline=None)
@given(
    horizon=st.integers(2, 8),
    context=st.integers(1, 3),
    hidden=st.integers(1, 12),
    rows=st.integers(1, 30),
    cut=st.integers(0, 7),
    keep=st.integers(0, 10**6),
    signed_zero=st.booleans(),
    max_batches=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_used_column_adamw_matches_dense_reference_bit_for_bit(
    pattern, clip, check, horizon, context, hidden, rows, cut, keep, signed_zero, max_batches, seed
):
    # feature columns zero in every row: train_decoder's in-place AdamW on the
    # used W1 columns against the out-of-place reference
    rng = np.random.default_rng(seed)
    p = init_params(horizon=horizon, context_size=context, hidden=hidden, seed=seed)
    feats = rng.standard_normal((rows, p.input_width))
    zero = _zero_columns(pattern, horizon, context, min(cut, horizon - 1), keep)
    feats[:, zero] = -0.0 if signed_zero else 0.0
    local = 0.1 * rng.standard_normal((rows, horizon))
    target = local + 0.3 + 0.05 * rng.standard_normal((rows, horizon))
    gate = rng.uniform(0.0, 1.0, horizon)
    constants = {"_EPOCHS": 2, "_MAX_BATCHES": max_batches, "_GRAD_CLIP": clip, "_GATE_SAMPLES": 2}
    # no-gate stubs the check out: the optimizer meets the gate only through its RNG draws
    stub = {} if check else {"gradient_check": lambda *args, **kwargs: 0.0}
    with mock.patch.multiple(dec, **constants, **stub):
        trained, trace = train_decoder(p, feats, target, local, gate, seed=seed)
        expected, expected_trace = reference.adamw(p, feats, target, local, gate, seed=seed)
    for name in ("W1", "b1", "W2", "b2"):
        assert getattr(trained, name).tobytes() == getattr(expected, name).tobytes(), name
    assert np.array(trace).tobytes() == np.array(expected_trace).tobytes()


@pytest.mark.parametrize("block", [1, 7, 100])
def test_blocked_adamw_matches_the_dense_reference_for_any_block_size(monkeypatch, block):
    # blocks that split W1's rows, with W1 columns no training row uses
    monkeypatch.setattr(dec, "_ADAM_BLOCK", block)
    p, feats, target, local, gate = _training_set(n=40, d_seed=5)
    feats[:, 2 * H + 2 : 3 * H] = 0.0  # padded error past step 2
    feats[:, 4 * H :] = -0.0  # memory and context
    monkeypatch.setattr(dec, "_EPOCHS", 2)
    monkeypatch.setattr(dec, "_GRAD_CLIP", 1e-3)
    trained, trace = train_decoder(p, feats, target, local, gate, seed=4)
    expected, expected_trace = reference.adamw(p, feats, target, local, gate, seed=4)
    assert trained.digest() == expected.digest()
    assert trace == expected_trace


def test_trained_decoder_ignores_inputs_it_was_never_trained_on(monkeypatch):
    monkeypatch.setattr(dec, "_EPOCHS", 2)
    p, feats, target, local, gate = _training_set(n=20, d_seed=4)
    blocks = dec.feature_blocks(H, K)
    feats[:, blocks["memory"].start :] = 0.0  # memory and context
    trained, _ = train_decoder(p, feats, target, local, gate, seed=3)
    unused = trained.W1[:, blocks["memory"].start :]
    assert not unused.any() and not np.signbit(unused).any()
    rng = np.random.default_rng(7)
    n, d = 3, 2
    forecasts, local_fields, padded = (rng.standard_normal((n, H, d)) for _ in range(3))
    masks = np.broadcast_to((np.arange(H) < 2).astype(float), (n, H))
    seen = (forecasts, local_fields, padded, masks)
    zero = dec.decode_batch(trained, *seen, np.zeros((n, H, d)), np.zeros((n, 2 * K)))
    rand = dec.decode_batch(
        trained, *seen, rng.standard_normal((n, H, d)), rng.standard_normal((n, 2 * K))
    )
    assert zero.tobytes() == rand.tobytes()


def test_training_logs_gate_and_optimizer(caplog, monkeypatch):
    monkeypatch.setattr(dec, "_EPOCHS", 2)
    monkeypatch.setattr(dec, "_GATE_SAMPLES", 3)
    p, feats, target, local, gate = _training_set()
    with caplog.at_level("INFO", logger="smoothtta.decoder"):
        train_decoder(p, feats, target, local, gate)
    (record,) = [r for r in caplog.records if r.name == "smoothtta.decoder"]
    assert record.levelname == "INFO"
    worst, samples, gate_s, steps, optimizer_s = record.args
    assert 0.0 <= worst < 1e-4
    assert samples == 3
    assert steps == 2 * 15  # 60 samples in batches of ceil(60 / 16) = 4
    assert gate_s >= 0.0 and optimizer_s >= 0.0


def test_training_peak_memory_stays_within_its_w1_sized_buffers(monkeypatch):
    monkeypatch.setattr(dec, "_EPOCHS", 2)
    # eval-h720's dead columns: memory and context zero, padded error and mask
    # zero past the prefix. Above its inputs, training may hold two dense W1
    # (the trained one and its frozen copy), four copies of the used columns
    # (weights, gradient, m, v), five of each other block (weights, gradient,
    # m, v, a squared gradient for the norm), and half a W1 for the AdamW
    # block scratch, the batch and its activations.
    horizon, context, prefix = 360, 4, 8
    p = init_params(horizon=horizon, context_size=context, hidden=256, seed=0)
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((48, p.input_width))
    blocks = dec.feature_blocks(horizon, context)
    feats[:, blocks["memory"].start :] = 0.0
    for name in ("padded_error", "mask"):
        feats[:, blocks[name].start + prefix : blocks[name].stop] = 0.0
    local = 0.1 * rng.standard_normal((48, horizon))
    target = local + 0.3
    gate = rng.uniform(0.0, 1.0, horizon)
    used = feats.any(axis=0).mean()
    others = p.b1.nbytes + p.W2.nbytes + p.b2.nbytes
    bound = (2 + 4 * used + 0.5) * p.W1.nbytes + 5 * others

    tracemalloc.start()
    try:
        train_decoder(p, feats, target, local, gate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / p.W1.nbytes:.2f} W1, bound {bound / p.W1.nbytes:.2f} W1"


def test_training_holds_one_w1_layout(monkeypatch):
    monkeypatch.setattr(dec, "_EPOCHS", 2)
    # the setup of the peak-memory test above. While it steps, training holds
    # the used W1 columns, their m and v, and two gradients (the last step's
    # while the next is computed, or one and its square for the norm); once it
    # has stepped, the dense W1, its frozen copy and the used columns. Each
    # other block has at most five copies, and half a W1 covers AdamW's block
    # scratch, the batch and its activations. A dense W1 gradient or copy held
    # beside the used columns while training steps breaks the bound.
    horizon, context, prefix = 360, 4, 8
    p = init_params(horizon=horizon, context_size=context, hidden=256, seed=0)
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((48, p.input_width))
    blocks = dec.feature_blocks(horizon, context)
    feats[:, blocks["memory"].start :] = 0.0
    for name in ("padded_error", "mask"):
        feats[:, blocks[name].start + prefix : blocks[name].stop] = 0.0
    local = 0.1 * rng.standard_normal((48, horizon))
    gate = rng.uniform(0.0, 1.0, horizon)
    used = feats.any(axis=0).mean()
    others = p.b1.nbytes + p.W2.nbytes + p.b2.nbytes
    bound = (max(5 * used, 2 + used) + 0.5) * p.W1.nbytes + 5 * others

    tracemalloc.start()
    try:
        train_decoder(p, feats, local + 0.3, local, gate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / p.W1.nbytes:.2f} W1, bound {bound / p.W1.nbytes:.2f} W1"


def _old_gradient_check(params, features, target, local_field, gate, step=1e-4,
                        max_coords=200, seed=0):
    """`gradient_check` as it was, holding a probe chunk's error terms and their squares."""
    features = np.atleast_2d(features)
    target = np.atleast_2d(target)
    local_field = np.atleast_2d(local_field)
    _, analytic = _loss_and_grads(params, features, target, local_field, gate)
    W1, b1, W2, b2 = params.W1, params.b1, params.W2, params.b2
    hidden, width = W1.shape
    gain = params.output_scale * np.broadcast_to(gate, b2.shape)
    offsets = np.cumsum([0, W1.size, b1.size, W2.size, b2.size])
    rng = np.random.default_rng(seed)
    if offsets[-1] > max_coords:
        coords = rng.choice(int(offsets[-1]), size=max_coords, replace=False)
    else:
        coords = np.arange(offsets[-1])
    block = np.searchsorted(offsets, coords, side="right") - 1
    idx = coords - offsets[block]
    exact = np.empty(coords.size)
    for b, name in enumerate(("W1", "b1", "W2", "b2")):
        exact[block == b] = analytic[name].ravel()[idx[block == b]]
    z = features @ W1.T + b1
    t = np.tanh(z)
    err = local_field + gate * (params.output_scale * (t @ W2.T + b2)) - target
    moves = np.array([step, -step])[:, None, None]
    numeric = np.empty(coords.size)
    probes = np.flatnonzero(block < 2)
    unit = np.where(block == 0, idx // width, idx)
    slope = np.where(block == 0, features[:, idx % width], 1.0)
    chunk = max(1, dec._PROBE_CHUNK_BYTES // (16 * err.size))
    for lo in range(0, probes.size, chunk):
        p = probes[lo : lo + chunk]
        u = unit[p]
        dt = np.tanh(z[:, u] + moves * slope[:, p]) - t[:, u]
        moved = err[:, None] + dt[..., None] * (gain * W2[:, u].T)
        losses = np.mean(moved**2, axis=(1, 3))
        numeric[p] = (losses[0] - losses[1]) / (2.0 * step)
    p = np.flatnonzero(block >= 2)
    s = np.where(block == 2, idx // hidden, idx)[p]
    slope = np.where(block == 2, t[:, idx % hidden], 1.0)[:, p] * gain[s]
    col_sq = np.sum(err**2, axis=0)
    moved = err[:, s] + moves * slope
    losses = (np.sum(col_sq) - col_sq[s] + np.sum(moved**2, axis=1)) / err.size
    numeric[p] = (losses[0] - losses[1]) / (2.0 * step)
    rel = np.abs(exact - numeric) / np.maximum(np.abs(exact) + np.abs(numeric), 1e-6)
    return float(np.max(np.nan_to_num(rel, nan=np.inf), initial=0.0))


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 40),
    context=st.integers(1, 4),
    hidden=st.integers(1, 24),
    scale=st.sampled_from([0.5, 1.5]),
    zero_cols=st.floats(0.0, 0.9),
    max_coords=st.sampled_from([5, 200, 10**6]),
    chunk_bytes=st.sampled_from([1, 4096, 2 << 20]),
    seed=st.integers(0, 2**16),
)
def test_gradient_check_squares_in_place_with_the_same_bits(
    horizon, context, hidden, scale, zero_cols, max_coords, chunk_bytes, seed
):
    # the gate's samples: one feature row, its target and local field, the fusion gate
    rng = np.random.default_rng(seed)
    params = init_params(horizon=horizon, context_size=context, hidden=hidden,
                         output_scale=scale, seed=seed)
    features = rng.standard_normal((1, 5 * horizon + 2 * context))
    features[:, rng.random(features.shape[1]) < zero_cols] = 0.0
    target, local = rng.standard_normal(horizon), rng.standard_normal(horizon)
    gate = rng.uniform(0.0, 1.0, horizon)
    with mock.patch.object(dec, "_PROBE_CHUNK_BYTES", chunk_bytes):
        new = gradient_check(params, features, target, local, gate, max_coords=max_coords,
                             seed=seed)
        old = _old_gradient_check(params, features, target, local, gate, max_coords=max_coords,
                                  seed=seed)
    assert np.float64(new).tobytes() == np.float64(old).tobytes()


def test_gradient_check_holds_one_probe_chunk_of_error_terms():
    # one H=360 row at hidden width 8, the gate's sample shape in the fit memory test:
    # 164 of the 200 probes are hidden-layer ones, whose error terms fill 0.94 MB
    horizon, context = 360, 8
    params = init_params(horizon=horizon, context_size=context, hidden=8, output_scale=1.5,
                         seed=0)
    rng = np.random.default_rng(0)
    sample = (params, rng.standard_normal(5 * horizon + 2 * context),
              rng.standard_normal(horizon), rng.standard_normal(horizon),
              np.linspace(0.0, 1.0, horizon))
    gradient_check(*sample, seed=3)  # warm: nothing first-call-only is counted
    coords = np.random.default_rng(3).choice(params.count(), size=200, replace=False)
    moved_bytes = 16 * horizon * int(np.sum(coords < params.W1.size + params.b1.size))
    tracemalloc.start()
    try:
        gradient_check(*sample, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parent held the terms and their squares at once and peaked at 2.25 times them
    assert peak < 1.4 * moved_bytes, (peak, moved_bytes)
