"""Trainable global branch: a small error-memory decoder.

A one-hidden-layer tanh network maps, per channel, the concatenation of
(zero-shot forecast, local correction, padded prefix error, observation mask,
memory template, context vector) to a full-horizon long-range response.
Weights are shared across channels, trained offline against the fused
correction target, and frozen during rollout. Backpropagation is written out
by hand and guarded by a central finite-difference gradient check.

Training reads dense `build_features` rows, or a `FeatureStore` of each field
stored once, through `feature_rows`. It fits only the W1 columns with a
nonzero feature in some training row; the other columns meet only zero
features, carry no signal, and are zero in the trained decoder. AdamW updates
the weights in place, in blocks of `_ADAM_BLOCK` (32768) entries, on the
calling thread and one helper thread, which also computes each step's
output-layer gradient; a helper task that has not started when the caller
needs it is taken back and run by the caller. The gradient-norm clip is
decided from one BLAS dot per gradient unless that sum reaches the clip's
square less its rounding margin, so no step computes an exact norm it does
not need. Every weight keeps the bits of a one-thread, exact-norm run. Training's
settings are module constants, not arguments: AdamW's `_LEARNING_RATE`,
`_WEIGHT_DECAY` and gradient-norm clip `_GRAD_CLIP`, its budget of `_EPOCHS`
epochs of at most `_MAX_BATCHES` batches, and the gradient gate's
`_GATE_SAMPLES` and `_GATE_TOLERANCE`. Only the seed is an argument.
Inference (`decode_batch`) skips the zero padded-error and mask columns past
the last observed step, and multiplies the mask and context blocks once per
window, not once per channel. It also skips the memory-template and context
blocks whose W1 columns are all zero, as training leaves them when no training
row saw a filled memory; `DecoderParams` decides that once, when it is frozen
(`reads_template`, `reads_context`), and `rollout` folds no memory for a
decoder that reads neither.
"""

from __future__ import annotations

import itertools
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import paramio

logger = logging.getLogger(__name__)

FEATURE_LAYOUT = "forecast|local|padded_error|mask|memory|context:v1"
PARAMS_KIND = "memory-decoder"
_BLOCKS = ("W1", "b1", "W2", "b2")
_INPUTS = ("forecast", "local_field", "padded_error", "mask", "memory_template", "context")

# Gradient-gate budget for one chunk of hidden-layer probes: their moved error terms.
_PROBE_CHUNK_BYTES = 2 << 20
# Entries per block of AdamW's element-wise update (256 KiB of float64 per scratch buffer).
_ADAM_BLOCK = 1 << 15
# AdamW and its budget: learning rate, weight decay, global gradient-norm clip,
# epochs, and batches per epoch (batches grow to cover the sample set).
_LEARNING_RATE = 5e-4
_WEIGHT_DECAY = 1e-4
_GRAD_CLIP = 1.0
_EPOCHS = 5
_MAX_BATCHES = 16
# Gradient gate: samples checked before training, and the worst relative error allowed.
_GATE_SAMPLES = 20
_GATE_TOLERANCE = 1e-4


class UntrainedDecoderError(RuntimeError):
    """Training requires a non-empty sample set."""


class TrainingDivergedError(RuntimeError):
    def __init__(self, trace):
        super().__init__("training loss became non-finite")
        self.trace = trace


class GradientCheckError(RuntimeError):
    """Analytic gradients disagree with finite differences."""


@dataclass(frozen=True)
class DecoderParams:
    """Dense decoder parameters, immutable once built; `frozen_digest` is their digest then.

    `reads_template` and `reads_context` say whether W1 holds a nonzero weight
    in the memory-template and context columns, also decided when frozen.
    """

    horizon: int
    context_size: int
    hidden: int
    output_scale: float
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    seed: int = 0
    frozen_digest: str = field(init=False, repr=False, compare=False)
    reads_template: bool = field(init=False, repr=False, compare=False)
    reads_context: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        F = self.input_width
        expected = {
            "W1": (self.hidden, F),
            "b1": (self.hidden,),
            "W2": (self.horizon, self.hidden),
            "b2": (self.horizon,),
        }
        for name, shape in expected.items():
            arr = np.array(getattr(self, name), dtype=float)  # own copy, then freeze
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "frozen_digest", self.digest())
        blocks = feature_blocks(self.horizon, self.context_size)
        object.__setattr__(self, "reads_template", bool(self.W1[:, blocks["memory"]].any()))
        object.__setattr__(self, "reads_context", bool(self.W1[:, blocks["context"]].any()))

    @property
    def reads_memory(self) -> bool:
        """Whether the output depends on the memory: its template or its context."""
        return self.reads_template or self.reads_context

    @property
    def input_width(self) -> int:
        return input_width(self.horizon, self.context_size)

    def count(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size

    def w1_views(self, span: int) -> dict[str, np.ndarray]:
        """Read-only views of the W1 columns `decode_batch` multiplies, by FEATURE_LAYOUT block.

        Padded-error and mask are cut to `span` columns; the adjacent forecast,
        local and cut padded-error blocks share one view."""
        H = self.horizon
        return {
            "forecast|local|padded_error": self.W1[:, : 2 * H + span],
            "mask": self.W1[:, 3 * H : 3 * H + span],
            "memory": self.W1[:, 4 * H : 5 * H],
            "context": self.W1[:, 5 * H :],
        }

    def macs_per_window(self, span: int, channels: int) -> int:
        """Multiply-adds of `decode_batch` for one window whose observed span is `span`.

        A memory-template or context block that `decode_batch` skips counts none."""
        H, K = self.horizon, self.context_size
        per_channel = self.hidden * ((2 + self.reads_template) * H + span) + self.W2.size
        return channels * per_channel + self.hidden * (span + 2 * K * self.reads_context)

    def digest(self) -> str:
        """`paramio.digest` of W1, b1, W2 and b2, in that order."""
        return paramio.digest(self.W1, self.b1, self.W2, self.b2)


def init_params(
    horizon: int,
    context_size: int = 8,
    hidden: int = 256,
    output_scale: float = 1.5,
    seed: int = 0,
) -> DecoderParams:
    """Symmetric uniform init scaled by 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    F = input_width(horizon, context_size)
    lim1 = 1.0 / np.sqrt(F)
    lim2 = 1.0 / np.sqrt(hidden)
    return DecoderParams(
        horizon=horizon,
        context_size=context_size,
        hidden=hidden,
        output_scale=output_scale,
        W1=rng.uniform(-lim1, lim1, size=(hidden, F)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-lim2, lim2, size=(horizon, hidden)),
        b2=np.zeros(horizon),
        seed=seed,
    )


def build_features(
    forecast: np.ndarray,
    local_field: np.ndarray,
    padded_error: np.ndarray,
    mask: np.ndarray,
    memory_template: np.ndarray,
    context: np.ndarray,
) -> np.ndarray:
    """Per-channel feature rows, shape (d, 5H + 2K). Layout is versioned.

    Leading (window) axes on every input carry through to the output.
    """
    fields = [forecast, local_field, padded_error, memory_template]
    for p in fields:
        if p.shape != forecast.shape:
            raise ValueError(f"field shape {p.shape} does not match forecast {forecast.shape}")
    d = forecast.shape[-1]
    f, loc, err, mem = (np.swapaxes(p, -1, -2) for p in fields)
    mask_block = np.broadcast_to(mask[..., None, :], mask.shape[:-1] + (d, mask.shape[-1]))
    z_block = np.broadcast_to(context[..., None, :], context.shape[:-1] + (d, context.shape[-1]))
    return np.concatenate([f, loc, err, mask_block, mem, z_block], axis=-1)


def feature_blocks(horizon: int, context_size: int) -> dict[str, slice]:
    """Column slices of a `build_features` row, by FEATURE_LAYOUT block."""
    names = FEATURE_LAYOUT.split(":")[0].split("|")
    blocks, lo = {}, 0
    for name, width in zip(names, 5 * [horizon] + [2 * context_size]):
        blocks[name] = slice(lo, lo + width)
        lo += width
    return blocks


@dataclass(frozen=True)
class FeatureStore:
    """Decoder training rows by field; row r is channel r % d of window r // d.

    Per row (N, H): forecasts, local_fields, targets, templates (None: zero).
    Per window: masks (W, H), contexts (W, 2K). The padded error is derived:
    the target on the window's mask, zero elsewhere.
    """

    forecasts: np.ndarray
    local_fields: np.ndarray
    targets: np.ndarray
    templates: np.ndarray | None
    masks: np.ndarray
    contexts: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of the dense `build_features` rows."""
        return len(self.targets), input_width(self.masks.shape[1], self.contexts.shape[1] // 2)

    @property
    def nbytes(self) -> int:
        """Bytes of the stored fields, the targets included."""
        return sum(a.nbytes for a in vars(self).values() if a is not None)

    def any(self, axis: int = 0) -> np.ndarray:
        """Column-wise (axis 0) any of the dense rows, read off the fields."""
        W, H = self.masks.shape
        padded = self.targets.reshape(W, -1, H).any(axis=1) & (self.masks > 0)
        memory = np.zeros((1, H)) if self.templates is None else self.templates
        parts = (self.forecasts, self.local_fields, padded, self.masks, memory, self.contexts)
        return np.concatenate([p.any(axis=0) for p in parts])


def feature_rows(features, rows, cols=None) -> np.ndarray:
    """`features[rows][:, cols]`, C-contiguous; `cols` is a boolean mask, None all.

    `features` is a `build_features` matrix or a `FeatureStore`, whose rows
    this assembles with the same bytes, block by block in FEATURE_LAYOUT order.
    """
    if not isinstance(features, FeatureStore):
        return np.ascontiguousarray(features[rows][:, slice(None) if cols is None else cols])
    s, rows = features, np.asarray(rows)
    (W, H), K = s.masks.shape, s.contexts.shape[1] // 2
    cols = np.ones(input_width(H, K), bool) if cols is None else cols
    win = rows // (len(s.targets) // W)
    mask = s.masks[win]
    memory = np.zeros((len(rows), H)) if s.templates is None else s.templates[rows]
    parts = (s.forecasts[rows], s.local_fields[rows], np.where(mask > 0, s.targets[rows], 0.0),
             mask, memory, s.contexts[win])
    out = np.empty((len(rows), np.count_nonzero(cols)))  # row-major, as the parts are not
    return np.concatenate([p[:, cols[b]] for p, b in zip(parts, feature_blocks(H, K).values())],
                          axis=1, out=out)


def input_width(horizon: int, context_size: int) -> int:
    """Width of a `build_features` row, the decoder's input: where its last block ends."""
    return feature_blocks(horizon, context_size)["context"].stop


def _forward(params: DecoderParams, features: np.ndarray):
    z1 = features @ params.W1.T + params.b1
    t = np.tanh(z1)
    out = params.output_scale * (t @ params.W2.T + params.b2)
    return out, (features, t)


def decoder_span(masks: np.ndarray, padded_errors: np.ndarray) -> int:
    """One past the last step where any (n, H) mask or (n, H, d) padded-error entry is nonzero."""
    n, H, d = padded_errors.shape  # the contiguous axes first: a strided pair reduces slowly
    steps = padded_errors.reshape(n, H * d).any(axis=0).reshape(H, d).any(axis=1)
    observed = np.flatnonzero(masks.any(axis=0) | steps)
    return int(observed[-1]) + 1 if observed.size else 0


def decode_batch(
    params: DecoderParams,
    forecasts: np.ndarray,
    local_fields: np.ndarray,
    padded_errors: np.ndarray,
    masks: np.ndarray,
    memory_templates: np.ndarray,
    contexts: np.ndarray,
    min_span: int = 0,
) -> np.ndarray:
    """Long-range response fields of n windows in one forward pass, (n, H, d).

    The inputs are those of `decode` with a leading window axis. Equals
    `_forward` over the `build_features` rows without building them. With m
    the larger of `min_span` and `decoder_span` (the columns past it are 0),
    the forecast, local, template and m-cut padded-error blocks form one row
    per (window, channel), multiplied in one pass; the m-cut mask block, the
    context and b1 give one term per window, added to its d channels. The
    template and context blocks are left out when their W1 columns are all
    zero (`params.reads_template`, `params.reads_context`); they are still
    checked for non-finite values.
    """
    n, H, d = forecasts.shape
    if H != params.horizon:
        raise ValueError(f"forecast horizon {H} does not match decoder {params.horizon}")
    blocks = (forecasts, local_fields, padded_errors, masks, memory_templates, contexts)
    shapes = 3 * [(n, H, d)] + [(n, H), (n, H, d), (n, 2 * params.context_size)]
    for name, b, shape in zip(_INPUTS, blocks, shapes):
        if b.shape != shape:
            raise ValueError(f"{name} has shape {b.shape}, expected {shape}")
    m = min(H, max(min_span, decoder_span(masks, padded_errors)))
    read = [forecasts, local_fields, padded_errors[:, :m]]
    read += [memory_templates] if params.reads_template else []
    rows = np.concatenate(read, axis=1).transpose(0, 2, 1).reshape(n * d, -1)
    # a non-finite entry is nonzero, so it lies inside the span and in `rows`
    finite = np.isfinite(rows).all() and np.isfinite(masks).all() and np.isfinite(contexts).all()
    if not (finite and (params.reads_template or np.isfinite(memory_templates).all())):
        bad = [name for name, b in zip(_INPUTS, blocks) if not np.isfinite(b).all()]
        raise ValueError(f"decoder inputs contain non-finite values in: {bad}")
    w = params.w1_views(m)
    k = 2 * H + m
    z1 = rows[:, :k] @ w["forecast|local|padded_error"].T
    if params.reads_template:
        z1 += rows[:, k:] @ w["memory"].T
    per_window = masks[:, :m] @ w["mask"].T
    if params.reads_context:
        per_window += contexts @ w["context"].T
    per_window += params.b1
    t = np.tanh(z1.reshape(n, d, -1) + per_window[:, None])
    out = params.output_scale * (t.reshape(n * d, -1) @ params.W2.T + params.b2)
    return out.reshape(n, d, H).transpose(0, 2, 1)


def decode(
    params: DecoderParams,
    forecast: np.ndarray,
    local_field: np.ndarray,
    padded_error: np.ndarray,
    mask: np.ndarray,
    memory_template: np.ndarray,
    context: np.ndarray,
) -> np.ndarray:
    """Long-range response field, shape (H, d). Pure and deterministic."""
    inputs = (forecast, local_field, padded_error, mask, memory_template, context)
    return decode_batch(params, *(np.asarray(x, dtype=float)[None] for x in inputs))[0]


def _output_grads(dpre: np.ndarray, t: np.ndarray, W2: np.ndarray, b2: np.ndarray) -> None:
    """The output layer's gradients `dpre.T @ t` and `dpre.sum(axis=0)`, into W2 and b2."""
    np.matmul(dpre.T, t, out=W2)
    np.sum(dpre, axis=0, out=b2)


def _inline_output_grads(dpre: np.ndarray, t: np.ndarray):
    return lambda: (dpre.T @ t, dpre.sum(axis=0))


def _loss_and_grads(
    params: DecoderParams,
    features: np.ndarray,
    targets: np.ndarray,
    local_fields: np.ndarray,
    gate: np.ndarray,
    output_layer=_inline_output_grads,
):
    """Fused-objective MSE and analytic parameter gradients.

    Loss = mean over samples and steps of
    (local + gate * decoder_output - target)^2, the same combination the
    fusion stage applies (minus the clip, which would kill gradients).
    `params` may be any object with the W1, b1, W2, b2 and output_scale
    attributes of `DecoderParams`; training passes its live weight arrays.
    `output_layer(dpre, t)` starts the output layer's gradients and returns a
    call that gives them, (W2, b2), once W1's and b1's are computed; training
    starts them on its helper thread. The gradients are keyed W2, b2, W1, b1.
    """
    out, (f, t) = _forward(params, features)
    err = local_fields + gate * out - targets
    loss = float(np.mean(err**2))
    dout = (2.0 / err.size) * gate * err
    dpre = params.output_scale * dout
    output = output_layer(dpre, t)
    dz1 = (dpre @ params.W2) * (1.0 - t**2)
    W1, b1 = dz1.T @ f, dz1.sum(axis=0)
    W2, b2 = output()
    return loss, {"W2": W2, "b2": b2, "W1": W1, "b1": b1}


def _clip_scale(grads: dict[str, np.ndarray]) -> float:
    """`_GRAD_CLIP / norm` when the gradients' global norm exceeds `_GRAD_CLIP`, else 1.0.

    The squared norm is bounded first by one BLAS dot per gradient: a sum of
    n squares, summed in any order, is within n * 2**-53 of the exact sum
    (relative, to first order), and so is the pairwise `np.sum(np.square(g))`
    the norm is computed with. Below `(1 - margin) * _GRAD_CLIP**2`, with a
    margin that covers both errors and the few roundings of the comparison,
    the norm cannot exceed `_GRAD_CLIP`, so the scale is 1.0 without the
    norm; otherwise the norm is computed as before, so the scale keeps its
    bits. A NaN or inf gradient fails the bound.
    """
    k = sum(g.size for g in grads.values()) + 4  # squares, plus the sums across gradients
    u = 2.0**-53
    margin = 3 * k * u / (1 - k * u) if k * u < 0.25 else 1.0
    if sum(float(np.vdot(g, g)) for g in grads.values()) < (1 - margin) * _GRAD_CLIP**2:
        return 1.0
    norm = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
    return _GRAD_CLIP / norm if norm > _GRAD_CLIP else 1.0


def gradient_check(
    params: DecoderParams,
    features: np.ndarray,
    target: np.ndarray,
    local_field: np.ndarray,
    gate: np.ndarray,
    step: float = 1e-4,
    max_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Probes at most `max_coords` parameter coordinates, drawn without
    replacement from the flat W1|b1|W2|b2 layout (all of them when there are
    no more). Relative error uses |ga - gn| / max(|ga| + |gn|, 1e-6) so that
    a pair of exactly-zero gradients scores 0; a NaN one scores inf.

    Each numeric gradient is the difference of two evaluated losses, the
    fused-objective MSE with one coordinate moved by +-`step`, whose error
    terms are a rank-one update of the unperturbed forward pass. A W1 or b1
    probe moves only the tanh of its hidden unit u, by dt_u per row, so the
    error terms move by dt_u * output_scale * gate * W2[:, u]. A W2 or b2
    probe moves only its output step s, so only error column s moves.
    Hidden-layer probes run in chunks whose moved error terms fit in
    `_PROBE_CHUNK_BYTES`.
    """
    features = np.atleast_2d(features)
    target = np.atleast_2d(target)
    local_field = np.atleast_2d(local_field)
    _, analytic = _loss_and_grads(params, features, target, local_field, gate)

    W1, b1, W2, b2 = params.W1, params.b1, params.W2, params.b2
    hidden, width = W1.shape
    gain = params.output_scale * np.broadcast_to(gate, b2.shape)  # d err / d (t @ W2.T + b2)
    offsets = np.cumsum([0, W1.size, b1.size, W2.size, b2.size])
    rng = np.random.default_rng(seed)
    if offsets[-1] > max_coords:
        coords = rng.choice(int(offsets[-1]), size=max_coords, replace=False)
    else:
        coords = np.arange(offsets[-1])
    block = np.searchsorted(offsets, coords, side="right") - 1
    idx = coords - offsets[block]
    exact = np.empty(coords.size)
    for b, name in enumerate(_BLOCKS):
        exact[block == b] = analytic[name].ravel()[idx[block == b]]

    z = features @ W1.T + b1
    t = np.tanh(z)
    err = local_field + gate * (params.output_scale * (t @ W2.T + b2)) - target
    moves = np.array([step, -step])[:, None, None]
    numeric = np.empty(coords.size)

    # hidden layer: unit u's pre-activation moves by step * (its feature, or 1 for b1)
    probes = np.flatnonzero(block < 2)
    unit = np.where(block == 0, idx // width, idx)
    slope = np.where(block == 0, features[:, idx % width], 1.0)
    chunk = max(1, _PROBE_CHUNK_BYTES // (16 * err.size))  # the +-step error terms per probe
    for lo in range(0, probes.size, chunk):
        p = probes[lo : lo + chunk]
        u = unit[p]
        dt = np.tanh(z[:, u] + moves * slope[:, p]) - t[:, u]  # (2, rows, probes)
        # the moved error terms dt * (gain * W2[:, u].T) + err, built and squared in one
        # (2, rows, probes, H) array: the (probes, H) slopes wait in its first slab
        moved = np.empty(dt.shape + b2.shape)
        slab, dt = moved.reshape(-1, *moved.shape[2:]), dt.reshape(-1, p.size, 1)
        np.take(W2.T, u, axis=0, out=slab[0], mode="clip")  # "raise" would buffer a copy
        slab[0] *= gain
        np.multiply(dt[1:], slab[0], out=slab[1:])
        slab[0] *= dt[0]
        moved += err[:, None]  # IEEE products and sums commute: the same bits in any order
        losses = np.mean(np.square(moved, out=moved), axis=(1, 3))
        numeric[p] = (losses[0] - losses[1]) / (2.0 * step)

    # output layer: error column s moves by step * gain[s] * (t[:, u], or 1 for b2)
    p = np.flatnonzero(block >= 2)
    s = np.where(block == 2, idx // hidden, idx)[p]
    slope = np.where(block == 2, t[:, idx % hidden], 1.0)[:, p] * gain[s]
    col_sq = np.sum(err**2, axis=0)
    moved = err[:, s] + moves * slope  # (2, rows, probes)
    losses = (np.sum(col_sq) - col_sq[s] + np.sum(moved**2, axis=1)) / err.size
    numeric[p] = (losses[0] - losses[1]) / (2.0 * step)

    rel = np.abs(exact - numeric) / np.maximum(np.abs(exact) + np.abs(numeric), 1e-6)
    # a NaN gradient (say, from a NaN feature) fails the check: it scores inf
    return float(np.max(np.nan_to_num(rel, nan=np.inf), initial=0.0))


def train_decoder(
    params: DecoderParams,
    features: np.ndarray,
    targets: np.ndarray,
    local_fields: np.ndarray,
    gate: np.ndarray,
    seed: int = 0,
) -> tuple[DecoderParams, list[float]]:
    """Fit the decoder against the fused-correction regression target.

    AdamW (learning rate `_LEARNING_RATE`, weight decay `_WEIGHT_DECAY`) with
    global gradient-norm clipping at `_GRAD_CLIP`, `_EPOCHS` epochs and at
    most `_MAX_BATCHES` batches per epoch (batches grow to cover the sample
    set). `seed` draws the gate's samples and each epoch's batch order.
    Returns the trained parameters and the per-epoch loss trace.

    A finite-difference gradient check on `_GATE_SAMPLES` random samples
    gates the run: a worst relative error above `_GATE_TOLERANCE` raises
    `GradientCheckError`. See `gradient_check` for how its perturbed losses
    are evaluated. The optimizer updates the weights and its moments in place
    and builds the frozen `DecoderParams` once, after the last step. It drops
    `params` once the gate has run and the weights are copied, so an inline
    `init_params(...)` (CPython 3.11+ moves it into this frame) is freed
    before the optimizer runs.

    `features` is a `build_features` matrix or a `FeatureStore`, read through
    `feature_rows`. W1 is trained on its "used" columns only, those with a
    nonzero feature in some row (`features.any(axis=0)`): the forward pass, the
    gradients and AdamW run on a row-major copy of those columns and on each
    batch's used features. The other columns meet only zero features, so they
    move no loss and no other gradient; the trained decoder holds +0.0 in
    them.

    The optimizer runs on the calling thread and one helper thread (a
    one-worker `ThreadPoolExecutor`). While the caller back-propagates to W1,
    the helper computes the output layer's gradients into buffers allocated
    once; then both threads update AdamW blocks of `_ADAM_BLOCK` = 32768
    entries, each taking the next block from one shared counter and using
    its own pair of block-sized scratch buffers. Every block and every
    product is computed whole by one thread, as on one thread, so the
    weights keep their bits. A helper task that has not started when the
    caller needs its result is cancelled and run by the caller ("taken
    back"), so a descheduled helper costs at most the block it holds. The
    clip factor comes from `_clip_scale`. The moments, gradients, scratch
    buffers and the helper are freed before the frozen copy is built.

    Logs one INFO event on this module's logger with the gate's worst
    relative error, the number of samples it checked, the wall times of the
    gate and the optimizer, and the helper's counts: the AdamW blocks and
    output-layer gradients it computed and the tasks taken back from it
    (also the record's `helper_blocks`, `helper_gradients` and `taken_back`).
    """
    n = features.shape[0]
    if n == 0:
        raise UntrainedDecoderError("no training samples")

    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    n_check = min(_GATE_SAMPLES, n)
    worst = max(
        gradient_check(params, feature_rows(features, [i]), targets[i], local_fields[i], gate,
                       seed=seed + int(i))
        for i in rng.choice(n, size=n_check, replace=False)
    )
    if worst > _GATE_TOLERANCE:
        raise GradientCheckError(
            f"gradient check failed before training: max relative error {worst:.3e}"
        )
    checked = time.perf_counter()

    used = features.any(axis=0)  # W1 columns with a nonzero feature in some row
    # a boolean column index returns a column-major copy; AdamW and the products want row-major
    weights = {"W1": np.ascontiguousarray(params.W1[:, used])}
    weights |= {name: np.array(getattr(params, name)) for name in _BLOCKS[1:]}
    shape = {k: getattr(params, k)
             for k in ("horizon", "context_size", "hidden", "output_scale", "seed")}
    del params  # frees the initial W1 and W2 unless the caller holds them
    step, trace, helper = _optimize(weights, shape["output_scale"], features, targets, local_fields,
                                    gate, used, rng)
    W1 = np.zeros((shape["hidden"], used.size))
    W1[:, used] = weights.pop("W1")
    trained = DecoderParams(**shape, W1=W1, **weights)
    logger.info(
        "decoder trained: gradient gate max relative error %.3e over %d samples in %.3f s, "
        "optimizer %d steps in %.3f s; the helper thread computed "  # record.args stay five
        f"{helper['helper_blocks']} AdamW blocks and {helper['helper_gradients']} output-layer "
        f"gradients, {helper['taken_back']} of its tasks were taken back",
        worst, n_check, checked - started, step, time.perf_counter() - checked, extra=helper,
    )
    return trained, trace


def _optimize(weights, output_scale, features, targets, local_fields, gate, used, rng):
    """`train_decoder`'s AdamW loop over the live `weights`, which it updates in place.

    Returns the step count, the per-epoch loss trace and the helper thread's
    counts (`helper_blocks`, `helper_gradients`, `taken_back`). The moments,
    the gradients, the scratch and the helper thread are gone once it returns.
    """
    n = features.shape[0]
    live = SimpleNamespace(output_scale=output_scale, **weights)
    m = {k: np.zeros_like(w) for k, w in weights.items()}
    v = {k: np.zeros_like(w) for k, w in weights.items()}
    output = {k: np.empty_like(weights[k]) for k in ("W2", "b2")}  # the helper's gradients
    jobs = [(k, lo) for k, w in weights.items() for lo in range(0, w.size, _ADAM_BLOCK)]
    scratch = [[np.empty(_ADAM_BLOCK) for _ in range(2)] for _ in range(2)]  # one pair a thread
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    counts = dict.fromkeys(("helper_blocks", "helper_gradients", "taken_back"), 0)
    trace: list[float] = []
    step = 0

    # Each step evaluates, in place and in this operation order,
    #   m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g**2
    #   w = w - lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * w)
    # element-wise over blocks, so it rounds like that expression written out of place.
    def adamw(taken, grads, scale, bc1, bc2, pair) -> int:
        """Update the blocks whose job numbers it takes from `taken`; returns their count."""
        done = 0
        while (j := next(taken)) < len(jobs):  # next() on a count is atomic
            name, lo = jobs[j]
            wb, g, mk, vk = (x.reshape(-1)[lo : lo + _ADAM_BLOCK]
                             for x in (weights[name], grads[name], m[name], v[name]))
            a, b = (buf[: wb.size] for buf in pair)
            if scale != 1.0:
                g *= scale
            np.multiply(g, 1 - beta1, out=a)
            mk *= beta1
            mk += a
            np.square(g, out=a)
            a *= 1 - beta2
            vk *= beta2
            vk += a
            np.divide(vk, bc2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(mk, bc1, out=b)
            b /= a
            np.multiply(wb, _WEIGHT_DECAY, out=a)
            a += b
            a *= _LEARNING_RATE
            wb -= a
            done += 1
        return done

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="smoothtta-train") as pool:

        def on_helper(fn, *args):
            """Start fn(*args) on the helper; the call returned gives (its result, True).

            If the helper has not started it by then, the call cancels it and
            runs it on the calling thread instead, giving (result, False).
            """
            task = pool.submit(fn, *args)

            def join():
                if task.cancel():
                    counts["taken_back"] += 1
                    return fn(*args), False
                return task.result(), True

            return join

        def output_layer(dpre, t):
            join = on_helper(_output_grads, dpre, t, output["W2"], output["b2"])

            def gradients():
                counts["helper_gradients"] += join()[1]
                return output["W2"], output["b2"]

            return gradients

        batch_size = max(1, -(-n // _MAX_BATCHES))  # ceil: covers the set in <= _MAX_BATCHES
        for _ in range(_EPOCHS):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                take = order[start : start + batch_size]
                batch = feature_rows(features, take, used)
                loss, grads = _loss_and_grads(live, batch, targets[take], local_fields[take], gate,
                                              output_layer)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(trace + [loss])
                epoch_losses.append(loss)
                step += 1
                args = (itertools.count(), grads, _clip_scale(grads),
                        1.0 - beta1**step, 1.0 - beta2**step)
                join = on_helper(adamw, *args, scratch[1])
                adamw(*args, scratch[0])
                blocks, helped = join()  # taken back, it finds no block left
                counts["helper_blocks"] += blocks if helped else 0
            trace.append(float(np.mean(epoch_losses)))
    return step, trace, counts


def save_params(params: DecoderParams, path, channels: int | None = None) -> None:
    header = {
        "kind": PARAMS_KIND,
        "horizon": params.horizon,
        "channels": channels,
        "context_size": params.context_size,
        "hidden": params.hidden,
        "output_scale": float(params.output_scale),
        "feature_layout": FEATURE_LAYOUT,
        "seed": params.seed,
    }
    paramio.save_blocks(path, header, {name: getattr(params, name) for name in _BLOCKS})


def load_params(path) -> DecoderParams:
    header, blocks = paramio.load_blocks(path)
    if header.get("kind") != PARAMS_KIND:
        raise ValueError(f"not a decoder parameter file: kind={header.get('kind')}")
    if header.get("feature_layout") != FEATURE_LAYOUT:
        raise ValueError(
            "feature layout mismatch: file has "
            f"{header.get('feature_layout')!r}, this build expects {FEATURE_LAYOUT!r}"
        )
    if sorted(blocks) != sorted(_BLOCKS):
        raise ValueError(f"decoder blocks {sorted(blocks)}, expected {sorted(_BLOCKS)}")
    return DecoderParams(
        horizon=paramio.header_number(header, "horizon"),
        context_size=paramio.header_number(header, "context_size"),
        hidden=paramio.header_number(header, "hidden"),
        output_scale=paramio.header_number(header, "output_scale", float),
        seed=paramio.header_number(header, "seed"),
        **blocks,
    )
