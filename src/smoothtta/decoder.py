"""Trainable global branch: a small error-memory decoder.

A one-hidden-layer tanh network maps, per channel, the concatenation of
(zero-shot forecast, local correction, padded prefix error, observation mask,
memory template, context vector) to a full-horizon long-range response.
Weights are shared across channels, trained offline against the fused
correction target, and frozen during rollout. Backpropagation is written out
by hand and guarded by a central finite-difference gradient check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import paramio

FEATURE_LAYOUT = "forecast|local|padded_error|mask|memory|context:v1"
PARAMS_KIND = "memory-decoder"


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
    """Dense decoder parameters, immutable once built (frozen-at-test-time)."""

    horizon: int
    context_size: int
    hidden: int
    output_scale: float
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    seed: int = 0

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

    @property
    def input_width(self) -> int:
        return 5 * self.horizon + 2 * self.context_size

    def count(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size

    def macs_per_channel(self) -> int:
        """Multiply-adds of the two dense layers for one channel's forward pass."""
        return self.W1.size + self.W2.size

    def digest(self) -> str:
        import hashlib

        md = hashlib.sha256()
        for arr in (self.W1, self.b1, self.W2, self.b2):
            md.update(arr.tobytes())
        return md.hexdigest()


def init_params(
    horizon: int,
    context_size: int = 8,
    hidden: int = 256,
    output_scale: float = 1.5,
    seed: int = 0,
) -> DecoderParams:
    """Symmetric uniform init scaled by 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    F = 5 * horizon + 2 * context_size
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


def _forward(params: DecoderParams, features: np.ndarray):
    z1 = features @ params.W1.T + params.b1
    t = np.tanh(z1)
    out = params.output_scale * (t @ params.W2.T + params.b2)
    return out, (features, t)


def decode_batch(
    params: DecoderParams,
    forecasts: np.ndarray,
    local_fields: np.ndarray,
    padded_errors: np.ndarray,
    masks: np.ndarray,
    memory_templates: np.ndarray,
    contexts: np.ndarray,
) -> np.ndarray:
    """Long-range response fields of n windows in one forward pass, (n, H, d).

    The inputs are those of `decode` with a leading window axis.
    """
    n, H, d = forecasts.shape
    if H != params.horizon:
        raise ValueError(f"forecast horizon {H} does not match decoder {params.horizon}")
    blocks = (forecasts, local_fields, padded_errors, masks, memory_templates, contexts)
    feats = build_features(*blocks).reshape(n * d, -1)
    if not np.all(np.isfinite(feats)):
        names = ("forecast", "local_field", "padded_error", "mask", "memory_template", "context")
        bad = [name for name, b in zip(names, blocks) if not np.all(np.isfinite(b))]
        raise ValueError(f"decoder inputs contain non-finite values in: {bad}")
    out, _ = _forward(params, feats)
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


def _loss_and_grads(
    params: DecoderParams,
    features: np.ndarray,
    targets: np.ndarray,
    local_fields: np.ndarray,
    gate: np.ndarray,
):
    """Fused-objective MSE and analytic parameter gradients.

    Loss = mean over samples and steps of
    (local + gate * decoder_output - target)^2, the same combination the
    fusion stage applies (minus the clip, which would kill gradients).
    """
    n = features.shape[0]
    out, (f, t) = _forward(params, features)
    err = local_fields + gate * out - targets
    loss = float(np.mean(err**2))
    dout = (2.0 / err.size) * gate * err
    dpre = params.output_scale * dout
    grads = {
        "W2": dpre.T @ t,
        "b2": dpre.sum(axis=0),
    }
    dz1 = (dpre @ params.W2) * (1.0 - t**2)
    grads["W1"] = dz1.T @ f
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


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

    Probes at most `max_coords` randomly chosen parameter coordinates.
    Relative error uses |ga - gn| / max(|ga| + |gn|, 1e-6) so that a pair of
    exactly-zero gradients scores 0.
    """
    features = np.atleast_2d(features)
    target = np.atleast_2d(target)
    local_field = np.atleast_2d(local_field)
    _, analytic = _loss_and_grads(params, features, target, local_field, gate)

    blocks = {name: np.array(getattr(params, name)) for name in ("W1", "b1", "W2", "b2")}
    coords = [
        (name, idx) for name, arr in blocks.items() for idx in range(arr.size)
    ]
    rng = np.random.default_rng(seed)
    if len(coords) > max_coords:
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picked]

    scale = params.output_scale

    def raw_loss() -> float:
        t = np.tanh(features @ blocks["W1"].T + blocks["b1"])
        out = scale * (t @ blocks["W2"].T + blocks["b2"])
        err = local_field + gate * out - target
        return float(np.mean(err**2))

    worst = 0.0
    for name, idx in coords:
        arr = blocks[name]
        base = arr.flat[idx]
        arr.flat[idx] = base + step
        up = raw_loss()
        arr.flat[idx] = base - step
        down = raw_loss()
        arr.flat[idx] = base
        numeric = (up - down) / (2.0 * step)
        exact = analytic[name].flat[idx]
        rel = abs(exact - numeric) / max(abs(exact) + abs(numeric), 1e-6)
        worst = max(worst, rel)
    return worst


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    weight_decay: float = 1e-4
    grad_clip: float = 1.0
    epochs: int = 5
    max_batches: int = 16
    seed: int = 0
    check_gradients: bool = True
    check_samples: int = 20
    check_tolerance: float = 1e-4


def train_decoder(
    params: DecoderParams,
    features: np.ndarray,
    targets: np.ndarray,
    local_fields: np.ndarray,
    gate: np.ndarray,
    config: TrainConfig | None = None,
) -> tuple[DecoderParams, list[float]]:
    """Fit the decoder against the fused-correction regression target.

    AdamW with global gradient-norm clipping, a fixed epoch budget, and at
    most `max_batches` batches per epoch (batches grow to cover the sample
    set). Returns the trained parameters and the per-epoch loss trace.
    A finite-difference gradient check on random samples gates the run.
    """
    cfg = config or TrainConfig()
    n = features.shape[0]
    if n == 0:
        raise UntrainedDecoderError("no training samples")

    rng = np.random.default_rng(cfg.seed)
    if cfg.check_gradients:
        n_check = min(cfg.check_samples, n)
        picks = rng.choice(n, size=n_check, replace=False)
        worst = max(
            gradient_check(
                params,
                features[i],
                targets[i],
                local_fields[i],
                gate,
                seed=cfg.seed + int(i),
            )
            for i in picks
        )
        if worst > cfg.check_tolerance:
            raise GradientCheckError(
                f"gradient check failed before training: max relative error {worst:.3e}"
            )

    weights = {name: np.array(getattr(params, name)) for name in ("W1", "b1", "W2", "b2")}
    m = {k: np.zeros_like(v) for k, v in weights.items()}
    v = {k: np.zeros_like(v_) for k, v_ in weights.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    trace: list[float] = []

    batch_size = max(1, -(-n // cfg.max_batches))  # ceil: covers the set in <= max_batches
    current = params
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            loss, grads = _loss_and_grads(
                current, features[take], targets[take], local_fields[take], gate
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(trace + [loss])
            epoch_losses.append(loss)

            total_sq = sum(float(np.sum(g**2)) for g in grads.values())
            norm = np.sqrt(total_sq)
            scale = cfg.grad_clip / norm if norm > cfg.grad_clip else 1.0

            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            for name in weights:
                g = grads[name] * scale
                m[name] = beta1 * m[name] + (1 - beta1) * g
                v[name] = beta2 * v[name] + (1 - beta2) * g**2
                update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
                weights[name] = weights[name] - cfg.learning_rate * (
                    update + cfg.weight_decay * weights[name]
                )
            current = DecoderParams(
                horizon=params.horizon,
                context_size=params.context_size,
                hidden=params.hidden,
                output_scale=params.output_scale,
                seed=params.seed,
                **{k: w.copy() for k, w in weights.items()},
            )
        trace.append(float(np.mean(epoch_losses)))
    return current, trace


def save_params(params: DecoderParams, path, channels: int | None = None) -> None:
    header = {
        "kind": PARAMS_KIND,
        "horizon": params.horizon,
        "channels": channels,
        "context_size": params.context_size,
        "hidden": params.hidden,
        "output_scale": params.output_scale,
        "feature_layout": FEATURE_LAYOUT,
        "seed": params.seed,
    }
    paramio.save_blocks(
        path, header, {"W1": params.W1, "b1": params.b1, "W2": params.W2, "b2": params.b2}
    )


def load_params(path) -> DecoderParams:
    header, blocks = paramio.load_blocks(path)
    if header.get("kind") != PARAMS_KIND:
        raise ValueError(f"not a decoder parameter file: kind={header.get('kind')}")
    if header.get("feature_layout") != FEATURE_LAYOUT:
        raise ValueError(
            "feature layout mismatch: file has "
            f"{header.get('feature_layout')!r}, this build expects {FEATURE_LAYOUT!r}"
        )
    return DecoderParams(
        horizon=int(header["horizon"]),
        context_size=int(header["context_size"]),
        hidden=int(header["hidden"]),
        output_scale=float(header["output_scale"]),
        seed=int(header["seed"]),
        **blocks,
    )
