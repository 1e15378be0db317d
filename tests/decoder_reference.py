"""Reference implementations of the decoder's gradient gate and optimizer.

These are the straightforward versions of `smoothtta.decoder`'s batched and
in-place code: one full forward pass per perturbed coordinate, and an AdamW
loop that allocates fresh arrays at every step. Tests compare the fast
versions against them.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np

from smoothtta import decoder as dec
from smoothtta.decoder import TrainingDivergedError


def gradient_check(params, features, target, local_field, gate, step=1e-4,
                   max_coords=200, seed=0):
    """Max relative error of analytic vs central-difference gradients, per coordinate."""
    features = np.atleast_2d(features)
    target = np.atleast_2d(target)
    local_field = np.atleast_2d(local_field)
    _, analytic = dec._loss_and_grads(params, features, target, local_field, gate)

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


def adamw(params, features, targets, local_fields, gate, seed=0):
    """The optimizer half of `train_decoder` (no gradient gate), out of place.

    Reads the optimizer's settings from the same `smoothtta.decoder` module
    constants, at call time, so a test that patches one patches both. Draws
    the gate's sample picks from the RNG first, so that its batch order
    matches `train_decoder`'s. W1 is trained on the columns with a nonzero
    feature in some row, as a row-major copy against each batch's row-major
    used features; the returned `DecoderParams` holds zeros in the other
    columns.
    """
    n = features.shape[0]
    rng = np.random.default_rng(seed)
    rng.choice(n, size=min(dec._GATE_SAMPLES, n), replace=False)

    used = features.any(axis=0)
    weights = {name: np.array(getattr(params, name)) for name in ("W1", "b1", "W2", "b2")}
    weights["W1"] = np.ascontiguousarray(weights["W1"][:, used])
    m = {k: np.zeros_like(v) for k, v in weights.items()}
    v = {k: np.zeros_like(v_) for k, v_ in weights.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    trace = []

    batch_size = max(1, -(-n // dec._MAX_BATCHES))
    for _ in range(dec._EPOCHS):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            current = SimpleNamespace(output_scale=params.output_scale, **weights)
            loss, grads = dec._loss_and_grads(
                current, np.ascontiguousarray(features[take][:, used]), targets[take],
                local_fields[take], gate,
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(trace + [loss])
            epoch_losses.append(loss)

            total_sq = sum(float(np.sum(g**2)) for g in grads.values())
            norm = np.sqrt(total_sq)
            scale = dec._GRAD_CLIP / norm if norm > dec._GRAD_CLIP else 1.0

            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            for name in weights:
                g = grads[name] * scale
                m[name] = beta1 * m[name] + (1 - beta1) * g
                v[name] = beta2 * v[name] + (1 - beta2) * g**2
                update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
                weights[name] = weights[name] - dec._LEARNING_RATE * (
                    update + dec._WEIGHT_DECAY * weights[name]
                )
        trace.append(float(np.mean(epoch_losses)))
    W1 = np.zeros(params.W1.shape)
    W1[:, used] = weights.pop("W1")
    return dataclasses.replace(params, W1=W1, **weights), trace
