"""Fixed per-window cases shared by the golden capture and the golden test.

Each case runs the per-window loop of the public API (the loop of
`test_engine.reference_rollout`) over a small seeded stream and records
every intermediate it produces: forecasts, periods, prefix lengths,
boundary errors, local and global fields, corrections, and the memory template
and context each window reads. Run

    PYTHONPATH=src python tests/per_window_cases.py

to re-capture `tests/data/per_window_golden.npz` from the package as it is
now. Do that only for an intended change of the per-window outputs; the
golden is compared with exact equality.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np

from smoothtta.backbones import NormalizationWrapper, fit_linear_backbone
from smoothtta.boundary import (
    build_boundary,
    contaminate_prefix,
    estimate_dominant_period,
    select_prefix_length,
)
from smoothtta.config import RolloutConfig
from smoothtta.data import Dataset, split_dataset
from smoothtta.decoder import init_params
from smoothtta.fusion import apply_correction
from smoothtta.memory import cold_start, context_vector, update_memory
from smoothtta.rollout import correct_window
from smoothtta.synth import seasonal_stream

GOLDEN = Path(__file__).resolve().parent / "data" / "per_window_golden.npz"
L, H, D = 24, 12, 3


def _dataset(flat: bool = False) -> Dataset:
    _, noisy = seasonal_stream(600, D, period=8, seed=17)
    if flat:  # a constant stretch in the test split: flat lookbacks
        noisy[440:500] = noisy[440]
    ds = Dataset("per-window", noisy, [f"c{j}" for j in range(D)])
    split_dataset(ds, (0.5, 0.2, 0.3), min_span=L + H)
    return ds.standardized()


def run_loop(backbone, dataset, config, params, *, contamination=0.0, gaps=(1,),
             windows=24) -> dict[str, np.ndarray]:
    """The per-window loop; every intermediate of every window, stacked.

    Residuals whose horizon has elapsed are folded into the memory as one
    batch, with `gaps` windows between folds in turn; at stride 1, gaps of
    1-4 give batches of 1-4 residuals.
    """
    s = config.solver
    values = dataset.values
    sigma = dataset.train_std()
    memory = cold_start(H, dataset.channels, s.memory_decay, s.context_size)
    pending: deque = deque()
    lo, hi = dataset.range_of("test")
    starts = list(range(lo + L, hi - H + 1, config.effective_stride))[:windows]
    out: dict[str, list] = {}
    fold_at, turn = 0, 0
    for i, t in enumerate(starts):
        if i == fold_at:
            fold_at, turn = i + gaps[turn % len(gaps)], turn + 1
            batch = []
            while pending and pending[0][0] + H <= t:
                batch.append(pending.popleft()[1])
            if batch:
                memory = update_memory(memory, batch)
        X = values[t - L : t]
        forecast = backbone.predict(X, start=t)
        if config.prefix_mode == "fixed":
            period = config.prefix_length
        else:
            period = estimate_dominant_period(X, fallback=s.min_prefix_support)
        a = select_prefix_length(period, period, H, s.min_prefix_support)
        Y = values[t : t + H]
        bnd = build_boundary(Y[:a], forecast, a)
        if contamination > 0:
            bnd = contaminate_prefix(bnd, forecast, contamination, sigma, 1000 + i)
        delta, parts = correct_window(forecast, bnd, memory, params, config)
        record = {
            "forecast": forecast,
            "period": period,
            "prefix_length": a,
            "padded_error": bnd.padded_error,
            "template": memory.template,
            "context": context_vector(memory),
            "memory_version": memory.updates,
            "local": parts["local"],
            "global": parts["global"],
            "delta": delta,
            "corrected": apply_correction(forecast, delta),
        }
        for key, value in record.items():
            out.setdefault(key, []).append(np.asarray(value, dtype=float))
        pending.append((t, Y - forecast))
    return {key: np.stack(v) for key, v in out.items()}


def _cfg(**changes) -> RolloutConfig:
    cfg = RolloutConfig(lookback=L, horizon=H, stride=2, seed=3, standardize=False)
    for k, v in changes.pop("solver", {}).items():
        setattr(cfg.solver, k, v)
    for k, v in changes.items():
        setattr(cfg, k, v)
    return cfg


def cases():
    """(name, thunk) pairs; each thunk returns a dict of named arrays."""
    ds, flat = _dataset(), _dataset(flat=True)
    linear = fit_linear_backbone(ds.part("train"), L, H)
    flat_linear = fit_linear_backbone(flat.part("train"), L, H)
    s = _cfg().solver
    params = init_params(H, s.context_size, hidden=10, output_scale=s.global_scale, seed=7)

    def fixed(a):
        return _cfg(prefix_mode="fixed", prefix_length=a)

    return [
        ("fft", lambda: run_loop(linear, ds, _cfg(), params)),
        ("fixed1", lambda: run_loop(linear, ds, fixed(1), params)),
        ("fixed2", lambda: run_loop(linear, ds, fixed(2), params)),
        ("fixed7", lambda: run_loop(linear, ds, fixed(7), params)),
        ("fixed0", lambda: run_loop(linear, ds, fixed(0), params, windows=6)),
        ("flat_fallback", lambda: run_loop(
            flat_linear, flat, _cfg(stride=1, solver={"min_prefix_support": 3}), params,
            windows=60)),
        ("normalized", lambda: run_loop(NormalizationWrapper(linear), ds, _cfg(), params)),
        ("contaminate", lambda: run_loop(linear, ds, _cfg(), params, contamination=0.4)),
        ("clip_binds", lambda: run_loop(
            linear, ds, _cfg(solver={"correction_clip": 0.05}), params, contamination=0.4)),
        ("no_bound", lambda: run_loop(
            linear, ds, _cfg(solver={"correction_clip": 0.05, "no_bound": True}), params,
            contamination=0.4)),
        ("cold_memory", lambda: run_loop(linear, ds, _cfg(solver={"no_memory": True}), params)),
        ("batched_memory", lambda: run_loop(
            linear, ds, _cfg(stride=1, solver={"memory_decay": 0.3}), params,
            gaps=(1, 2, 3, 4), windows=40)),
        ("local_only", lambda: run_loop(linear, ds, _cfg(solver={"local_only": True}), params)),
        ("global_only", lambda: run_loop(linear, ds, _cfg(solver={"global_only": True}), params)),
        ("no_decoder", lambda: run_loop(linear, ds, fixed(5), None)),
    ]


def capture() -> dict[str, np.ndarray]:
    flat = {}
    for name, thunk in cases():
        for key, arr in thunk().items():
            flat[f"{name}/{key}"] = arr
    return flat


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **capture())
    print(f"wrote {GOLDEN}")
