"""Fixed engine cases shared by the golden capture and the golden test.

Each case is one call of `rollout` or `build_decoder_training_set` on small
seeded fixtures; its outputs flatten to named float arrays. Run

    PYTHONPATH=src python tests/engine_cases.py

to re-capture `tests/data/engine_golden.npz` from the engine as it is now.
Do that only for an intended change of the engine's outputs.
"""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np

from smoothtta.backbones import NormalizationWrapper, fit_linear_backbone
from smoothtta.decoder import feature_rows, init_params
from smoothtta.rollout import build_decoder_training_set, rollout
from smoothtta.synth import biased_oracle_fixture

GOLDEN = Path(__file__).resolve().parent / "data" / "engine_golden.npz"


class NanAtStarts:
    """Backbone wrapper that returns NaN for windows whose start is a multiple of `every`."""

    def __init__(self, inner, every: int):
        self.inner = inner
        self.every = every
        self.kind = f"nan({inner.kind})"
        self.lookback, self.horizon, self.channels = inner.lookback, inner.horizon, inner.channels

    def predict(self, X, start=None):
        out = self.inner.predict(X, start=start)
        if start % self.every == 0:
            out = out.copy()
            out[1, 0] = np.nan
        return out

    def param_digest(self):
        return self.inner.param_digest()


def _fixtures():
    fx = biased_oracle_fixture(
        horizon=16, lookback=32, channels=2, n_test_windows=25, period=8,
        wave_scale=0.5, seed=11,
    )
    s = fx.config.solver
    params = init_params(
        horizon=16, context_size=s.context_size, hidden=12,
        output_scale=s.global_scale, seed=5,
    )
    linear = fit_linear_backbone(fx.dataset.part("train"), 32, 16, 1e-3)
    return fx, params, linear


def _cfg(fx, **changes):
    cfg = copy.deepcopy(fx.config)
    solver = changes.pop("solver", {})
    for k, v in changes.items():
        setattr(cfg, k, v)
    for k, v in solver.items():
        setattr(cfg.solver, k, v)
    return cfg


def _rows(report) -> dict[str, np.ndarray]:
    keys = list(report.rows[0]) if report.rows else []
    out = {k: np.array([r[k] for r in report.rows], dtype=float) for k in keys}
    out["n_flagged"] = np.array([report.n_flagged], dtype=float)
    return out


def _trainset(result) -> dict[str, np.ndarray]:
    store, targets, locals_, gate = result  # the dense rows, assembled from the store
    features = feature_rows(store, np.arange(store.shape[0]))
    return {"features": features, "targets": targets, "locals": locals_, "gate": gate}


def cases():
    """(name, thunk) pairs; each thunk returns a dict of named arrays."""
    fx, params, linear = _fixtures()
    ds, bb = fx.dataset, fx.backbone
    sigma = ds.train_std()
    slices = {"near": slice(3, 8), "far": slice(10, 16)}
    norm = NormalizationWrapper(linear)
    out = [
        ("fft", lambda: _rows(rollout(bb, ds, fx.config, params))),
        ("fixed5", lambda: _rows(rollout(
            bb, ds, _cfg(fx, prefix=5), params))),
        ("override0", lambda: _rows(rollout(
            bb, ds, _cfg(fx, prefix=0), params))),
        ("override3_slices", lambda: _rows(rollout(
            bb, ds, _cfg(fx, prefix=3), params,
            extra_slices=slices))),
        ("contaminate", lambda: _rows(rollout(
            bb, ds, fx.config, params, contamination_ratio=0.2, contamination_sigma=sigma))),
        ("anchors0", lambda: _rows(rollout(
            bb, ds, fx.config, params, anchors=(8, 0), headline_slice=slice(8, 12)))),
        ("anchors3", lambda: _rows(rollout(
            bb, ds, fx.config, params, anchors=(8, 3), headline_slice=slice(8, 12)))),
        ("stride4", lambda: _rows(rollout(
            bb, ds, _cfg(fx, stride=4, max_windows=40), params))),
        ("stride1_linear_norm", lambda: _rows(rollout(
            norm, ds, _cfg(fx, stride=1, max_windows=60), params))),
        ("stride3_nan", lambda: _rows(rollout(
            NanAtStarts(bb, 5), ds, _cfg(fx, stride=3, max_windows=50), params))),
        ("no_decoder", lambda: _rows(rollout(bb, ds, _cfg(fx, stride=5), None))),
        ("immediate_strideH", lambda: _rows(rollout(
            bb, ds, _cfg(fx, memory_schedule="immediate"), params))),
    ]
    for flag in (False, True):  # outliers large enough for the clip to bind
        out.append((f"contaminate_clip_off_{flag}", lambda flag=flag: _rows(rollout(
            bb, ds, _cfg(fx, stride=6, solver={"no_bound": flag, "basis_clip": 5.0}), params,
            contamination_ratio=0.5, contamination_sigma=8 * sigma))))
    for flag in ("local_only", "global_only", "no_bound", "no_memory"):
        out.append((flag, lambda flag=flag: _rows(rollout(
            bb, ds, _cfg(fx, stride=4, max_windows=40, solver={flag: True}), params))))
    out += [
        ("trainset", lambda: _trainset(build_decoder_training_set(bb, ds, fx.config))),
        ("trainset_stride3_nan", lambda: _trainset(build_decoder_training_set(
            NanAtStarts(linear, 7), ds, _cfg(fx, stride=3)))),
        ("trainset_flags", lambda: _trainset(build_decoder_training_set(
            bb, ds, _cfg(fx, stride=2, solver={
                "global_only": True, "no_memory": True, "no_bound": True,
            })))),
        ("trainset_local_only_fixed", lambda: _trainset(build_decoder_training_set(
            bb, ds, _cfg(fx, stride=4, prefix=3,
                         solver={"local_only": True})))),
    ]
    return out


def capture() -> dict[str, np.ndarray]:
    flat = {}
    for name, thunk in cases():
        for key, arr in thunk().items():
            flat[f"{name}/{key}"] = np.asarray(arr, dtype=float)
    return flat


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **capture())
    print(f"wrote {GOLDEN}")
