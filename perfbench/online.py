"""A per-window caller built only from smoothtta's public per-window API.

It consumes the test split of a stream one window at a time, the way a
forecaster reissued every step would, and applies each window's residual to
the error memory only after that window's whole horizon has elapsed. The
same loop is the oracle the offline CLI rollout is checked against.

Functions are looked up on their modules at call time, so the tracer's
wrappers see these calls too.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np

backbones = import_module("smoothtta.backbones")
boundary = import_module("smoothtta.boundary")
config_mod = import_module("smoothtta.config")
data = import_module("smoothtta.data")
decoder = import_module("smoothtta.decoder")
fusion = import_module("smoothtta.fusion")
memory_mod = import_module("smoothtta.memory")
rollout_mod = import_module("smoothtta.rollout")


@dataclass
class Session:
    """What a per-window caller holds: config, standardized stream, models."""

    config: object
    dataset: object
    backbone: object
    decoder_params: object

    def window_starts(self) -> list[int]:
        lo, hi = self.dataset.range_of("test")
        L, H = self.config.lookback, self.config.horizon
        return list(range(lo + L, hi - H + 1, self.config.effective_stride))


@dataclass
class PassResult:
    mse_corrected: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    memory_versions: list[int] = field(default_factory=list)
    max_abs_delta: list[float] = field(default_factory=list)


def open_session(workload, csv_path, backbone_path, decoder_path) -> Session:
    """Load the stream exactly as the CLI does, plus the saved models."""
    cfg = config_mod.RolloutConfig(
        lookback=workload.lookback,
        horizon=workload.horizon,
        stride=workload.stride,
        memory_schedule="safe",
    )
    cfg.validate()
    ds = data.load_csv(csv_path)
    split = workload.split
    ratios = tuple(float(x) for x in split.split(":")) if ":" in split else split
    data.split_dataset(ds, ratios, min_span=cfg.lookback + cfg.horizon)
    return Session(
        config=cfg,
        dataset=ds.standardized(),
        backbone=backbones.load_backbone(backbone_path),
        decoder_params=decoder.load_params(decoder_path),
    )


def run_pass(session: Session, tracer=None) -> PassResult:
    """One pass over the test split from a cold memory, timing each step.

    A step is: apply the residuals whose horizon has elapsed, predict,
    estimate the period and prefix length, build the boundary, correct and
    apply the correction. A step that raises records NaN outputs and
    latency, which the checks count as a failed window. With a tracer, each
    step's spans carry its window index as the operation id.
    """
    cfg = session.config
    s = cfg.solver
    H, L = cfg.horizon, cfg.lookback
    values = session.dataset.values
    memory = memory_mod.cold_start(H, session.dataset.channels, s.memory_decay, s.context_size)
    pending: deque = deque()
    out = PassResult()
    clock = time.perf_counter
    for i, t in enumerate(session.window_starts()):
        if tracer is not None:
            tracer.op = f"w{i}"
        t0 = clock()
        try:
            while pending and pending[0][0] + H <= t:
                _, residual = pending.popleft()
                memory = memory_mod.update_memory(memory, [residual])
            X = values[t - L : t]
            forecast = session.backbone.predict(X, start=t)
            period = boundary.estimate_dominant_period(X, fallback=s.min_prefix_support)
            a = boundary.select_prefix_length(period, period, H, s.min_prefix_support)
            Y = values[t : t + H]
            bnd = boundary.build_boundary(Y[:a], forecast, a)
            delta, _ = rollout_mod.correct_window(
                forecast, bnd, memory, session.decoder_params, cfg
            )
            corrected = fusion.apply_correction(forecast, delta)
        except Exception:  # a failed step is counted by the checks, not fatal
            out.latency_s.append(math.nan)
            out.mse_corrected.append(math.nan)
            out.memory_versions.append(-1)
            out.max_abs_delta.append(math.inf)
            continue
        out.latency_s.append(clock() - t0)

        out.mse_corrected.append(float(np.mean((Y - corrected) ** 2)))
        out.memory_versions.append(memory.updates)
        out.max_abs_delta.append(float(np.max(np.abs(delta))))
        pending.append((t, Y - forecast))
    return out
