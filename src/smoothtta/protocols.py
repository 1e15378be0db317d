"""Robustness protocols, ablations, sensitivity sweeps, and the micro-bench.

Every protocol evaluates against clean targets; contamination and anchors
only change what the solver is allowed to see. Ablations share one trained
checkpoint and flip solver switches at test time, so differences are
attributable to the disabled component.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .config import ABLATION_SWITCHES, RolloutConfig
from .data import Dataset
from .decoder import DecoderParams, init_params
from .rollout import EvalReport, rollout
from .synth import biased_oracle_fixture

CONTAMINATION_RATIOS = (0.0, 0.01, 0.05, 0.10, 0.20)

ABLATION_VARIANTS = ("full", *ABLATION_SWITCHES)


def variant_config(config: RolloutConfig, variant: str) -> RolloutConfig:
    """A copy of `config` with only `variant`'s ablation switch on ("full": none)."""
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    cfg = copy.deepcopy(config)
    for switch in ABLATION_SWITCHES:
        setattr(cfg.solver, switch, switch == variant)
    return cfg


def run_ablation(
    backbone,
    dataset: Dataset,
    config: RolloutConfig,
    decoder_params: DecoderParams | None,
    variants: tuple[str, ...] = ABLATION_VARIANTS,
) -> dict[str, EvalReport]:
    """Evaluate test-time ablation variants from one shared checkpoint."""
    return {
        v: rollout(backbone, dataset, variant_config(config, v), decoder_params)
        for v in variants
    }


@dataclass
class ContaminationSummary:
    ratios: tuple[float, ...]
    reports: dict[float, EvalReport]
    degradation: float
    zero_shot_identical: bool

    def table(self) -> list[dict]:
        keys = ("mse_base", "mse_corrected")
        return [self.reports[r].summary_row(keys, ratio=r) for r in self.ratios]


def run_contamination_grid(
    backbone,
    dataset: Dataset,
    config: RolloutConfig,
    decoder_params: DecoderParams | None,
    ratios: tuple[float, ...] = CONTAMINATION_RATIOS,
) -> ContaminationSummary:
    """One rollout per outlier ratio; degradation vs the clean-prefix run.

    `ratios` must hold 0 (the clean run) and a nonzero ratio, none twice.
    Degradation is the mean over nonzero ratios of (mse_r - mse_clean) /
    mse_clean on the corrected forecasts.
    """
    if 0 not in ratios or not any(ratios) or len(set(ratios)) < len(ratios):
        raise ValueError(f"ratios must hold 0 and a nonzero ratio, none twice, got {tuple(ratios)}")
    sigma = dataset.train_std()
    reports = {
        r: rollout(
            backbone,
            dataset,
            config,
            decoder_params,
            contamination_ratio=r,
            contamination_sigma=sigma,
        )
        for r in ratios
    }
    clean = reports[0].aggregate()["mse_corrected"]
    nonzero = [r for r in ratios if r > 0]
    degradation = float(
        np.mean([(reports[r].aggregate()["mse_corrected"] - clean) / clean for r in nonzero])
    )
    bases = [round(reports[r].aggregate()["mse_base"], 12) for r in ratios]
    return ContaminationSummary(
        ratios=tuple(ratios),
        reports=reports,
        degradation=degradation,
        zero_shot_identical=len(set(bases)) == 1,
    )


def run_sparse_boundary(
    backbone,
    dataset: Dataset,
    config: RolloutConfig,
    decoder_params: DecoderParams | None,
    k: int = 3,
    near_steps: tuple[int, int] = (4, 27),
    far_steps: tuple[int, int] = (73, 96),
) -> EvalReport:
    """Reveal only the first k future points; report near/far-field metrics.

    Runs a copy of `config` with the prefix fixed to k (0 is zero-shot).
    Step ranges are 1-indexed inclusive, matching the reporting convention
    (near 4:27, far 73:96 for a 96-step horizon).
    """
    if k >= config.horizon:
        raise ValueError(f"k={k} must be smaller than the horizon {config.horizon}")
    slices = {
        "near": slice(near_steps[0] - 1, near_steps[1]),
        "far": slice(far_steps[0] - 1, far_steps[1]),
    }
    cfg = copy.deepcopy(config)
    cfg.set_prefix(k)
    return rollout(backbone, dataset, cfg, decoder_params, extra_slices=slices)


def anchor_count(ratio: float, support: int = 36) -> int:
    """Number of true anchors inside the support window (2/4/7 for 5/10/20%)."""
    return int(round(ratio * support))


def run_sparse_anchor(
    backbone,
    dataset: Dataset,
    config: RolloutConfig,
    decoder_params: DecoderParams | None,
    ratio: float,
    support: int = 36,
    eval_steps: tuple[int, int] = (37, 60),
) -> EvalReport:
    """Sparse anchors in a predicted support window, evaluated beyond it.

    Within the first `support` predicted steps only round(ratio * support)
    positions are replaced by true observations; the rest keep the zero-shot
    prediction and contribute zero residual. Headline MSE is restricted to
    the 1-indexed inclusive `eval_steps` range.
    """
    return rollout(
        backbone,
        dataset,
        config,
        decoder_params,
        anchors=(support, anchor_count(ratio, support)),
        headline_slice=slice(eval_steps[0] - 1, eval_steps[1]),
    )


SWEEP_GRIDS = {
    "memory_decay": (0.0, 0.5, 0.8, 0.92, 0.98),
    "smoothness_alpha": (0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
    "prefix": (1, 2, 3, 5, 7, "fft"),
}


def run_sweep(
    backbone,
    dataset: Dataset,
    config: RolloutConfig,
    decoder_params: DecoderParams | None,
    parameter: str,
    grid: tuple | None = None,
) -> list[dict]:
    """One rollout per grid point with a shared checkpoint; tidy rows out."""
    if parameter not in SWEEP_GRIDS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; choose from {list(SWEEP_GRIDS)}")
    points = grid if grid is not None else SWEEP_GRIDS[parameter]
    rows = []
    for value in points:
        cfg = copy.deepcopy(config)
        if parameter == "prefix":
            cfg.set_prefix(value)
        else:
            setattr(cfg.solver, parameter, float(value))
        report = rollout(backbone, dataset, cfg, decoder_params)
        keys = ("mse_base", "mse_corrected", "mae_corrected", "improvement")
        rows.append(report.summary_row(keys, parameter=parameter, value=value))
    return rows


@dataclass
class BenchResult:
    horizon: int
    batch: int
    channels: int
    prefix: int
    repetitions: int
    ms_per_batch: float
    ms_per_batch_var: float
    ms_per_window: float
    windows_per_second: float
    decoder_parameters: int
    decoder_macs_per_window: int


def bench_latency(
    horizons: tuple[int, ...] = (96, 192, 336, 720),
    batch: int = 48,
    channels: int = 7,
    prefix: int = 4,
    repetitions: int = 10,
    config: RolloutConfig | None = None,
    seed: int = 0,
) -> list[BenchResult]:
    """Correction-engine latency: `rollout` over `batch` synthetic windows per horizon.

    The windows come from a biased-oracle fixture with `channels` channels,
    whose backbone only reads a slice, and get a fixed `prefix`-step boundary
    and an untrained decoder. One untimed warm-up rollout builds the cached
    operators. Reports the median ms per rollout over `repetitions` timed
    ones plus the decoder size, which grows with the horizon because the
    decoder maps horizon-length fields, and its multiply-adds per window,
    which also grow with the `prefix` the decoder reads.
    """
    base = config or RolloutConfig()
    results = []
    for H in horizons:
        fx = biased_oracle_fixture(
            H, base.lookback, channels, n_test_windows=batch, seed=seed, solver=base.solver
        )
        cfg = fx.config
        cfg.set_prefix(prefix)
        s = cfg.solver
        params = init_params(
            horizon=H,
            context_size=s.context_size,
            hidden=s.hidden_dim,
            output_scale=s.global_scale,
            seed=seed,
        )
        rollout(fx.backbone, fx.dataset, cfg, params)  # warm-up
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            rollout(fx.backbone, fx.dataset, cfg, params)
            times.append((time.perf_counter() - t0) * 1000.0)
        med = float(np.median(times))
        results.append(
            BenchResult(
                horizon=H,
                batch=batch,
                channels=channels,
                prefix=prefix,
                repetitions=repetitions,
                ms_per_batch=med,
                ms_per_batch_var=float(np.var(times)),
                ms_per_window=med / batch,
                windows_per_second=1000.0 * batch / med if med > 0 else float("inf"),
                decoder_parameters=params.count(),
                decoder_macs_per_window=params.macs_per_window(min(prefix, H), channels),
            )
        )
    return results
