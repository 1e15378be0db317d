import copy
from unittest import mock

import numpy as np
import pytest

import smoothtta.protocols as protocols
from smoothtta.config import ABLATION_SWITCHES
from smoothtta.decoder import DecoderParams
from smoothtta.protocols import (
    ABLATION_VARIANTS,
    SWEEP_GRIDS,
    anchor_count,
    bench_latency,
    run_ablation,
    run_contamination_grid,
    run_sparse_anchor,
    run_sparse_boundary,
    run_sweep,
    variant_config,
)
from smoothtta.rollout import rollout, train_decoder_for
from smoothtta.synth import biased_oracle_fixture


@pytest.fixture(scope="module")
def fx():
    return biased_oracle_fixture(
        horizon=16, lookback=32, channels=2, n_test_windows=25, period=8, seed=11
    )


@pytest.fixture(scope="module")
def trained(fx):
    params, _ = train_decoder_for(fx.backbone, fx.dataset, fx.config)
    return params


def test_contamination_zero_shot_rows_identical(fx, trained):
    summary = run_contamination_grid(
        fx.backbone, fx.dataset, fx.config, trained, ratios=(0.0, 0.05, 0.2)
    )
    assert summary.zero_shot_identical
    bases = [row["mse_base"] for row in summary.table()]
    assert len(set(bases)) == 1


def test_contamination_clean_ratio_contributes_zero(fx, trained):
    summary = run_contamination_grid(
        fx.backbone, fx.dataset, fx.config, trained, ratios=(0.0, 0.1)
    )
    clean = summary.reports[0.0].aggregate()["mse_corrected"]
    dirty = summary.reports[0.1].aggregate()["mse_corrected"]
    assert summary.degradation == pytest.approx((dirty - clean) / clean)


@pytest.mark.parametrize("ratios", [(0.1, 0.3), (0.0,), (0.0, 0.0), (0.0, 0.1, 0.1)])
def test_contamination_grid_needs_a_clean_run_and_a_contaminated_one(fx, ratios):
    with pytest.raises(ValueError, match="0 and a nonzero ratio"):
        run_contamination_grid(fx.backbone, fx.dataset, fx.config, None, ratios)


def test_sparse_boundary_reports_near_and_far(fx, trained):
    report = run_sparse_boundary(
        fx.backbone, fx.dataset, fx.config, trained,
        k=3, near_steps=(2, 6), far_steps=(12, 16),
    )
    assert all(row["prefix_length"] == 3 for row in report.rows)
    for key in ("near_mse_base", "near_mse_corrected", "far_mse_base", "far_mse_corrected"):
        assert key in report.extra


def test_sparse_boundary_k_zero_equals_zero_shot(fx, trained):
    report = run_sparse_boundary(
        fx.backbone, fx.dataset, fx.config, trained,
        k=0, near_steps=(2, 6), far_steps=(12, 16),
    )
    for row in report.rows:
        assert row["mse_corrected"] == row["mse_base"]
        assert row["near_mse_corrected"] == row["near_mse_base"]
        assert row["far_mse_corrected"] == row["far_mse_base"]


def test_sparse_boundary_rejects_k_at_horizon(fx, trained):
    with pytest.raises(ValueError):
        run_sparse_boundary(fx.backbone, fx.dataset, fx.config, trained, k=16)


def test_anchor_counts_match_reference_grid():
    assert anchor_count(0.05) == 2
    assert anchor_count(0.10) == 4
    assert anchor_count(0.20) == 7


def test_sparse_anchor_zero_anchors_is_zero_shot(fx, trained):
    report = run_sparse_anchor(
        fx.backbone, fx.dataset, fx.config, trained,
        ratio=0.0, support=8, eval_steps=(9, 14),
    )
    for row in report.rows:
        assert row["mse_corrected"] == row["mse_base"]


def test_sparse_anchor_perfect_forecast_keeps_zero_correction(fx):
    # anchors matching a perfect forecast give zero residual everywhere; with
    # a zero decoder the correction must vanish on the eval window
    H, K, HID = fx.config.horizon, fx.config.solver.context_size, 8
    zero_decoder = DecoderParams(
        horizon=H, context_size=K, hidden=HID, output_scale=1.5,
        W1=np.zeros((HID, 5 * H + 2 * K)), b1=np.zeros(HID),
        W2=np.zeros((H, HID)), b2=np.zeros(H),
    )

    class Perfect:
        kind = "perfect"
        lookback = fx.backbone.lookback
        horizon = fx.backbone.horizon
        channels = fx.backbone.channels

        def __init__(self, values):
            self.values = values

        def predict(self, X, start=None):
            return self.values[start : start + self.horizon].copy()

        def param_digest(self):
            return "perfect"

    perfect = Perfect(fx.dataset.values)
    report = run_sparse_anchor(
        perfect, fx.dataset, fx.config, zero_decoder,
        ratio=0.2, support=8, eval_steps=(9, 14),
    )
    agg = report.aggregate()
    assert agg["mse_base"] == pytest.approx(0.0, abs=1e-20)
    assert agg["mse_corrected"] == pytest.approx(0.0, abs=1e-12)


def test_ablation_variants_cover_shared_checkpoint(fx, trained):
    reports = run_ablation(fx.backbone, fx.dataset, fx.config, trained)
    assert set(reports) == set(ABLATION_VARIANTS)
    full = reports["full"].aggregate()
    # every variant ran over the identical window schedule
    for rep in reports.values():
        assert rep.n_windows == reports["full"].n_windows
    # disabling the global branch must match a plain local-only rollout
    cfg = copy.deepcopy(fx.config)
    cfg.solver.local_only = True
    manual = rollout(fx.backbone, fx.dataset, cfg, trained).aggregate()
    assert reports["local_only"].aggregate()["mse_corrected"] == manual["mse_corrected"]
    # unbounded fusion under clean prefixes is never worse here (clip rarely binds)
    assert reports["no_bound"].aggregate()["mse_corrected"] <= full["mse_corrected"] + 1e-9


def test_ablation_all_flags_off_is_full_config(fx, trained):
    base = rollout(fx.backbone, fx.dataset, fx.config, trained)
    again = run_ablation(fx.backbone, fx.dataset, fx.config, trained, variants=("full",))
    assert again["full"].rows == base.rows


def test_local_only_gain_shrinks_with_horizon():
    # residual with prefix-scale structure: the local branch catches it only
    # near the boundary, so its relative gain dilutes as the horizon grows
    improvements = {}
    for H, n in ((96, 40), (720, 12)):
        fx_wave = biased_oracle_fixture(
            horizon=H, n_test_windows=n, channels=2,
            wave_scale=0.5, bias_scale=0.3, seed=13,
        )
        cfg = copy.deepcopy(fx_wave.config)
        cfg.solver.local_only = True
        improvements[H] = rollout(fx_wave.backbone, fx_wave.dataset, cfg, None).aggregate()[
            "improvement"
        ]
    assert improvements[720] < improvements[96]
    assert improvements[96] > 0


def test_sweep_default_grids_match_reference():
    assert SWEEP_GRIDS["memory_decay"] == (0.0, 0.5, 0.8, 0.92, 0.98)
    assert SWEEP_GRIDS["smoothness_alpha"] == (0.01, 0.05, 0.1, 0.5, 1.0, 5.0)
    assert SWEEP_GRIDS["prefix"] == (1, 2, 3, 5, 7, "fft")


def test_sweep_produces_one_row_per_grid_point(fx, trained):
    reports = run_sweep(
        fx.backbone, fx.dataset, fx.config, trained, "memory_decay", grid=(0.0, 0.5)
    )
    assert list(reports) == [0.0, 0.5]
    assert all(r.aggregate()["mse_corrected"] > 0 for r in reports.values())
    assert [r.manifest["solver"]["memory_decay"] for r in reports.values()] == [0.0, 0.5]
    with pytest.raises(ValueError, match="repeats a point"):
        run_sweep(fx.backbone, fx.dataset, fx.config, trained, "memory_decay", grid=(0.5, 0.5))


def test_sweep_prefix_grid_switches_modes(fx, trained):
    reports = run_sweep(
        fx.backbone, fx.dataset, fx.config, trained, "prefix", grid=(2, "fft")
    )
    assert list(reports) == [2, "fft"]
    assert all(row["prefix_length"] == 2 for row in reports[2].rows)
    assert reports["fft"].manifest["prefix"] == "fft"


def test_sweep_rejects_unknown_parameter(fx, trained):
    with pytest.raises(ValueError):
        run_sweep(fx.backbone, fx.dataset, fx.config, trained, "gamma")


def test_bench_times_the_engine_rollout():
    with mock.patch.object(protocols, "rollout", wraps=protocols.rollout) as spy:
        results = bench_latency(horizons=(8, 16), batch=3, channels=2, prefix=3, repetitions=4)
    assert spy.call_count == 2 * (4 + 1)  # one untimed warm-up per horizon
    for (backbone, dataset, cfg, params), _ in spy.call_args_list:
        assert (cfg.prefix, cfg.max_windows) == (3, 3)
        assert dataset.channels == 2 and params.horizon == cfg.horizon
    assert [r["horizon"] for r in results] == [8, 16]


def test_variant_config_sets_exactly_one_switch(fx):
    for variant in ABLATION_VARIANTS:
        s = variant_config(fx.config, variant).solver
        on = [switch for switch in ABLATION_SWITCHES if getattr(s, switch)]
        assert on == ([] if variant == "full" else [variant])
    for variant in ("bogus", "no_boundary", ""):
        with pytest.raises(ValueError, match="unknown ablation variant"):
            variant_config(fx.config, variant)


def test_sweep_rejects_a_non_integer_prefix(fx, trained):
    with pytest.raises(ValueError, match="prefix must be"):
        run_sweep(fx.backbone, fx.dataset, fx.config, trained, "prefix", grid=("2", "x"))


def test_bench_decoder_macs_fall_as_the_prefix_shrinks():
    macs = [
        bench_latency(horizons=(16,), batch=2, channels=2, prefix=prefix, repetitions=1)[0]
        ["decoder_macs_per_window"]
        for prefix in (8, 4, 1)
    ]
    assert macs[0] > macs[1] > macs[2]


def test_bench_reports_monotone_decoder_size():
    results = bench_latency(horizons=(8, 16, 32), batch=4, channels=2, prefix=3, repetitions=3)
    sizes = [r["decoder_parameters"] for r in results]
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[-1]
    for r in results:
        assert r["ms_per_batch"] > 0
        assert r["ms_per_window"] == pytest.approx(r["ms_per_batch"] / 4)
        assert r["windows_per_second"] > 0
        assert r["decoder_macs_per_window"] > 0
