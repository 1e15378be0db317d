"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Thresholds and runtime budgets are pinned here; fixture-based
thresholds were verified by brute-force runs before being frozen.
"""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from smoothtta.backbones import fit_linear_backbone
from smoothtta.boundary import build_boundary
from smoothtta.chain import build_transfer_operator, difference_matrix
from smoothtta.config import RolloutConfig
from smoothtta.data import load_csv, split_dataset
from smoothtta.decoder import DecoderParams, _loss_and_grads, gradient_check, init_params
from smoothtta.fusion import FusionSchedule, fuse, normalized_shares
from smoothtta.memory import cold_start, update_memory
from smoothtta.protocols import run_contamination_grid, run_sparse_boundary, variant_config
from smoothtta.reference import TemporalChain, chain_laplacian, harmonic_extension
from smoothtta.rollout import aggregate_rows, rollout, train_decoder_for
from smoothtta.synth import biased_oracle_fixture


def _criterion(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    line = f"[{'PASS' if ok and elapsed < budget else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)"
    print(line)
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget:.0f}s"


def test_harmonic_extension_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_residual = 0.0
    worst_gap = 0.0  # most negative energy increase over perturbations
    for H in range(3, 13):
        L = chain_laplacian(TemporalChain(H))
        for a in range(1, H):
            boundary = rng.standard_normal((a, 100))  # 100 boundaries as columns
            field = harmonic_extension(boundary, H)
            residual = np.abs(L[a:, a:] @ field[a:] + L[a:, :a] @ field[:a]).max()
            worst_residual = max(worst_residual, residual)

            diffs = np.diff(field, axis=0)
            base_energy = 0.5 * (diffs**2).sum(axis=0)          # per boundary column
            noise = rng.standard_normal((1000, H - a, 1))        # boundary-fixed
            perturbed = field[None, :, :].repeat(1000, axis=0)
            perturbed[:, a:, :] += noise
            pdiffs = np.diff(perturbed, axis=1)
            energies = 0.5 * (pdiffs**2).sum(axis=1)             # (1000, 100)
            worst_gap = min(worst_gap, float((energies - base_energy).min()))
    elapsed = time.perf_counter() - t0
    ok = worst_residual < 1e-8 and worst_gap >= -1e-12
    _criterion(
        "harmonic-extension oracle equivalence",
        ok,
        f"max stationarity residual {worst_residual:.2e}, min energy gap {worst_gap:.2e}",
        elapsed,
        10.0,
    )


def test_transfer_operator_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for H in (2, 3, 96, 192, 336, 720):
        D = difference_matrix(H)
        for alpha in (0.01, 0.15, 5.0):
            P = build_transfer_operator(H, alpha).matrix
            A = D.T @ D + alpha * np.eye(H)
            worst = max(worst, float(np.abs(A @ P - np.eye(H)).max()))
    hand = np.array([[5.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 5.0]]) / 8.0
    exact = float(np.abs(build_transfer_operator(3, 1.0).matrix - hand).max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and exact < 1e-12
    _criterion(
        "transfer-operator correctness",
        ok,
        f"max identity residual {worst:.2e}, hand-derived H=3 gap {exact:.2e}",
        elapsed,
        5.0,
    )


def test_safety_bound_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    total = 0
    violations = 0
    while total < 100_000:
        H = int(rng.integers(2, 24))
        pairs = 8
        sched = FusionSchedule(
            global_mix=float(rng.uniform(0, 4)),
            ramp_sharpness=float(rng.uniform(0.5, 24)),
            ramp_midpoint=float(rng.uniform(0, 1)),
            correction_clip=float(rng.uniform(0.05, 8)),
        )
        magnitude = rng.choice([1.0, 1e3, 1e9])
        local = magnitude * rng.standard_normal((H, pairs))
        glob = rng.choice([1.0, 1e9]) * rng.standard_normal((H, pairs))
        out = fuse(local, glob, sched)
        violations += int(np.abs(out).max() > sched.correction_clip)
        total += pairs
    # NaN precheck: rejected, never laundered through the clip
    nan_rejected = False
    bad = np.zeros((4, 1))
    bad[2, 0] = np.nan
    try:
        fuse(bad, np.zeros((4, 1)), FusionSchedule())
    except ValueError:
        nan_rejected = True
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and nan_rejected
    _criterion(
        "safety bound under fuzzing",
        ok,
        f"{total} triples, {violations} bound violations, NaN rejected: {nan_rejected}",
        elapsed,
        10.0,
    )


def test_fusion_schedule_reproduction():
    t0 = time.perf_counter()
    sched = FusionSchedule(global_mix=0.7, ramp_sharpness=8.0, ramp_midpoint=0.25)
    worst_pp = 0.0
    transitions = {}
    for H in (96, 192, 336, 720):
        w_local, w_global = normalized_shares(sched, H)
        worst_pp = max(
            worst_pp,
            abs(w_local[0] * 100 - 92.3),
            abs(w_global[0] * 100 - 7.7),
            abs(w_local[-1] * 100 - 58.9),
            abs(w_global[-1] * 100 - 41.1),
        )
        transitions[H] = sched.transition_step(H)
    ok = worst_pp <= 0.1 and transitions == {96: 24, 192: 48, 336: 84, 720: 180}
    elapsed = time.perf_counter() - t0
    _criterion(
        "fusion-schedule reproduction",
        ok,
        f"max share deviation {worst_pp:.3f}pp, transitions {transitions}",
        elapsed,
        1.0,
    )


def test_decoder_gradient_check():
    t0 = time.perf_counter()
    H, K = 96, 8
    worst = 0.0
    rng = np.random.default_rng(7)
    gate = 0.7 / (1 + np.exp(-8 * (np.arange(H) / H - 0.25)))
    for i in range(20):
        params = init_params(horizon=H, context_size=K, hidden=256, seed=i)
        feats = rng.standard_normal(params.input_width)
        target = rng.standard_normal(H)
        local = rng.standard_normal(H)
        worst = max(worst, gradient_check(params, feats, target, local, gate, seed=i))

    # a corrupted gradient must fail the same check
    params = init_params(horizon=H, context_size=K, hidden=256, seed=123)
    feats = rng.standard_normal(params.input_width)
    target = rng.standard_normal(H)
    local = rng.standard_normal(H)
    f2, t2, l2 = np.atleast_2d(feats), np.atleast_2d(target), np.atleast_2d(local)
    _, analytic = _loss_and_grads(params, f2, t2, l2, gate)
    corrupted_err = 0.0
    blocks = {n: np.array(getattr(params, n)) for n in ("W1", "b1", "W2", "b2")}
    coords = rng.choice(params.W2.size, size=100, replace=False)
    step = 1e-4
    for idx in coords:
        trial = {k: v.copy() for k, v in blocks.items()}
        trial["W2"].flat[idx] += step
        up = _loss_and_grads(
            DecoderParams(horizon=H, context_size=K, hidden=256, output_scale=1.5, **trial),
            f2, t2, l2, gate,
        )[0]
        trial["W2"].flat[idx] -= 2 * step
        down = _loss_and_grads(
            DecoderParams(horizon=H, context_size=K, hidden=256, output_scale=1.5, **trial),
            f2, t2, l2, gate,
        )[0]
        numeric = (up - down) / (2 * step)
        exact = analytic["W2"].flat[idx] + 1.0  # deliberate unit corruption
        corrupted_err = max(
            corrupted_err, abs(exact - numeric) / max(abs(exact) + abs(numeric), 1e-6)
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and corrupted_err > 1e-2
    _criterion(
        "decoder gradient check",
        ok,
        f"max relative error {worst:.2e} over 20 samples; corrupted check errs {corrupted_err:.2e}",
        elapsed,
        30.0,
    )


def _toy_csv(path: Path, T=700, d=2, seed=5):
    rng = np.random.default_rng(seed)
    t = np.arange(T)[:, None]
    values = (
        np.sin(2 * np.pi * t / 8 + rng.uniform(0, 6, d))
        + 0.2 * rng.standard_normal((T, d))
    )
    path.write_text("\n".join(",".join(f"{x:.6f}" for x in row) for row in values) + "\n")


def test_memory_properties(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)

    # rho = 0 reproduces batch means exactly
    state = cold_start(4, 2, decay=0.0)
    batch = [rng.standard_normal((4, 2)) for _ in range(3)]
    state = update_memory(state, batch)
    rho0_exact = np.array_equal(state.template, np.mean(batch, axis=0))

    # rho = 1 freezes the template
    state = cold_start(4, 2, decay=1.0)
    before = state.template.copy()
    state = update_memory(state, [rng.standard_normal((4, 2))])
    rho1_frozen = np.array_equal(state.template, before)

    # EMA max-norm contraction over 1000 random update sequences
    contraction = True
    for _ in range(1000):
        bound = float(rng.uniform(0.1, 5.0))
        st = cold_start(3, 2, decay=float(rng.uniform(0, 1)))
        for _ in range(int(rng.integers(1, 12))):
            st = update_memory(st, [rng.uniform(-bound, bound, (3, 2))])
            if np.abs(st.template).max() > bound + 1e-12:
                contraction = False

    # mis-scheduled update is detected and the CLI exits with code 4
    csv = tmp_path / "leak.csv"
    _toy_csv(csv)
    res = subprocess.run(
        [sys.executable, "-m", "smoothtta", "rollout", "--data", str(csv),
         "--lookback", "16", "--horizon", "8", "--stride", "2",
         "--memory-schedule", "immediate", "--local-only",
         "--out-dir", str(tmp_path / "runs")],
        capture_output=True, text=True,
    )
    guard_ok = res.returncode == 4 and "contract violation" in res.stderr

    elapsed = time.perf_counter() - t0
    ok = rho0_exact and rho1_frozen and contraction and guard_ok
    _criterion(
        "memory properties",
        ok,
        f"rho0 exact: {rho0_exact}, rho1 frozen: {rho1_frozen}, "
        f"contraction: {contraction}, leakage guard exit 4: {guard_ok}",
        elapsed,
        10.0,
    )


def test_constant_bias_fixture_end_to_end():
    t0 = time.perf_counter()
    fx = biased_oracle_fixture(
        horizon=96, n_test_windows=200, channels=3, bias_scale=0.3, noise=0.15, seed=7
    )
    params, _ = train_decoder_for(fx.backbone, fx.dataset, fx.config)

    full = aggregate_rows(
        rollout(fx.backbone, fx.dataset, fx.config, params).rows, skip=10
    )
    cfg_local = variant_config(fx.config, "local_only")
    local = aggregate_rows(
        rollout(fx.backbone, fx.dataset, cfg_local, params).rows, skip=10
    )
    full_ratio = full["mse_corrected"] / full["mse_base"]
    local_ratio = local["mse_corrected"] / local["mse_base"]
    elapsed = time.perf_counter() - t0
    ok = full_ratio <= 0.5 and local_ratio <= 0.95
    _criterion(
        "constant-bias fixture end-to-end",
        ok,
        f"full MSE ratio {full_ratio:.3f} (<= 0.5), local-only {local_ratio:.3f} (<= 0.95)",
        elapsed,
        120.0,
    )


def test_contamination_ordering():
    t0 = time.perf_counter()
    # same oracle-fixture family, parametrized so the raw-unit safety bound is
    # tight relative to the 6-sigma outliers and the irreducible noise floor
    # carries the relative degradation (pre-verified by brute force)
    fx = biased_oracle_fixture(
        horizon=96, n_test_windows=200, channels=3,
        bias_scale=0.3, noise=0.5, scale=3.0, seed=7,
    )
    params, _ = train_decoder_for(fx.backbone, fx.dataset, fx.config)
    ratios = (0.0, 0.01, 0.05, 0.10, 0.20)
    full = run_contamination_grid(fx.backbone, fx.dataset, fx.config, params, ratios)
    nb = run_contamination_grid(
        fx.backbone, fx.dataset, variant_config(fx.config, "no_bound"), params, ratios
    )
    elapsed = time.perf_counter() - t0
    ok = (
        full.degradation <= nb.degradation
        and full.degradation <= 1.0
        and nb.degradation <= 1.0
        and full.zero_shot_identical
        and nb.zero_shot_identical
    )
    _criterion(
        "contamination ordering",
        ok,
        f"Deg full {full.degradation:.1%} <= Deg w/o-bound {nb.degradation:.1%}, both <= 100%, "
        f"zero-shot rows identical: {full.zero_shot_identical}",
        elapsed,
        300.0,
    )


def test_sparse_boundary_far_field_preservation():
    t0 = time.perf_counter()
    fx = biased_oracle_fixture(
        horizon=96, n_test_windows=200, channels=3, bias_scale=0.3, noise=0.15, seed=7
    )
    params, _ = train_decoder_for(fx.backbone, fx.dataset, fx.config)
    report = run_sparse_boundary(
        fx.backbone, fx.dataset, fx.config, params,
        k=3, near_steps=(4, 27), far_steps=(73, 96),
    )
    e = report.extra
    near_ok = e["near_mse_corrected"] <= e["near_mse_base"]
    far_deg = (e["far_mse_corrected"] - e["far_mse_base"]) / e["far_mse_base"]
    elapsed = time.perf_counter() - t0
    ok = near_ok and far_deg <= 0.10
    _criterion(
        "sparse-boundary far-field preservation",
        ok,
        f"near MSE {e['near_mse_corrected']:.4f} <= zero-shot {e['near_mse_base']:.4f}, "
        f"far degradation {far_deg:+.1%} (<= +10%)",
        elapsed,
        120.0,
    )


def test_real_data_direction_check():
    t0 = time.perf_counter()
    candidates = []
    env_dir = os.environ.get("SMOOTHTTA_DATA")
    if env_dir:
        candidates.append(Path(env_dir) / "ETTh1.csv")
    candidates += [Path("data/ETTh1.csv"), Path("ETTh1.csv")]
    path = next((p for p in candidates if p.exists()), None)
    if path is None:
        print(
            "[SKIP] real-data direction check: no ETTh1-format CSV found "
            "(set SMOOTHTTA_DATA or place data/ETTh1.csv)"
        )
        pytest.skip("ETT-style dataset not available in this environment")
    ds = load_csv(path)
    split_dataset(ds, "ett", min_span=192)
    ds = ds.standardized()
    config = RolloutConfig(lookback=96, horizon=96, seed=0)
    backbone = fit_linear_backbone(ds.part("train"), 96, 96, ridge_strength=1e-3)
    params, _ = train_decoder_for(backbone, ds, config)
    agg = rollout(backbone, ds, config, params).aggregate()
    elapsed = time.perf_counter() - t0
    ok = agg["improvement"] >= 0.05
    _criterion(
        "real-data direction check",
        ok,
        f"relative MSE improvement {agg['improvement']:+.1%} (>= +5%)",
        elapsed,
        600.0,
    )


def test_exact_value_nonreproducibility_acknowledged():
    t0 = time.perf_counter()
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().lower()
    acknowledged = "not reproduced" in text and "deep" in text
    elapsed = time.perf_counter() - t0
    _criterion(
        "exact-value non-reproducibility acknowledged",
        acknowledged,
        "README states that absolute benchmark scores of deep backbones are out of "
        "scope and that property/ordering suites substitute for them",
        elapsed,
        5.0,
    )


def test_determinism_byte_identical_csvs(tmp_path):
    t0 = time.perf_counter()
    csv = tmp_path / "toy.csv"
    _toy_csv(csv, T=900)
    base = [sys.executable, "-m", "smoothtta"]
    common = ["--data", str(csv), "--lookback", "16", "--horizon", "8", "--seed", "3"]

    outputs = {}
    for label, args, produced in [
        ("rollout", ["rollout", *common], "rollout/metrics.csv"),
        ("dump-schedule", ["dump-schedule", "--horizon", "96"], None),
        ("sparse-anchor", ["sparse-anchor", *common, "--ratios", "0.2",
                           "--support", "4", "--eval", "5:8"], "sparse-anchor/summary.csv"),
    ]:
        digests = []
        for run in ("x", "y"):
            out_dir = tmp_path / f"{label}_{run}"
            if label == "dump-schedule":
                target = out_dir / "schedule.csv"
                out_dir.mkdir()
                cmd = base + args + ["--out", str(target)]
            else:
                target = out_dir / produced
                cmd = base + args + ["--out-dir", str(out_dir)]
            res = subprocess.run(cmd, capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            digests.append(target.read_bytes())
        outputs[label] = digests[0] == digests[1]
    elapsed = time.perf_counter() - t0
    ok = all(outputs.values())
    _criterion(
        "determinism: byte-identical metric CSVs",
        ok,
        ", ".join(f"{k}: {'identical' if v else 'DIFFERS'}" for k, v in outputs.items()),
        elapsed,
        300.0,
    )
