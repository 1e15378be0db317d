import numpy as np
import pytest

from smoothtta.fusion import (
    FusionSchedule,
    apply_correction,
    fuse,
    global_gate,
    normalized_shares,
    ramp,
    schedule_table,
)

DEFAULTS = FusionSchedule()


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_ramp_half_at_midpoint():
    H = 96
    q = ramp(DEFAULTS, H)
    mid = DEFAULTS.transition_step(H)  # 24 for H=96
    assert q[mid] == pytest.approx(0.5)


def test_ramp_end_value_matches_logistic_oracle():
    # as h/H -> 1 the gate approaches sigmoid(kappa * (1 - tau)) = sigmoid(6)
    assert _sigmoid(6.0) == pytest.approx(0.997527, abs=1e-6)
    q = ramp(DEFAULTS, 2000)
    assert q[-1] == pytest.approx(_sigmoid(6.0), abs=1e-3)


def test_ramp_strictly_increasing():
    for H in (2, 5, 96, 720):
        q = ramp(DEFAULTS, H)
        assert np.all(np.diff(q) > 0)
        assert np.all((q > 0) & (q < 1))


@pytest.mark.parametrize("H,step", [(96, 24), (192, 48), (336, 84), (720, 180)])
def test_transition_steps(H, step):
    assert DEFAULTS.transition_step(H) == step


def test_fuse_local_only_reduction():
    rng = np.random.default_rng(0)
    local = rng.standard_normal((8, 2))
    out = fuse(local, np.zeros_like(local), DEFAULTS)
    assert np.allclose(out, np.clip(local, -2.5, 2.5))


def test_fuse_clip_binds_at_default_bound():
    local = np.full((4, 1), 5.0)
    out = fuse(local, np.zeros_like(local), DEFAULTS)
    assert np.allclose(out, 2.5)


def test_fuse_global_scaled_by_gate_at_last_step():
    H = 96
    local = np.zeros((H, 1))
    glob = np.ones((H, 1))
    out = fuse(local, glob, DEFAULTS)
    assert out[-1, 0] == pytest.approx(0.698, abs=1e-3)  # 0.7 * q at the end


def test_fuse_never_exceeds_bound():
    rng = np.random.default_rng(1)
    for _ in range(200):
        H = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5))
        sched = FusionSchedule(
            global_mix=float(rng.uniform(0, 3)),
            ramp_sharpness=float(rng.uniform(0.1, 20)),
            ramp_midpoint=float(rng.uniform(0, 1)),
            correction_clip=float(rng.uniform(0.1, 10)),
        )
        local = rng.choice([1.0, 1e9, -1e9, 0.3]) * rng.standard_normal((H, d))
        glob = rng.choice([1.0, 1e9]) * rng.standard_normal((H, d))
        assert np.abs(fuse(local, glob, sched)).max() <= sched.correction_clip


def test_fuse_rejects_nan():
    local = np.zeros((4, 1))
    bad = local.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        fuse(local, bad, DEFAULTS)
    with pytest.raises(ValueError, match="NaN"):
        fuse(bad, local, DEFAULTS)


def test_fuse_infinite_clip_is_identity_combination():
    sched = FusionSchedule(correction_clip=np.inf)
    local = np.full((6, 1), 100.0)
    glob = np.full((6, 1), 50.0)
    out = fuse(local, glob, sched)
    gate = global_gate(sched, 6)[:, None]
    assert np.allclose(out, local + gate * glob)


@pytest.mark.parametrize("H", [96, 192, 336, 720])
def test_normalized_shares_match_reference_schedule(H):
    w_local, w_global = normalized_shares(DEFAULTS, H)
    assert w_local[0] * 100 == pytest.approx(92.3, abs=0.1)
    assert w_global[0] * 100 == pytest.approx(7.7, abs=0.1)
    assert w_local[-1] * 100 == pytest.approx(58.9, abs=0.1)
    assert w_global[-1] * 100 == pytest.approx(41.1, abs=0.1)


def test_shares_sum_to_one():
    w_local, w_global = normalized_shares(DEFAULTS, 337)
    assert np.abs(w_local + w_global - 1.0).max() < 1e-12


def test_shares_zero_global_mix():
    sched = FusionSchedule(global_mix=0.0)
    w_local, w_global = normalized_shares(sched, 50)
    assert np.allclose(w_local, 1.0)
    assert np.allclose(w_global, 0.0)


def test_apply_correction_identity_and_roundtrip():
    rng = np.random.default_rng(2)
    forecast = rng.standard_normal((7, 3))
    assert np.array_equal(apply_correction(forecast, np.zeros_like(forecast)), forecast)
    delta = rng.standard_normal((7, 3))
    assert np.allclose(apply_correction(np.zeros_like(delta), delta), delta)
    corrected = apply_correction(forecast, delta)
    assert np.allclose(corrected - forecast, delta)


def test_schedule_table_shape_and_fields():
    rows = schedule_table(DEFAULTS, 96)
    assert len(rows) == 96
    assert rows[0]["step"] == 0
    assert rows[0]["local_share"] == pytest.approx(0.923, abs=1e-3)
    assert rows[-1]["global_share"] == pytest.approx(0.411, abs=1e-3)


def test_schedule_validation():
    with pytest.raises(ValueError):
        FusionSchedule(correction_clip=0.0)
    with pytest.raises(ValueError):
        FusionSchedule(ramp_sharpness=-1.0)
    with pytest.raises(ValueError):
        FusionSchedule(ramp_midpoint=1.5)
    with pytest.raises(ValueError):
        FusionSchedule(global_mix=-0.1)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("which", ["local", "global"])
def test_fuse_rejects_infinite_fields(value, which):
    # an infinite field must not be laundered into +-correction_clip
    clean = np.zeros((4, 2))
    bad = clean.copy()
    bad[2, 1] = value
    fields = (bad, clean) if which == "local" else (clean, bad)
    with pytest.raises(ValueError, match="non-finite"):
        fuse(*fields, DEFAULTS)
    with pytest.raises(ValueError, match="non-finite"):
        fuse(fields[0][None], fields[1][None], DEFAULTS)  # a batch of windows
