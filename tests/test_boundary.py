import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothtta.boundary import (
    InvalidRatioError,
    OUTLIER_MAGNITUDE,
    build_boundary,
    contaminate_errors,
    contaminate_prefix,
    empty_boundary,
    estimate_dominant_period,
    select_prefix_length,
)


def test_period_of_pure_sinusoid():
    L = 96
    X = np.sin(2 * np.pi * np.arange(L) / 24)[:, None]
    assert estimate_dominant_period(X) == 24


def test_period_constant_input_falls_back_to_min_support():
    X = np.full((64, 3), 2.5)
    assert estimate_dominant_period(X, fallback=2) == 2


def test_period_tie_breaks_toward_longer_period():
    # two channels with equal-amplitude periods 24 and 12; after averaging the
    # spectra both bins tie, and the lower frequency (period 24) must win
    L = 96
    t = np.arange(L)
    X = np.column_stack([np.sin(2 * np.pi * t / 24), np.sin(2 * np.pi * t / 12)])
    assert estimate_dominant_period(X) == 24


def test_period_is_shift_invariant():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((96, 2))
    assert estimate_dominant_period(X) == estimate_dominant_period(X + 100.0)


def test_period_clamped_into_valid_range():
    L = 96
    X = np.sin(2 * np.pi * np.arange(L) * 40 / L)[:, None]  # bin 40 -> period 2.4
    assert 2 <= estimate_dominant_period(X) <= L


def test_period_needs_minimum_lookback():
    with pytest.raises(ValueError):
        estimate_dominant_period(np.zeros((3, 1)))


def test_select_prefix_period_binds():
    assert select_prefix_length(24, 96, 96, 2) == 24


def test_select_prefix_availability_binds():
    assert select_prefix_length(24, 3, 96, 2) == 3


def test_select_prefix_min_support_floor():
    assert select_prefix_length(1, 10, 96, 2) == 2


def test_select_prefix_zero_shot_window():
    assert select_prefix_length(24, 0, 96, 2) == 0


def test_select_prefix_horizon_caps():
    assert select_prefix_length(500, 500, 96, 2) == 96


def test_build_boundary_perfect_forecast_gives_zero_error():
    forecast = np.arange(12.0).reshape(6, 2)
    b = build_boundary(forecast[:3], forecast, 3)
    assert np.allclose(b.prefix_error, 0.0)
    assert np.allclose(b.padded_error, 0.0)


def test_build_boundary_full_revelation():
    rng = np.random.default_rng(1)
    forecast = rng.standard_normal((5, 2))
    target = rng.standard_normal((5, 2))
    b = build_boundary(target, forecast, 5)
    assert np.array_equal(b.mask, np.ones(5))
    assert np.allclose(b.padded_error, target - forecast)


def test_build_boundary_direct_subtraction():
    forecast = np.array([[0.8], [1.3], [0.0], [0.0]])
    observed = np.array([[1.0], [1.5]])
    b = build_boundary(observed, forecast, 2)
    assert np.allclose(b.prefix_error.ravel(), [0.2, 0.2])
    assert np.allclose(b.padded_error.ravel(), [0.2, 0.2, 0.0, 0.0])
    assert np.array_equal(b.mask, [1, 1, 0, 0])


def test_boundary_invariants_mask_and_padding():
    rng = np.random.default_rng(2)
    forecast = rng.standard_normal((10, 3))
    observed = rng.standard_normal((4, 3))
    b = build_boundary(observed, forecast, 4)
    assert b.mask.sum() == 4
    assert np.allclose(b.padded_error * (1 - b.mask)[:, None], 0.0)


def test_empty_boundary_sentinel():
    b = empty_boundary(8, 2)
    assert b.is_empty()
    assert b.mask.sum() == 0


def test_contaminate_ratio_zero_is_identity():
    rng = np.random.default_rng(3)
    forecast = rng.standard_normal((8, 2))
    b = build_boundary(rng.standard_normal((4, 2)), forecast, 4)
    out = contaminate_prefix(b, forecast, 0.0, np.ones(2), rng_seed=5)
    assert out is b


def test_contaminate_full_ratio_replaces_every_position():
    rng = np.random.default_rng(4)
    forecast = np.zeros((8, 1))
    observed = rng.standard_normal((4, 1))
    b = build_boundary(observed, forecast, 4)
    out = contaminate_prefix(b, forecast, 1.0, np.array([2.0]), rng_seed=5)
    # every observation replaced by +-6*sigma = +-12
    assert np.allclose(np.abs(out.prefix_error), 12.0)


def test_contaminate_is_seed_reproducible():
    rng = np.random.default_rng(6)
    forecast = rng.standard_normal((10, 3))
    b = build_boundary(rng.standard_normal((6, 3)), forecast, 6)
    one = contaminate_prefix(b, forecast, 0.5, np.ones(3), rng_seed=42)
    two = contaminate_prefix(b, forecast, 0.5, np.ones(3), rng_seed=42)
    assert np.array_equal(one.prefix_error, two.prefix_error)
    other = contaminate_prefix(b, forecast, 0.5, np.ones(3), rng_seed=43)
    assert not np.array_equal(one.prefix_error, other.prefix_error)


@pytest.mark.parametrize("ratio", [0.01, 0.05, 0.10, 0.20])
def test_contaminate_changes_exactly_ceil_ratio_a_positions(ratio):
    a = 24
    forecast = np.zeros((96, 2))
    observed = np.full((a, 2), 0.001)  # far from +-6 sigma, so changes are visible
    b = build_boundary(observed, forecast, a)
    out = contaminate_prefix(b, forecast, ratio, np.ones(2), rng_seed=9)
    changed = (out.prefix_error != b.prefix_error).sum(axis=0)
    assert np.all(changed == int(np.ceil(ratio * a)))


def test_contaminate_rejects_bad_ratio():
    b = empty_boundary(4, 1)
    with pytest.raises(InvalidRatioError):
        contaminate_prefix(b, np.zeros((4, 1)), 1.5, np.ones(1), rng_seed=0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ratio=st.floats(0.0, 1.0),
    length=st.integers(1, 40),
    channels=st.integers(1, 3),
)
def test_contamination_draws_the_positions_and_signs_of_rng_choice(seed, ratio, length, channels):
    # the oracle draws the signs with rng.choice([-1.0, 1.0]), interleaved with the positions
    horizon = length + 3
    expected = np.zeros((horizon, channels))
    rng = np.random.default_rng(seed)
    for c in range(channels):
        pos = rng.choice(length, size=math.ceil(ratio * length), replace=False)
        expected[pos, c] = rng.choice([-1.0, 1.0], size=pos.size) * OUTLIER_MAGNITUDE
    zeros = np.zeros((1, horizon, channels))
    out = contaminate_errors(zeros, zeros, [length], ratio, np.ones(channels), [seed])[0]
    assert np.array_equal(out, expected)
