import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothtta import boundary
from smoothtta.boundary import (
    InvalidRatioError,
    OUTLIER_MAGNITUDE,
    build_boundary,
    contaminate_errors,
    contaminate_prefix,
    derive_seeds,
    empty_boundary,
    estimate_dominant_period,
    prefix_hits,
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


def _contaminate_errors_loop(padded_errors, forecasts, lengths, ratio, sigma, rng_seeds):
    """The per-window, per-channel `Generator` loop that `contaminate_errors` replays."""
    n, horizon, channels = forecasts.shape
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (channels,))
    observed = padded_errors + forecasts
    for i, (a, seed) in enumerate(zip(lengths, rng_seeds)):
        n_hit = math.ceil(ratio * a)
        rng = np.random.default_rng(seed)
        for c in range(channels):
            pos = rng.choice(a, size=n_hit, replace=False)
            signs = np.array([-1.0, 1.0])[rng.integers(2, size=n_hit)]
            observed[i, pos, c] = signs * OUTLIER_MAGNITUDE * sigma[c]
    inside = np.arange(horizon) < np.asarray(lengths)[:, None]
    return np.where(inside[..., None], observed - forecasts, 0.0)


def _replay(stream, a, k, channels):
    """Scalar replay, from one row's uint32 draws, of `channels` rounds of
    `choice(a, k, replace=False)` then `integers(2, size=k)`."""
    draws = iter(int(u) for u in stream)

    def bounded(m):  # Lemire's method; bounded(0) draws nothing
        while m:
            x = next(draws) * (m + 1)
            if x % 2**32 >= (2**32 - (m + 1)) % (m + 1):
                return x >> 32
        return 0

    rounds = []
    for _ in range(channels):
        if a <= 10000 or k <= a // 50:  # Floyd's algorithm, then a shuffle of the picks
            picks = []
            for j in range(a - k, a):
                v = bounded(j)
                picks.append(j if v in picks else v)
            swaps = range(k - 1, 0, -1)
        else:  # a tail shuffle of arange(a)
            picks = list(range(a))
            swaps = range(a - 1, max(a - k, 1) - 1, -1)
        for i in swaps:
            j = bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        rounds.append((picks[len(picks) - k:], [bounded(1) for _ in range(k)]))
    return rounds


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 30),
    ratio=st.one_of(st.sampled_from([1.0, 1e-12, 0.5 / 40]), st.floats(0.0, 1.0)),
    channels=st.integers(1, 7),
)
def test_contaminate_errors_equals_the_per_window_generator_loop(data, n, ratio, channels):
    lengths = data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    seeds = data.draw(st.lists(st.integers(0, 2**63), min_size=n, max_size=n))
    rng = np.random.default_rng(n)
    padded, forecasts = rng.standard_normal((2, n, 43, channels))
    sigma = rng.uniform(0.5, 2.0, channels)
    out = contaminate_errors(padded, forecasts, lengths, ratio, sigma, seeds)
    expected = _contaminate_errors_loop(padded, forecasts, lengths, ratio, sigma, seeds)
    assert out.tobytes() == expected.tobytes()
    assert not out[np.asarray(lengths) == 0].any()


def test_tail_shuffle_branch_matches_rng_choice():
    a, k = 10001, 301  # a > 10000 and k > a // 50: numpy shuffles the tail of arange(a)
    positions, bits = prefix_hits([7, 2**63], a, k, 2)
    for row, seed in enumerate([7, 2**63]):
        rng = np.random.default_rng(seed)
        for c in range(2):
            assert positions[row, c].tolist() == rng.choice(a, size=k, replace=False).tolist()
            assert bits[row, c].tolist() == rng.integers(2, size=k).tolist()
    padded = np.random.default_rng(0).standard_normal((1, a, 1))
    out = contaminate_errors(padded, padded, [a], k / a, np.ones(1), [11])
    expected = _contaminate_errors_loop(padded, padded, [a], k / a, np.ones(1), [11])
    assert out.tobytes() == expected.tobytes()


def test_rejections_of_a_huge_population_match_rng_choice():
    # bounded(j) for j + 1 near 3 * 2**30 rejects about one draw in four
    a = 3 * 2**30
    positions, bits = prefix_hits(list(range(20)), a, 6, 3)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for c in range(3):
            assert positions[seed, c].tolist() == rng.choice(a, size=6, replace=False).tolist()
            assert bits[seed, c].tolist() == rng.integers(2, size=6).tolist()


@pytest.mark.parametrize("a, k", [(24, 3), (40, 40), (10001, 301)])
def test_scalar_replay_matches_rng_choice(a, k):
    stream = boundary._uint32_draws([5], 8 * (a + k))[0]
    rng = np.random.default_rng(5)
    for picks, bits in _replay(stream, a, k, 2):
        assert picks == rng.choice(a, size=k, replace=False).tolist()
        assert bits == rng.integers(2, size=k).tolist()


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(1, 40),
    ratio=st.floats(0.01, 1.0),
    channels=st.integers(1, 3),
    row=st.integers(0, 2),
    at=st.integers(0, 60),
    values=st.lists(st.sampled_from([0, 178956971, 2**32 - 1, 2**31]), min_size=1, max_size=3),
)
def test_injected_uint32_draws_match_a_scalar_replay(a, ratio, channels, row, at, values):
    # 0 is rejected by every bound m with m + 1 not a power of two; 178956971 by m + 1 = 24
    k = math.ceil(ratio * a)
    real = boundary._uint32_draws

    def injected(seeds, n):
        u = real(seeds, max(n, at + len(values)))
        u[row, at : at + len(values)] = values
        return u

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boundary, "_uint32_draws", injected)
        positions, bits = prefix_hits([1, 2, 3], a, k, channels)
    stream = injected([1, 2, 3], 8 * channels * (a + k) + 8)
    for r in range(3):
        for c, (picks, signs) in enumerate(_replay(stream[r], a, k, channels)):
            assert positions[r, c].tolist() == picks
            assert bits[r, c].tolist() == signs


def test_an_injected_rejection_moves_the_row_cursor(monkeypatch):
    # u = 178956971 is rejected for m + 1 = 24: Floyd's last step (j = 23) draws again
    real = boundary._uint32_draws
    clean = prefix_hits([9], 24, 3, 1)
    monkeypatch.setattr(boundary, "_uint32_draws",
                        lambda seeds, n: np.insert(real(seeds, n), 2, 178956971, axis=1))
    assert all(np.array_equal(x, y) for x, y in zip(prefix_hits([9], 24, 3, 1), clean))


@settings(max_examples=30, deadline=None)
@given(base=st.integers(0, 2**63), windows=st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
def test_derived_seeds_equal_the_first_generator_draw(base, windows):
    keys = [[base, 15485863, i] for i in windows]
    assert derive_seeds(keys) == [int(np.random.default_rng(k).integers(2**31)) for k in keys]
