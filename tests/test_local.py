import numpy as np
import pytest

from smoothtta.chain import build_transfer_operator
from smoothtta.local import (
    InvalidRidgeError,
    extract_fast_error,
    fit_bounded_response,
    solve_local,
)
from smoothtta.reference import bias_field, propagate_fast_error


def _polyfit_oracle(values):
    """Independent drift removal: numpy polyfit of degree 1 on h = 1..a."""
    a = len(values)
    h = np.arange(1, a + 1, dtype=float)
    coeffs = np.polyfit(h, values, 1)
    return values - np.polyval(coeffs, h)


def test_fast_error_constant_prefix_vanishes():
    R = np.full((5, 2), 0.7)
    assert np.abs(extract_fast_error(R)).max() < 1e-12


def test_fast_error_linear_prefix_vanishes():
    h = np.arange(1, 7, dtype=float)
    R = np.column_stack([2.0 + 0.5 * h, -1.0 + 3.0 * h])
    assert np.abs(extract_fast_error(R)).max() < 1e-10


def test_fast_error_alternating_example_matches_polyfit_oracle():
    R = np.array([0.0, 1.0, 0.0, 1.0])[:, None]
    oracle = _polyfit_oracle(R.ravel())
    assert np.allclose(oracle, [-0.2, 0.6, -0.6, 0.2], atol=1e-12)  # oracle value frozen
    assert np.allclose(extract_fast_error(R).ravel(), oracle, atol=1e-12)


def test_fast_error_two_point_prefix_removes_only_mean():
    R = np.array([[0.1], [0.5]])
    out = extract_fast_error(R)
    assert np.allclose(out.ravel(), [-0.2, 0.2], atol=1e-12)


def test_fast_error_single_point_is_identity():
    R = np.array([[0.9, -0.2]])
    assert np.array_equal(extract_fast_error(R), R)


def test_propagate_zero_is_zero():
    op = build_transfer_operator(6, 0.15)
    out = propagate_fast_error(op, np.zeros((3, 2)))
    assert np.allclose(out, 0.0)
    assert out.shape == (6, 2)


def test_propagate_single_point_scales_first_column():
    op = build_transfer_operator(3, 1.0)
    out = propagate_fast_error(op, np.array([[0.8]]))
    assert np.allclose(out.ravel(), [0.5, 0.2, 0.1], atol=1e-12)


def test_propagate_single_point_response_decays_with_distance():
    for H in (8, 32, 64):
        op = build_transfer_operator(H, 0.15)
        col = op.prefix_columns(1).ravel()
        assert np.all(np.diff(col) < 0)
        assert col.min() > 0


def test_propagate_rejects_overlong_prefix():
    op = build_transfer_operator(4, 0.15)
    with pytest.raises(ValueError):
        propagate_fast_error(op, np.zeros((5, 1)))


def test_bias_field_zero_prefix():
    assert np.allclose(bias_field(np.zeros((3, 2)), 6), 0.0)


def test_bias_field_scalar_mean():
    out = bias_field(np.array([[0.1], [0.3]]), 4)
    assert np.allclose(out, 0.2)


def test_bias_field_column_means():
    R = np.array([[1.0, -1.0], [3.0, 1.0]])
    out = bias_field(R, 5)
    assert out.shape == (5, 2)
    assert np.allclose(out, np.tile([2.0, 0.0], (5, 1)))


def test_bias_field_rows_identical():
    rng = np.random.default_rng(0)
    out = bias_field(rng.standard_normal((7, 3)), 12)
    assert np.allclose(out, out[0])


def test_fit_zero_prefix_gives_zero_response():
    harm = np.zeros((6, 2))
    bias = np.zeros((6, 2))
    out = fit_bounded_response(harm, bias, np.zeros((3, 2)))
    assert np.allclose(out.coefficients, 0.0)
    assert np.allclose(out.combined, 0.0)


def test_fit_clip_binds_on_pure_bias_signal():
    # prefix error equals the bias basis, harmonic is zero: the 1-parameter
    # ridge solution beta -> 1 as ridge -> 0, the clip pins it to 0.5 and the
    # response mix leaves 0.55 * 0.5 = 0.275 of the bias field
    H, a = 8, 4
    bias = np.full((H, 1), 0.6)
    harm = np.zeros((H, 1))
    R = np.full((a, 1), 0.6)
    out = fit_bounded_response(harm, bias, R, ridge_coef=1e-9, coef_clip=0.5, response_mix=0.55)
    assert out.coefficients[1, 0] == pytest.approx(0.5)
    assert np.allclose(out.combined, 0.275 * bias, atol=1e-6)


def test_fit_matches_two_parameter_ridge_oracle():
    # independent oracle: solve the augmented least-squares system
    # [B; sqrt(ridge) I] beta = [r; 0] with numpy lstsq
    rng = np.random.default_rng(7)
    H, a = 10, 5
    harm = rng.standard_normal((H, 1))
    bias = bias_field(rng.standard_normal((a, 1)), H)
    R = rng.standard_normal((a, 1))
    ridge = 0.03
    B = np.column_stack([harm[:a, 0], bias[:a, 0]])
    aug = np.vstack([B, np.sqrt(ridge) * np.eye(2)])
    rhs = np.concatenate([R[:, 0], np.zeros(2)])
    beta_oracle, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    out = fit_bounded_response(harm, bias, R, ridge_coef=ridge, coef_clip=10.0, response_mix=1.0)
    assert np.allclose(out.coefficients[:, 0], beta_oracle, atol=1e-10)


def test_fit_coefficients_always_within_clip():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.integers(1, 9)
        H = a + int(rng.integers(1, 12))
        d = int(rng.integers(1, 4))
        harm = 10 * rng.standard_normal((H, d))
        bias = bias_field(rng.standard_normal((a, d)), H)
        R = 100 * rng.standard_normal((a, d))
        out = fit_bounded_response(harm, bias, R, coef_clip=0.5)
        assert np.abs(out.coefficients).max() <= 0.5


def test_fit_linear_in_prefix_when_clip_loose():
    # linearity holds when neither the clip nor the ridge binds: with
    # lambda > 0 the fit is intentionally non-homogeneous, so probe at
    # a vanishing ridge
    rng = np.random.default_rng(9)
    op = build_transfer_operator(12, 0.15)
    R = 0.01 * rng.standard_normal((4, 2))
    one = solve_local(R, op, coef_clip=1e9, ridge_coef=1e-14)
    two = solve_local(2 * R, op, coef_clip=1e9, ridge_coef=1e-14)
    assert np.allclose(two.combined, 2 * one.combined, rtol=1e-7, atol=1e-12)


def test_fit_never_worse_than_zero_coefficients():
    # prefix-restricted objective at the solution <= objective at beta = 0
    rng = np.random.default_rng(10)
    op = build_transfer_operator(16, 0.15)
    for _ in range(25):
        a = int(rng.integers(1, 9))
        R = rng.standard_normal((a, 2))
        out = solve_local(R, op)
        ridge = 0.03
        for c in range(2):
            B = np.column_stack([out.harmonic_field[:a, c], out.bias_field[:a, c]])
            beta = out.coefficients[:, c]
            obj = np.sum((B @ beta - R[:, c]) ** 2) + ridge * np.sum(beta**2)
            assert obj <= np.sum(R[:, c] ** 2) + 1e-9


def test_single_point_prefix_pipeline_is_finite():
    op = build_transfer_operator(8, 0.15)
    out = solve_local(np.array([[3.0, -2.0]]), op)
    assert np.all(np.isfinite(out.combined))
    assert out.combined.shape == (8, 2)


def test_fit_rejects_nonpositive_ridge():
    with pytest.raises(InvalidRidgeError):
        fit_bounded_response(np.zeros((4, 1)), np.zeros((4, 1)), np.zeros((2, 1)), ridge_coef=0.0)


def test_batched_solve_matches_the_step_by_step_reference():
    # solve_local folds drift removal and propagation into one cached matrix
    # and fits a batch of windows at once; the reference runs each step on
    # its own, one window at a time
    rng = np.random.default_rng(12)
    op = build_transfer_operator(20, 0.15)
    for a in (1, 2, 3, 7):
        R = rng.standard_normal((5, a, 3))
        batch = solve_local(R, op)
        for i in range(5):
            harm = propagate_fast_error(op, extract_fast_error(R[i]))
            ref = fit_bounded_response(harm, bias_field(R[i], 20), R[i])
            assert np.allclose(batch.harmonic_field[i], harm, rtol=1e-12, atol=1e-14)
            assert np.allclose(batch.coefficients[i], ref.coefficients, rtol=1e-12, atol=1e-14)
            assert np.allclose(batch.combined[i], ref.combined, rtol=1e-12, atol=1e-14)
