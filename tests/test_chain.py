import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothtta.chain import (
    InvalidHorizonError,
    InvalidRegularizerError,
    build_transfer_operator,
    clear_operator_cache,
    difference_matrix,
)
from smoothtta.reference import (
    EmptyBoundaryError,
    TemporalChain,
    chain_laplacian,
    dirichlet_energy,
    harmonic_extension,
)


def test_difference_matrix_smallest_chain():
    assert np.array_equal(difference_matrix(2), [[-1.0, 1.0]])


def test_difference_matrix_h3():
    assert np.array_equal(difference_matrix(3), [[-1, 1, 0], [0, -1, 1]])


@pytest.mark.parametrize("H", [2, 5, 17, 96])
def test_difference_matrix_rows_sum_to_zero(H):
    assert np.allclose(difference_matrix(H).sum(axis=1), 0.0)


def test_difference_matrix_rejects_short_horizon():
    with pytest.raises(InvalidHorizonError):
        difference_matrix(1)


def test_transfer_operator_h3_alpha1_matches_cofactor_inverse():
    # independent oracle: invert [[2,-1,0],[-1,3,-1],[0,-1,2]] by the adjugate
    A = np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 2.0]])
    det = 8.0
    adj = np.array([[5.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 5.0]])
    oracle = adj / det
    assert np.allclose(np.eye(3), A @ oracle, atol=1e-15)  # oracle self-check

    P = build_transfer_operator(3, 1.0).matrix
    assert np.allclose(P, oracle, atol=1e-12)


def test_transfer_operator_h2_alpha1_closed_form():
    # 2x2 closed-form inverse of [[2,-1],[-1,2]]: (1/3)[[2,1],[1,2]]
    P = build_transfer_operator(2, 1.0).matrix
    assert np.allclose(P, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-12)


@pytest.mark.parametrize("H", [2, 3, 17, 96])
@pytest.mark.parametrize("alpha", [0.05, 0.15, 1.0])
def test_transfer_operator_inverse_identity(H, alpha):
    op = build_transfer_operator(H, alpha)
    D = difference_matrix(H)
    A = D.T @ D + alpha * np.eye(H)
    assert np.abs(A @ op.matrix - np.eye(H)).max() < 1e-10
    assert np.allclose(op.matrix, op.matrix.T)
    assert np.linalg.eigvalsh(op.matrix).min() > 0


def test_transfer_operator_large_alpha_is_scaled_identity():
    alpha = 1e8
    P = build_transfer_operator(5, alpha).matrix
    assert np.abs(P - np.eye(5) / alpha).max() < 10.0 / alpha**2


def test_transfer_operator_rejects_nonpositive_alpha():
    with pytest.raises(InvalidRegularizerError):
        build_transfer_operator(4, 0.0)
    with pytest.raises(InvalidRegularizerError):
        build_transfer_operator(4, -0.3)


@pytest.mark.parametrize("alpha", [1e-16, np.inf, np.nan])
def test_transfer_operator_rejects_alpha_lost_beside_one_or_not_finite(alpha):
    # 1 + 1e-16 rounds to 1, so L + alpha * I would be the singular chain Laplacian
    with pytest.raises(InvalidRegularizerError):
        build_transfer_operator(4, alpha)


def test_transfer_operator_cache_reuses_instances():
    clear_operator_cache()
    a = build_transfer_operator(7, 0.15)
    b = build_transfer_operator(7, 0.15)
    assert a is b
    c = build_transfer_operator(7, 0.15000001)
    assert c is not a


def test_operator_matrix_is_immutable():
    op = build_transfer_operator(6, 0.5)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 99.0


def test_cache_serializes_concurrent_insertions():
    import threading

    clear_operator_cache()
    results = []
    barrier = threading.Barrier(8)

    def build():
        barrier.wait()
        results.append(build_transfer_operator(33, 0.15))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r is results[0] or np.array_equal(r.matrix, results[0].matrix) for r in results)
    # after the race settles, everyone reads one shared instance
    assert build_transfer_operator(33, 0.15) is build_transfer_operator(33, 0.15)


def test_dirichlet_energy_constant_field_is_zero():
    assert dirichlet_energy(np.ones((8, 3)) * 4.2) == 0.0


def test_dirichlet_energy_hand_example():
    # (1/2) * ((1-0)^2 + (3-1)^2) = 2.5
    assert dirichlet_energy(np.array([0.0, 1.0, 3.0])) == pytest.approx(2.5)


def test_dirichlet_energy_translation_invariant():
    rng = np.random.default_rng(0)
    F = rng.standard_normal((10, 2))
    assert dirichlet_energy(F) == pytest.approx(dirichlet_energy(F + 13.7))


def test_dirichlet_energy_weighted():
    chain = TemporalChain(3, edge_weights=np.array([2.0, 0.5]))
    # (1/2) * (2*1 + 0.5*4) = 2.0
    assert dirichlet_energy(np.array([0.0, 1.0, 3.0]), chain) == pytest.approx(2.0)


def test_dirichlet_energy_shape_mismatch():
    with pytest.raises(ValueError):
        dirichlet_energy(np.zeros((4, 1)), TemporalChain(5))


def test_laplacian_matches_difference_product():
    for H in (2, 3, 9):
        D = difference_matrix(H)
        assert np.allclose(chain_laplacian(TemporalChain(H)), D.T @ D)


def test_harmonic_extension_flat_beyond_prefix():
    out = harmonic_extension(np.array([[0.0], [1.0]]), 5)
    assert np.allclose(out.ravel(), [0.0, 1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_harmonic_extension_single_free_node_copies_neighbor():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((5, 2))
    out = harmonic_extension(vals, 6)
    assert np.allclose(out[5], vals[4], atol=1e-12)


def test_harmonic_extension_zero_boundary_zero_field():
    out = harmonic_extension(np.zeros((3, 4)), 10)
    assert np.allclose(out, 0.0)


def test_harmonic_extension_full_boundary_passthrough():
    vals = np.arange(8.0).reshape(4, 2)
    out = harmonic_extension(vals, 4)
    assert np.array_equal(out, vals)


def test_harmonic_extension_empty_boundary_rejected():
    with pytest.raises(EmptyBoundaryError):
        harmonic_extension(np.zeros((0, 1)), 5)


def test_harmonic_extension_solves_direct_elimination_oracle():
    # H=5, a=2, boundary [0, 1]: eliminate the 3x3 interior system by hand.
    # Interior equations (unit chain): 2x3 - x2 - x4 = 0; 2x4 - x3 - x5 = 0;
    # x5 - x4 = 0 => x3 = x4 = x5 = x2 = 1.
    out = harmonic_extension(np.array([[0.0], [1.0]]), 5)
    assert np.allclose(out[2:].ravel(), 1.0, atol=1e-12)


def _stationarity_residual(field, a):
    H = field.shape[0]
    L = chain_laplacian(TemporalChain(H))
    return np.abs(L[a:, a:] @ field[a:] + L[a:, :a] @ field[:a]).max()


def test_harmonic_extension_stationarity_and_minimality():
    rng = np.random.default_rng(11)
    for H in range(3, 13):
        for a in range(1, H):
            boundary = rng.standard_normal((a, 2))
            field = harmonic_extension(boundary, H)
            assert _stationarity_residual(field, a) < 1e-8
            E0 = dirichlet_energy(field)
            # boundary-fixed random perturbations must not lower the energy
            for _ in range(50):
                perturbed = field.copy()
                perturbed[a:] += 0.5 * rng.standard_normal((H - a, 2))
                assert dirichlet_energy(perturbed) >= E0 - 1e-12


def test_weighted_harmonic_extension_stationarity():
    rng = np.random.default_rng(5)
    H = 9
    chain = TemporalChain(H, edge_weights=rng.uniform(0.2, 3.0, H - 1))
    boundary = rng.standard_normal((3, 1))
    field = harmonic_extension(boundary, H, chain)
    L = chain_laplacian(chain)
    residual = np.abs(L[3:, 3:] @ field[3:] + L[3:, :3] @ field[:3]).max()
    assert residual < 1e-8


@settings(max_examples=30, deadline=None)
@given(H=st.integers(2, 720), alpha=st.floats(1e-3, 10.0))
def test_transfer_operator_matches_closed_form_inverse(H, alpha):
    # (D^T D + alpha I) has the cosine eigenbasis V[j, k] = c_k cos(pi k (j + 1/2) / H)
    # with eigenvalues 2 - 2 cos(pi k / H) + alpha, so its inverse is V diag(1/eig) V^T
    clear_operator_cache()
    try:
        P = build_transfer_operator(H, alpha).matrix
    finally:
        clear_operator_cache()
    k = np.arange(H)
    V = np.cos(np.pi * np.outer(np.arange(H) + 0.5, k) / H) * np.sqrt(2.0 / H)
    V[:, 0] = np.sqrt(1.0 / H)
    expected = (V / (2.0 - 2.0 * np.cos(np.pi * k / H) + alpha)) @ V.T
    assert np.abs(P - expected).max() <= 1e-11 * np.abs(expected).max()
    assert np.array_equal(P, P.T)
    assert not P.flags.writeable
