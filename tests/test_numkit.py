import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phdkit.errors import ContractError, DegenerateInputError
from phdkit.numkit import child_rng, covariance, rng_from, sym_inv_sqrt, sym_sqrt


def brute_covariance(X):
    # direct double loop over centered outer products, divisor n-1
    X = np.asarray(X, float)
    n, d = X.shape
    mu = X.mean(axis=0)
    C = np.zeros((d, d))
    for i in range(n):
        diff = X[i] - mu
        for a in range(d):
            for b in range(d):
                C[a, b] += diff[a] * diff[b]
    return C / (n - 1)


def test_covariance_identical_rows_is_zero():
    X = np.tile([1.5, -2.0, 3.0], (2, 1))
    assert np.allclose(covariance(X), 0.0)


def test_covariance_two_scalar_points():
    assert np.allclose(covariance([[0.0], [2.0]]), [[2.0]])


def test_covariance_matches_brute_force():
    X = rng_from(7).standard_normal((5, 3))
    assert np.allclose(covariance(X), brute_covariance(X), atol=1e-12)


def test_covariance_needs_two_rows():
    with pytest.raises(DegenerateInputError):
        covariance([[1.0, 2.0]])


@given(st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=2), min_size=2, max_size=8),
       st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_covariance_row_permutation_invariant(rows, rnd):
    X = np.asarray(rows)
    perm = list(range(len(rows)))
    rnd.shuffle(perm)
    assert np.allclose(covariance(X), covariance(X[perm]), atol=1e-9)


def test_sym_inv_sqrt_identity():
    out = sym_inv_sqrt(np.eye(3), ridge=1e-12)
    assert np.allclose(out, np.eye(3), atol=1e-8)


def test_sym_inv_sqrt_diagonal():
    out = sym_inv_sqrt(np.diag([4.0, 9.0]), ridge=1e-12)
    assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-8)


def test_sym_inv_sqrt_multiplies_back_to_identity():
    rng = rng_from(3)
    M = rng.standard_normal((4, 4))
    A = M @ M.T
    ridge = 1e-9
    B = sym_inv_sqrt(A, ridge)
    assert np.allclose(B @ B @ (A + ridge * np.eye(4)), np.eye(4), atol=1e-8)


def test_sym_sqrt_squares_back():
    rng = rng_from(4)
    M = rng.standard_normal((3, 3))
    A = M @ M.T
    B = sym_sqrt(A, 1e-9)
    assert np.allclose(B @ B, A + 1e-9 * np.eye(3), atol=1e-8)


def test_sym_inv_sqrt_rejects_asymmetry():
    A = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
    with pytest.raises(ContractError):
        sym_inv_sqrt(A, 1e-6)


def test_sym_inv_sqrt_rejects_nonpositive_ridge():
    with pytest.raises(ContractError):
        sym_inv_sqrt(np.eye(2), 0.0)


def test_sym_inv_sqrt_rejects_infinite_ridge():
    with pytest.raises(ContractError, match="ridge"):
        sym_inv_sqrt(np.eye(2), ridge=np.inf)


@given(st.lists(st.floats(0.1, 50), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_sym_inv_sqrt_commutes_with_diagonal_input(diag):
    A = np.diag(diag)
    B = sym_inv_sqrt(A, 1e-8)
    assert np.allclose(A @ B, B @ A, atol=1e-9)


def test_rng_reproducibility_bit_identical():
    a = rng_from(123).standard_normal((16, 4))
    b = rng_from(123).standard_normal((16, 4))
    assert np.array_equal(a, b)


def test_child_streams_differ_by_key():
    a = child_rng(5, 1).standard_normal(8)
    b = child_rng(5, 2).standard_normal(8)
    c = child_rng(5, 1).standard_normal(8)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_root_stream_is_numpy_default_and_negative_seeds_rejected():
    assert np.array_equal(rng_from(7).standard_normal(8), np.random.default_rng(7).standard_normal(8))
    for make in (rng_from, lambda s: child_rng(s, 3)):
        with pytest.raises(ContractError):
            make(-1)
