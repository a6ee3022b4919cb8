"""The seeded streams of ``numkit``, and the covariance and symmetric matrix
roots that ``adapt`` keeps private for CORAL."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phdkit.adapt import _covariance, _sym_power
from phdkit.errors import ContractError, DegenerateInputError
from phdkit.numkit import child_rng


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
    assert np.allclose(_covariance(X), 0.0)


def test_covariance_two_scalar_points():
    assert np.allclose(_covariance(np.array([[0.0], [2.0]])), [[2.0]])


def test_covariance_matches_brute_force():
    X = child_rng(7).standard_normal((5, 3))
    assert np.allclose(_covariance(X), brute_covariance(X), atol=1e-12)


def test_covariance_needs_two_rows():
    with pytest.raises(DegenerateInputError):
        _covariance(np.array([[1.0, 2.0]]))


@given(st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=2), min_size=2, max_size=8),
       st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_covariance_row_permutation_invariant(rows, rnd):
    X = np.asarray(rows)
    perm = list(range(len(rows)))
    rnd.shuffle(perm)
    assert np.allclose(_covariance(X), _covariance(X[perm]), atol=1e-9)


def test_sym_inv_sqrt_identity():
    out = _sym_power(np.eye(3), 1e-12, -0.5)
    assert np.allclose(out, np.eye(3), atol=1e-8)


def test_sym_inv_sqrt_diagonal():
    out = _sym_power(np.diag([4.0, 9.0]), 1e-12, -0.5)
    assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-8)


def test_sym_inv_sqrt_multiplies_back_to_identity():
    rng = child_rng(3)
    M = rng.standard_normal((4, 4))
    A = M @ M.T
    ridge = 1e-9
    B = _sym_power(A, ridge, -0.5)
    assert np.allclose(B @ B @ (A + ridge * np.eye(4)), np.eye(4), atol=1e-8)


def test_sym_sqrt_squares_back():
    rng = child_rng(4)
    M = rng.standard_normal((3, 3))
    A = M @ M.T
    B = _sym_power(A, 1e-9, 0.5)
    assert np.allclose(B @ B, A + 1e-9 * np.eye(3), atol=1e-8)


def test_sym_inv_sqrt_rejects_nonpositive_ridge():
    with pytest.raises(ContractError):
        _sym_power(np.eye(2), 0.0, -0.5)


def test_sym_inv_sqrt_rejects_infinite_ridge():
    with pytest.raises(ContractError, match="ridge"):
        _sym_power(np.eye(2), np.inf, -0.5)


@given(st.lists(st.floats(0.1, 50), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_sym_inv_sqrt_commutes_with_diagonal_input(diag):
    A = np.diag(diag)
    B = _sym_power(A, 1e-8, -0.5)
    assert np.allclose(A @ B, B @ A, atol=1e-9)


def test_rng_reproducibility_bit_identical():
    a = child_rng(123).standard_normal((16, 4))
    b = child_rng(123).standard_normal((16, 4))
    assert np.array_equal(a, b)


def test_child_streams_differ_by_key():
    a = child_rng(5, 1).standard_normal(8)
    b = child_rng(5, 2).standard_normal(8)
    c = child_rng(5, 1).standard_normal(8)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_root_stream_is_numpy_default_and_negative_seeds_rejected():
    assert np.array_equal(child_rng(7).standard_normal(8), np.random.default_rng(7).standard_normal(8))
    for make in (child_rng, lambda s: child_rng(s, 3)):
        with pytest.raises(ContractError):
            make(-1)
