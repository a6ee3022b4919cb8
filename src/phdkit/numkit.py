"""Dense linear-algebra and randomness substrate.

All data in the package lives in 64-bit row-major numpy arrays. Randomness
is funneled through seeded PCG64 generators; child streams are derived with
the documented split rule in :func:`child_rng`, so any two runs with the
same top-level seed produce bit-identical streams.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DegenerateInputError

SYMMETRY_TOL = 1e-10
DEFAULT_RIDGE = 1e-6


def rng_from(seed: int) -> np.random.Generator:
    """Root generator for a run: PCG64 seeded directly (the child with no key)."""
    return child_rng(seed)


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent child stream.

    Split rule: the child is PCG64 seeded with ``SeedSequence(seed,
    spawn_key=key)``. Identical ``(seed, key)`` pairs give identical
    streams; distinct keys give statistically independent ones.
    """
    if seed < 0:
        raise ContractError(f"seeds must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def as_matrix(X, name: str = "X") -> np.ndarray:
    """Validate and return a finite float64 2-D array."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ContractError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise ContractError(f"{name} contains non-finite entries")
    return A


def covariance(X) -> np.ndarray:
    """Unbiased sample covariance (rows are observations, divisor n-1)."""
    A = as_matrix(X)
    n = A.shape[0]
    if n < 2:
        raise DegenerateInputError(f"covariance needs at least 2 rows, got {n}")
    C = np.cov(A, rowvar=False, ddof=1)
    return np.atleast_2d(C)


def _check_symmetric(A: np.ndarray, name: str) -> np.ndarray:
    A = as_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise ContractError(f"{name} must be square, got {A.shape}")
    if A.size and np.max(np.abs(A - A.T)) > SYMMETRY_TOL:
        raise ContractError(f"{name} is not symmetric beyond tolerance {SYMMETRY_TOL}")
    return A


def _sym_power(A: np.ndarray, ridge: float, power: float, name: str) -> np.ndarray:
    A = _check_symmetric(A, name)
    if not 0 < ridge < np.inf:
        raise ContractError(f"ridge must be finite and > 0, got {ridge}")
    w, V = np.linalg.eigh(A + ridge * np.eye(A.shape[0]))
    # PSD input plus a positive ridge keeps eigenvalues positive; clip guards
    # against tiny negative round-off from eigh.
    w = np.clip(w, ridge * 1e-3, None)
    B = (V * w**power) @ V.T
    return (B + B.T) / 2.0


def sym_inv_sqrt(A, ridge: float = DEFAULT_RIDGE) -> np.ndarray:
    """(A + ridge*I)^(-1/2) of a symmetric PSD matrix via eigendecomposition."""
    return _sym_power(np.asarray(A, dtype=np.float64), ridge, -0.5, "A")


def sym_sqrt(A, ridge: float = DEFAULT_RIDGE) -> np.ndarray:
    """(A + ridge*I)^(1/2) companion of :func:`sym_inv_sqrt`."""
    return _sym_power(np.asarray(A, dtype=np.float64), ridge, 0.5, "A")
