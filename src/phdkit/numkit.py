"""Seeded randomness substrate.

Randomness is funneled through seeded PCG64 generators; child streams are
derived with the documented split rule in :func:`child_rng`, so any two runs
with the same top-level seed produce bit-identical streams.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent child stream; with no key, the root stream of ``seed``.

    Split rule: the child is PCG64 seeded with ``SeedSequence(seed,
    spawn_key=key)``. Identical ``(seed, key)`` pairs give identical
    streams; distinct keys give statistically independent ones.
    """
    if seed < 0:
        raise ContractError(f"seeds must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
