"""Confidence-thresholded self-training: labeled source + unlabeled target.

Produces the target-aware second hypothesis of a discrepancy pair. Target
rows that enter any retraining round are recorded as consumed so that
downstream discrepancy estimation can exclude them and only score unseen
target data. The retrain on source plus pseudo-labeled rows,
:func:`train_with_pseudo`, is shared with tri-training's labelers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractError
from .models import Arch, Hypothesis, TrainConfig, scores, train_erm

PSEUDO_WEIGHT = 0.5
"""Sample weight of a pseudo-labeled row against 1 for a labeled one."""


@dataclass(frozen=True)
class SelfTrainConfig:
    """Threshold tau in (0.5, 1); max_rounds bounds the loop."""

    tau: float = 0.95
    max_rounds: int = 5
    base: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not 0.5 < self.tau < 1.0:
            raise ConfigError(f"confidence threshold must lie in (0.5, 1), got {self.tau}")
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")


@dataclass(frozen=True)
class SelfTrainResult:
    hypothesis: Hypothesis
    consumed: np.ndarray
    rounds_run: int
    added_per_round: tuple[int, ...]
    target: Dataset
    """The input target dataset with the consumed mask attached."""


def _confidence(h: Hypothesis, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted label and its sigmoid/softmax confidence per row."""
    s = scores(h, X)
    if s.shape[1] == 1:
        p1 = 1.0 / (1.0 + np.exp(-np.clip(s[:, 0], -500, 500)))
        labels = (s[:, 0] >= 0).astype(np.int64)
        return labels, np.maximum(p1, 1.0 - p1)
    shifted = s - s.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    return np.argmax(s, axis=1).astype(np.int64), p.max(axis=1)


def train_with_pseudo(S: Dataset, X: np.ndarray, y: np.ndarray, arch: Arch, cfg: TrainConfig) -> Hypothesis:
    """ERM on the labeled rows of S plus pseudo-labeled rows (X, y) at PSEUDO_WEIGHT."""
    w = np.concatenate([np.ones(S.n), np.full(len(y), PSEUDO_WEIGHT)])
    D = Dataset(np.vstack([S.X, X]), np.concatenate([S.y, y]), S.k, S.domain_tag)
    return train_erm(D, arch, cfg, sample_weight=w)


def train_self(S: Dataset, T: Dataset, arch: Arch, cfg: SelfTrainConfig, seed: int = 0) -> SelfTrainResult:
    """Iterative self-training.

    Round 0 is plain ERM on the source (bit-identical to ``train_erm`` with
    the same seed). Each later round pseudo-labels every still-unused target
    row whose confidence reaches tau, then retrains on source plus all
    pseudo-labeled rows at PSEUDO_WEIGHT. Stops early once no new row
    qualifies.
    """
    if not S.labeled:
        raise ContractError("source must be labeled")
    if T.labeled:
        T = T.without_labels()
    if T.n and T.d != S.d:
        raise ContractError(f"feature dims differ: source {S.d}, target {T.d}")

    base = replace(cfg.base, seed=seed)
    h = train_erm(S, arch, base)
    consumed = np.zeros(T.n, dtype=bool)
    pseudo_labels = np.zeros(T.n, dtype=np.int64)
    added_per_round: list[int] = []
    rounds_run = 0

    for _ in range(cfg.max_rounds):
        remaining = np.flatnonzero(~consumed)
        if remaining.size == 0:
            break
        labels, conf = _confidence(h, T.X[remaining])
        take = conf >= cfg.tau
        cand = remaining[take]
        if cand.size == 0:
            break
        pseudo_labels[cand] = labels[take]
        consumed[cand] = True
        rounds_run += 1
        added_per_round.append(int(cand.size))

        used = np.flatnonzero(consumed)
        h = train_with_pseudo(S, T.X[used], pseudo_labels[used], arch, base)

    return SelfTrainResult(
        hypothesis=h,
        consumed=np.flatnonzero(consumed),
        rounds_run=rounds_run,
        added_per_round=tuple(added_per_round),
        target=T.with_consumed(consumed),
    )
