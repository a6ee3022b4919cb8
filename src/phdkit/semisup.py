"""Confidence-thresholded self-training: labeled source + unlabeled target.

Produces the target-aware second hypothesis of a discrepancy pair by
continuing from a source hypothesis the caller trained. The training set
of source plus pseudo-labeled rows, :func:`with_pseudo`, is shared with
tri-training's labelers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractError
from .models import Hypothesis, TrainConfig, scores, train_erm

PSEUDO_WEIGHT = 0.5
"""Sample weight of a pseudo-labeled row against 1 for a labeled one."""
TAU = 0.95
"""Confidence a target row's prediction must reach to be pseudo-labeled."""


@dataclass(frozen=True)
class SelfTrainResult:
    hypothesis: Hypothesis
    added_per_round: tuple[int, ...]

    @property
    def rounds_run(self) -> int:
        return len(self.added_per_round)


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


def with_pseudo(S: Dataset, X: np.ndarray, y: np.ndarray) -> tuple[Dataset, np.ndarray]:
    """The labeled rows of S plus pseudo-labeled rows (X, y), and their
    sample weights: 1 and PSEUDO_WEIGHT."""
    w = np.concatenate([np.ones(S.n), np.full(len(y), PSEUDO_WEIGHT)])
    return Dataset(np.vstack([S.X, X]), np.concatenate([S.y, y]), S.k), w


def train_self(S: Dataset, T: Dataset, h: Hypothesis, cfg: TrainConfig, rounds: int,
               tau: float = TAU) -> SelfTrainResult:
    """Self-training that continues from ``h``, a hypothesis trained on S.

    Each of at most ``rounds`` rounds pseudo-labels every still-unused row
    of T (labels of T, if any, are ignored) whose confidence under the
    current hypothesis reaches ``tau``, then retrains ``h.arch`` under
    ``cfg`` on source plus all pseudo-labeled rows at PSEUDO_WEIGHT. Stops
    early once no new row qualifies, so an empty or never-confident target
    returns ``h`` itself.
    """
    if not 0.5 < tau < 1.0:
        raise ConfigError(f"confidence threshold must lie in (0.5, 1), got {tau}")
    if rounds < 1:
        raise ConfigError(f"self-training rounds must be >= 1, got {rounds}")
    if not S.labeled:
        raise ContractError("source must be labeled")
    if T.n and T.d != S.d:
        raise ContractError(f"feature dims differ: source {S.d}, target {T.d}")

    consumed = np.zeros(T.n, dtype=bool)
    pseudo_labels = np.zeros(T.n, dtype=np.int64)
    added_per_round: list[int] = []
    for _ in range(rounds):
        remaining = np.flatnonzero(~consumed)
        if remaining.size == 0:
            break
        labels, conf = _confidence(h, T.X[remaining])
        take = conf >= tau
        cand = remaining[take]
        if cand.size == 0:
            break
        pseudo_labels[cand] = labels[take]
        consumed[cand] = True
        added_per_round.append(int(cand.size))
        used = np.flatnonzero(consumed)
        D, w = with_pseudo(S, T.X[used], pseudo_labels[used])
        h = train_erm(D, h.arch, cfg, sample_weight=w)

    return SelfTrainResult(h, tuple(added_per_round))
