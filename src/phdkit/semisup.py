"""Confidence-thresholded self-training: labeled source + unlabeled target.

Produces the target-aware second hypothesis of a discrepancy pair. Target
rows that enter any retraining round are recorded as consumed so that
downstream discrepancy estimation can exclude them and only score unseen
target data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractError
from .models import Arch, Hypothesis, TrainConfig, scores, train_erm


@dataclass(frozen=True)
class SelfTrainConfig:
    """Threshold tau in (0.5, 1); rounds and per-round cap bound the loop."""

    tau: float = 0.95
    max_rounds: int = 5
    round_cap: int | None = None
    pseudo_weight: float = 0.5
    base: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not 0.5 < self.tau < 1.0:
            raise ConfigError(f"confidence threshold must lie in (0.5, 1), got {self.tau}")
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.round_cap is not None and self.round_cap < 1:
            raise ConfigError(f"round_cap must be >= 1, got {self.round_cap}")
        if not 0.0 < self.pseudo_weight <= 1.0:
            raise ConfigError(f"pseudo_weight must lie in (0, 1], got {self.pseudo_weight}")


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


def train_self(S: Dataset, T: Dataset, arch: Arch, cfg: SelfTrainConfig, seed: int = 0) -> SelfTrainResult:
    """Iterative self-training.

    Round 0 is plain ERM on the source (bit-identical to ``train_erm`` with
    the same seed). Each later round pseudo-labels the still-unused target
    rows whose confidence reaches tau (most confident first under the cap),
    then retrains on source plus all pseudo-labeled rows at the configured
    weight. Stops early once no new row qualifies.
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
        label_at = np.zeros(T.n, dtype=np.int64)
        conf_at = np.full(T.n, -1.0)
        label_at[remaining] = labels
        conf_at[remaining] = conf
        cand = remaining[conf >= cfg.tau]
        if cand.size == 0:
            break
        if cfg.round_cap is not None and cand.size > cfg.round_cap:
            # Most confident first; ties resolved by row index for determinism.
            order = np.lexsort((cand, -conf_at[cand]))
            cand = cand[order[: cfg.round_cap]]
        cand = np.sort(cand)
        pseudo_labels[cand] = label_at[cand]
        consumed[cand] = True
        rounds_run += 1
        added_per_round.append(int(cand.size))

        used = np.flatnonzero(consumed)
        X = np.vstack([S.X, T.X[used]])
        y = np.concatenate([S.y, pseudo_labels[used]])
        w = np.concatenate([np.ones(S.n), np.full(used.size, cfg.pseudo_weight)])
        h = train_erm(Dataset(X, y, S.k, S.domain_tag), arch, base, sample_weight=w)

    return SelfTrainResult(
        hypothesis=h,
        consumed=np.flatnonzero(consumed),
        rounds_run=rounds_run,
        added_per_round=tuple(added_per_round),
        target=T.with_consumed(consumed),
    )
