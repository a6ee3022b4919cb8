"""Asymmetric tri-training viewed as bound minimization.

Two source-trained hypotheses (diversified by bootstrap resampling and
seeds) pseudo-label the target rows they agree on; a third model trains on
that agreement set. The labelers retrain each round, in lockstep, on their
bootstrap samples plus the agreement set at self-training's pseudo-label
weight.
On the agreement set the empirical pair discrepancy is zero by
construction, so each round also reports the bound (at the default delta)
evaluated with the pair discrepancy on held-out target rows, where it is
honestly estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import DEFAULT_DELTA, BoundReport, bound_thm4, rademacher
from .data import Dataset
from .errors import ConfigError, ContractError, DegenerateInputError
from .models import (
    Arch,
    Hypothesis,
    TrainConfig,
    accuracy,
    empirical_risk,
    predict,
    train_erm,  # noqa: F401  (uncalled; perfbench's layer tracer wraps this name)
    train_erm_many,
    train_erm_traced,
    zero_one,
)
from .numkit import child_rng
from .semisup import with_pseudo

RAD_DRAWS = 8
"""Rademacher draws for the per-round bound's complexity term, estimated once per run."""


@dataclass(frozen=True)
class AgreementSet:
    """Target rows where both hypotheses predict the same label."""

    indices: np.ndarray
    pseudo_labels: np.ndarray
    coverage: float

    @property
    def size(self) -> int:
        return int(self.indices.size)


def build_tpl(h1: Hypothesis, h2: Hypothesis, T: Dataset) -> AgreementSet:
    """Exact agreement filter; empty agreement is coverage 0, not an error."""
    if T.n == 0:
        raise DegenerateInputError("target dataset is empty")
    p1 = predict(h1, T.X)
    p2 = predict(h2, T.X)
    idx = np.flatnonzero(p1 == p2)
    return AgreementSet(idx, p1[idx], float(idx.size) / T.n)


@dataclass(frozen=True)
class TriTrainConfig:
    base: TrainConfig = field(default_factory=TrainConfig)
    holdout_frac: float = 0.25
    emit_bounds: bool = True

    def __post_init__(self):
        if not 0.0 < self.holdout_frac < 1.0:
            raise ConfigError(f"holdout_frac must lie in (0,1), got {self.holdout_frac}")


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    coverage: float
    tpl_size: int
    bound: BoundReport | None
    tpl_risk_trace: tuple[float, ...]
    target_accuracy: float | None
    skipped: bool
    warning: str | None = None


@dataclass(frozen=True)
class TriTrainResult:
    h: Hypothesis
    h1: Hypothesis
    h2: Hypothesis
    rounds: tuple[RoundRecord, ...]

    def csv_rows(self) -> tuple[list[str], list[list[str]]]:
        # the bound's term columns and its total, as in a bound report's CSV
        bound_header = BoundReport.csv_header([r.bound for r in self.rounds if r.bound is not None])
        header = ["round", "coverage", "tpl_size", *bound_header[3:-1], "bound_total", "target_accuracy"]
        rows = []
        for r in self.rounds:
            rows.append([
                str(r.round_index),
                repr(r.coverage),
                str(r.tpl_size),
                *(r.bound.csv_row(bound_header)[3:] if r.bound else [""] * (len(bound_header) - 3)),
                "" if r.target_accuracy is None else repr(r.target_accuracy),
            ])
        return header, rows


def _bootstrap(S: Dataset, rng) -> Dataset:
    return S.take(np.sort(rng.integers(0, S.n, size=S.n)))


def tritrain_round(S: Dataset, T: Dataset, arch: Arch, cfg: TriTrainConfig, rounds: int,
                   seed: int = 0, h1: Hypothesis | None = None, h2: Hypothesis | None = None) -> TriTrainResult:
    """Run the agreement/pseudo-label loop for a number of rounds.

    Each round retrains the two labeling hypotheses on their bootstrap
    source samples plus the current agreement set, rebuilds the agreement
    set once, and trains the target model on it keeping the checkpoint with
    the lowest agreement-set risk against h1. The per-round bound uses the
    pair discrepancy on the held-out part of the target sample, never on
    the agreement set.
    """
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    if not S.labeled:
        raise ContractError("source must be labeled")
    supplied_pair = h1 is not None and h2 is not None

    rng = child_rng(seed, 10)
    boot1 = _bootstrap(S, rng) if not supplied_pair else None
    boot2 = _bootstrap(S, rng) if not supplied_pair else None

    n_hold = max(1, int(round(T.n * cfg.holdout_frac)))
    perm = child_rng(seed, 11).permutation(T.n)
    hold_idx = np.sort(perm[:n_hold])
    pool_idx = np.sort(perm[n_hold:])
    if pool_idx.size == 0:
        raise DegenerateInputError("holdout fraction leaves no target pool")
    T_pool = T.take(pool_idx)
    T_hold = T.take(hold_idx)

    records: list[RoundRecord] = []
    h: Hypothesis | None = None
    tpl = None
    rad_est = None

    for r in range(rounds):
        if not supplied_pair:
            if tpl is None or tpl.size == 0:
                data = [(boot1, None), (boot2, None)]
            else:
                data = [with_pseudo(boot, T_pool.X[tpl.indices], tpl.pseudo_labels) for boot in (boot1, boot2)]
            h1, h2 = train_erm_many([(D, replace(cfg.base, seed=seed * 2 + j), w)
                                     for j, (D, w) in enumerate(data, 1)], arch)

        tpl = build_tpl(h1, h2, T_pool)
        if tpl.size > 0:
            # The agreement set satisfies zero pair discrepancy exactly.
            tpl_phd = empirical_risk(h1, h2, T_pool.take(tpl.indices), zero_one())
            if tpl_phd != 0.0:
                raise ContractError(f"agreement set has nonzero pair discrepancy {tpl_phd}")

        if tpl.size == 0:
            records.append(RoundRecord(r, 0.0, 0, None, (), None, skipped=True,
                                       warning="empty agreement set; round skipped"))
            continue

        D_tpl = Dataset(T_pool.X[tpl.indices], tpl.pseudo_labels, S.k)
        h1_ref = h1
        metric = lambda hyp: empirical_risk(hyp, h1_ref, D_tpl, zero_one())  # noqa: E731
        h, trace = train_erm_traced(D_tpl, arch, replace(cfg.base, seed=seed * 2 + 3 + r), metric=metric)

        bound = None
        if cfg.emit_bounds:
            if rad_est is None:
                rad_est = rademacher(T_hold, arch, draws=RAD_DRAWS, seed=seed,
                                     train_cfg=replace(cfg.base, epochs=min(cfg.base.epochs, 30)))
            bound = bound_thm4(h, h1, h2, T_hold, rad_est, DEFAULT_DELTA,
                               oracle_T=T_hold if T_hold.labeled else None)

        acc = accuracy(h, T_hold) if T_hold.labeled else None
        records.append(RoundRecord(r, tpl.coverage, tpl.size, bound, trace, acc, skipped=False))

    if h is None:
        h = h1  # every round skipped: fall back to a source-trained hypothesis
    return TriTrainResult(h, h1, h2, tuple(records))
