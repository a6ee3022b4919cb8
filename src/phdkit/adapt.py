"""Correlation alignment and the multi-source selection harness.

CORAL whitens source features with the source covariance, recolors with the
target covariance, and re-centers on the target mean. Source selection
ranks candidate sources by a discrepancy measure (pair discrepancy with a
self-trained second hypothesis, or exact Wasserstein-1 on raw features),
then trains one classifier on the CORAL-adapted top-K pool. The pair
discrepancy trains on features z-scored by each dataset's own moments;
the transport distance works on the raw input space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, SplitSpec, split
from .discrepancy import phd, w1_exact
from .errors import ConfigError, ContractError
from .models import Arch, TrainConfig, accuracy, train_erm, train_erm_many
from .numkit import child_rng, covariance, sym_inv_sqrt, sym_sqrt
from .semisup import train_self

W1_SUBSAMPLE = 256
EVAL_FRAC = 0.3
"""Share of the target sample held out from self-training to score the pair."""


def coral(S: Dataset, T: Dataset, ridge: float = 1e-6) -> Dataset:
    """Align source features to target first and second moments.

    X <- (X - mu_s) C_s^(-1/2) C_t^(1/2) + mu_t. Labels pass through.
    """
    if S.n == 0 or T.n == 0:
        raise ContractError("both datasets must be non-empty")
    if S.d != T.d:
        raise ContractError(f"feature dims differ: {S.d} vs {T.d}")
    mu_s = S.X.mean(axis=0)
    mu_t = T.X.mean(axis=0)
    A = sym_inv_sqrt(covariance(S.X), ridge) @ sym_sqrt(covariance(T.X), ridge)
    X = (S.X - mu_s) @ A + mu_t
    return Dataset(X, S.y, S.k, S.domain_tag + "+coral")


def rank_ascending(values) -> tuple[int, ...]:
    """Indices sorted by value ascending; ties broken by source index."""
    values = np.asarray(values, dtype=np.float64)
    return tuple(int(i) for i in np.lexsort((np.arange(values.shape[0]), values)))


@dataclass(frozen=True)
class SelectConfig:
    """Training settings of a selection run.

    ``base`` trains every hypothesis, each under its own per-source seed;
    ``ssl_rounds`` caps the self-training rounds of the pair measure.
    """

    arch: Arch
    base: TrainConfig = field(default_factory=TrainConfig)
    ssl_rounds: int = 5
    w1_subsample: int = W1_SUBSAMPLE

    def __post_init__(self):
        if self.ssl_rounds < 1:
            raise ConfigError(f"self-training rounds must be >= 1, got {self.ssl_rounds}")


def _zscore(D: Dataset, ref: Dataset | None = None) -> Dataset:
    """Shift/scale features by (ref or D)'s per-feature moments."""
    R = ref if ref is not None else D
    mu = R.X.mean(axis=0)
    sd = R.X.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return Dataset((D.X - mu) / sd, D.y, D.k, D.domain_tag)


@dataclass(frozen=True)
class SelectionOutcome:
    """Ranked sources with the chosen top-K and diagnostic quality numbers."""

    measure: str
    values: tuple[float, ...]
    ranking: tuple[int, ...]
    chosen: tuple[int, ...]
    score: int | None
    accuracy: float | None
    sigma: float | None
    seed: int
    k_select: int

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "values": list(self.values),
            "ranking": list(self.ranking),
            "chosen": list(self.chosen),
            "score": self.score,
            "accuracy": self.accuracy,
            "sigma": self.sigma,
            "seed": self.seed,
            "k_select": self.k_select,
        }


def _subsample(D: Dataset, n: int, rng) -> Dataset:
    if D.n <= n:
        return D
    return D.take(np.sort(rng.choice(D.n, n, replace=False)))


def select_sources(sources, T: Dataset, measure: str, K: int, cfg: SelectConfig, seed: int = 0,
                   clean_flags=None, oracle: Dataset | None = None, sigma: float | None = None) -> SelectionOutcome:
    """Rank sources by discrepancy to the target and evaluate the top-K pool.

    For the pair-discrepancy measure each source trains its own supervised
    hypothesis and a target-aware one, self-trained from a second source
    hypothesis under its own seed; the discrepancy is their disagreement on
    target rows held out from self-training. The score
    counts clean sources inside the top-K (requires ``clean_flags``); the
    downstream accuracy trains one classifier on the CORAL-adapted chosen
    pool and grades it on oracle-labeled target data. Both are diagnostics.
    """
    sources = list(sources)
    if len(sources) < 2:
        raise ContractError(f"need at least 2 sources, got {len(sources)}")
    if not 1 <= K <= len(sources):
        raise ConfigError(f"K must lie in [1, {len(sources)}] (the number of sources), got {K}")
    if measure not in ("phd", "w1"):
        raise ConfigError(f"unsupported measure {measure!r}; expected phd or w1")
    if any(not s.labeled for s in sources):
        raise ContractError("all candidate sources must be labeled")

    T_fit, T_eval = split(T.without_labels(), SplitSpec((1.0 - EVAL_FRAC, EVAL_FRAC), seed=seed))
    fit, ev = _zscore(T_fit), _zscore(T_eval, ref=T_fit)

    values = []
    if measure == "phd":
        # run 2i (seed + 10 i + 1) is source i's own hypothesis and run 2i + 1 (seed + 10 i + 2)
        # starts its self-training; the runs of all sources of one row count train in one call
        runs = [(_zscore(S), replace(cfg.base, seed=seed + 10 * i + j), None)
                for i, S in enumerate(sources) for j in (1, 2)]
        hs = {}
        for n in {S.n for S in sources}:
            group = [r for r, run in enumerate(runs) if run[0].n == n]
            hs.update(zip(group, train_erm_many([runs[r] for r in group], cfg.arch)))
        for i in range(len(sources)):
            (S, _, _), (_, ssl_cfg, _) = runs[2 * i : 2 * i + 2]
            h_ssl = train_self(S, fit, hs[2 * i + 1], ssl_cfg, cfg.ssl_rounds).hypothesis
            values.append(phd(hs[2 * i], h_ssl, ev).value)
    else:
        for i, S in enumerate(sources):
            rng = child_rng(seed, 12, i)
            values.append(w1_exact(_subsample(S, cfg.w1_subsample, rng),
                                   _subsample(T_fit, cfg.w1_subsample, rng), seed=seed + i).value)
    ranking = rank_ascending(values)
    chosen = ranking[:K]
    score = None
    if clean_flags is not None:
        flags = list(clean_flags)
        if len(flags) != len(sources):
            raise ContractError("clean_flags length does not match sources")
        score = int(sum(bool(flags[i]) for i in chosen))

    acc = None
    if oracle is not None:
        if not oracle.labeled:
            raise ContractError("oracle target dataset must be labeled")
        adapted = [coral(sources[i], T_fit) for i in chosen]
        pooled = Dataset(
            np.vstack([a.X for a in adapted]),
            np.concatenate([a.y for a in adapted]),
            sources[chosen[0]].k,
            "pooled-selected",
        )
        clf = train_erm(pooled, cfg.arch, replace(cfg.base, seed=seed + 999))
        acc = accuracy(clf, oracle)

    return SelectionOutcome(measure, tuple(float(v) for v in values), ranking, chosen,
                            score, acc, sigma, seed, K)
