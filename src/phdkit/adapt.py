"""Correlation alignment and the multi-source selection harness.

CORAL whitens source features with the source covariance, recolors with the
target covariance, and re-centers on the target mean. Source selection
ranks candidate sources by a discrepancy measure (pair discrepancy with a
self-trained second hypothesis, or exact Wasserstein-1 on raw features),
then trains one classifier on the CORAL-adapted top-K pool. The pair
discrepancy trains on features z-scored by each dataset's own moments;
the transport distance works on the raw input space.

:func:`select_sources_many` runs several selections at once (fig2 runs
every seed and measure of one noise level): the source hypotheses of all
its tasks train in lockstep, and so do the pooled classifiers, with the
bits each task gives alone. :func:`select_sources` is its one-task case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, split
from .discrepancy import phd, w1_exact
from .errors import ConfigError, ContractError, DegenerateInputError
from .models import (
    Arch,
    TrainConfig,
    accuracy,
    train_erm,  # noqa: F401  (uncalled; perfbench's layer tracer wraps this name)
    train_erm_many,
)
from .numkit import child_rng
from .semisup import train_self

W1_SUBSAMPLE = 256
EVAL_FRAC = 0.3
"""Share of the target sample held out from self-training to score the pair."""


def _covariance(X: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of the rows of X (divisor n-1), checked finite."""
    n = X.shape[0]
    if n < 2:
        raise DegenerateInputError(f"covariance needs at least 2 rows, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned
        C = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
    if not np.all(np.isfinite(C)):
        raise ContractError("the feature covariance overflows float64 (non-finite entries)")
    return C


def _sym_power(A: np.ndarray, ridge: float, power: float) -> np.ndarray:
    """(A + ridge*I)^power of a symmetric PSD matrix via eigendecomposition."""
    if not 0 < ridge < np.inf:
        raise ContractError(f"ridge must be finite and > 0, got {ridge}")
    w, V = np.linalg.eigh(A + ridge * np.eye(A.shape[0]))
    # PSD input plus a positive ridge keeps eigenvalues positive; clip guards
    # against tiny negative round-off from eigh.
    w = np.clip(w, ridge * 1e-3, None)
    B = (V * w**power) @ V.T
    return (B + B.T) / 2.0


def coral(S: Dataset, T: Dataset, ridge: float = 1e-6) -> Dataset:
    """Align source features to target first and second moments.

    X <- (X - mu_s) C_s^(-1/2) C_t^(1/2) + mu_t. Labels pass through.
    """
    if S.n == 0 or T.n == 0:
        raise ContractError("both datasets must be non-empty")
    if S.d != T.d:
        raise ContractError(f"feature dims differ: {S.d} vs {T.d}")
    A = _sym_power(_covariance(S.X), ridge, -0.5) @ _sym_power(_covariance(T.X), ridge, 0.5)
    # the means come after the covariance checks, which report an overflow before numpy warns of it
    X = (S.X - S.X.mean(axis=0)) @ A + T.X.mean(axis=0)
    return Dataset(X, S.y, S.k)


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned
        mu = R.X.mean(axis=0)
        sd = R.X.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sd)))
    if bad.size:
        raise ContractError(f"feature {bad[0]}'s mean or standard deviation overflows float64; rescale it")
    sd = np.where(sd < 1e-12, 1.0, sd)
    return Dataset((D.X - mu) / sd, D.y, D.k)


@dataclass(frozen=True)
class SelectionOutcome:
    """Ranked sources with the chosen top-K and diagnostic quality numbers."""

    measure: str
    values: tuple[float, ...]
    ranking: tuple[int, ...]
    chosen: tuple[int, ...]
    score: int | None
    accuracy: float | None
    seed: int
    k_select: int


def _subsample(D: Dataset, n: int, rng) -> Dataset:
    if D.n <= n:
        return D
    return D.take(np.sort(rng.choice(D.n, n, replace=False)))


def _train_by_rows(runs: list, arch: Arch) -> list:
    """``train_erm_many`` over runs of any row counts: one call per row count,
    the hypotheses in run order."""
    hs = [None] * len(runs)
    for n in sorted({D.n for D, _, _ in runs}):
        group = [r for r, (D, _, _) in enumerate(runs) if D.n == n]
        for r, h in zip(group, train_erm_many([runs[r] for r in group], arch)):
            hs[r] = h
    return hs


def select_sources_many(tasks, K: int, cfg: SelectConfig) -> list[SelectionOutcome]:
    """Rank sources by discrepancy to a target and evaluate the top-K pool,
    for several tasks at once; one outcome per task.

    Each task is a ``(sources, T, measure, seed, clean_flags | None,
    oracle | None)`` tuple, and every task's arguments are checked before
    any training. For the pair-discrepancy measure each source trains its
    own supervised hypothesis and a target-aware one, self-trained from a
    second source hypothesis under its own seed; the discrepancy is their
    disagreement on target rows held out from self-training. The score
    counts clean sources inside the top-K (requires ``clean_flags``); the
    downstream accuracy trains one classifier on the CORAL-adapted chosen
    pool and grades it on oracle-labeled target data. Both are diagnostics.

    The source hypotheses of all tasks train in lockstep, one
    ``train_erm_many`` call per row count, and so do the pooled classifiers;
    each outcome holds the bits its task gives alone.
    """
    tasks = [(list(sources), T, measure, seed, None if flags is None else list(flags), oracle)
             for sources, T, measure, seed, flags, oracle in tasks]
    for sources, _, measure, _, flags, oracle in tasks:
        if len(sources) < 2:
            raise ContractError(f"need at least 2 sources, got {len(sources)}")
        if not 1 <= K <= len(sources):
            raise ConfigError(f"K must lie in [1, {len(sources)}] (the number of sources), got {K}")
        if measure not in ("phd", "w1"):
            raise ConfigError(f"unsupported measure {measure!r}; expected phd or w1")
        if any(not s.labeled for s in sources):
            raise ContractError("all candidate sources must be labeled")
        if flags is not None and len(flags) != len(sources):
            raise ContractError("clean_flags length does not match sources")
        if oracle is not None and not oracle.labeled:
            raise ContractError("oracle target dataset must be labeled")

    # a phd task's source i trains run first + 2i (seed + 10 i + 1), its own hypothesis, and
    # run first + 2i + 1 (seed + 10 i + 2), which starts its self-training
    runs, fits = [], []
    for sources, T, measure, seed, _, _ in tasks:
        T_fit, T_eval = split(T.without_labels(), (1.0 - EVAL_FRAC, EVAL_FRAC), seed=seed)
        if measure == "phd":
            fits.append((T_fit, _zscore(T_fit), _zscore(T_eval, ref=T_fit), len(runs)))
            for i, Z in enumerate(map(_zscore, sources)):
                runs += [(Z, replace(cfg.base, seed=seed + 10 * i + j), None) for j in (1, 2)]
        else:
            fits.append((T_fit, None, None, None))
    hs = _train_by_rows(runs, cfg.arch)

    ranked, pooled_runs = [], []
    for (sources, _, measure, seed, flags, oracle), (T_fit, fit, ev, first) in zip(tasks, fits):
        values = []
        for i, S in enumerate(sources):
            if measure == "phd":
                r = first + 2 * i
                h_ssl = train_self(runs[r][0], fit, hs[r + 1], runs[r + 1][1], cfg.ssl_rounds).hypothesis
                values.append(phd(hs[r], h_ssl, ev).value)
            else:
                rng = child_rng(seed, 12, i)
                values.append(w1_exact(_subsample(S, cfg.w1_subsample, rng),
                                       _subsample(T_fit, cfg.w1_subsample, rng), seed=seed + i).value)
        ranking = rank_ascending(values)
        chosen = ranking[:K]
        score = None if flags is None else int(sum(bool(flags[i]) for i in chosen))
        ranked.append((tuple(float(v) for v in values), ranking, chosen, score))
        if oracle is not None:
            adapted = [coral(sources[i], T_fit) for i in chosen]
            pooled = Dataset(np.vstack([a.X for a in adapted]), np.concatenate([a.y for a in adapted]),
                             sources[chosen[0]].k)
            pooled_runs.append((pooled, replace(cfg.base, seed=seed + 999), None))
    clfs = iter(_train_by_rows(pooled_runs, cfg.arch))

    return [SelectionOutcome(measure, values, ranking, chosen, score,
                             None if oracle is None else accuracy(next(clfs), oracle), seed, K)
            for (_, _, measure, seed, _, oracle), (values, ranking, chosen, score) in zip(tasks, ranked)]


def select_sources(sources, T: Dataset, measure: str, K: int, cfg: SelectConfig, seed: int = 0,
                   clean_flags=None, oracle: Dataset | None = None) -> SelectionOutcome:
    """The one-task case of :func:`select_sources_many`."""
    return select_sources_many([(sources, T, measure, seed, clean_flags, oracle)], K, cfg)[0]
