"""Domain discrepancy measures.

Implements the paired-hypotheses discrepancy (the expected loss between two
fixed hypotheses under the target sample) next to the supremum-based rivals
it is compared with: the proxy distance against the constant-one reference,
the source-guided discrepancy, and the full discrepancy distance. On the
finite stump class of a sample (every column's stumps plus both constants)
the suprema are computed exactly by enumeration; for trained architectures
they are estimated adversarially, which is where complex classes overestimate.

Every threshold scan, here and in ``bounds``, runs one prefix-count
kernel over a column's scan plan (sort order and threshold positions): the
sums of ±1 signs below each threshold, for one labelling (mistake counts) or
for a matrix of sign draws at once (the stump Rademacher scan). A column
scanned against many labellings is sorted once.
The two adversarial estimators share one routine and differ only in the
reference labelling: constant one for ``d_H``, the source hypothesis's
predictions for S-disc.

Also houses exact empirical Wasserstein-1 (sorted coupling in 1-D, min-cost
perfect matching otherwise) and the binned L1 distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .errors import CapacityError, ConfigError, ContractError, DegenerateInputError
from .models import (
    TRAIN_DTYPE,
    Arch,
    Hypothesis,
    LossSpec,
    TrainConfig,
    _Workspace,
    constant_hypothesis,
    empirical_risk,
    predict,
    scores,
    stump_hypothesis,
    train_erm_many,
    train_erm_traced,  # noqa: F401  (uncalled; perfbench's layer tracer wraps this name)
    zero_one,
)
from .numkit import child_rng

W1_ASSIGNMENT_CAP = 512
DISC_CLASS_CAP = 4096
PAIR_BLOCK_BYTES = 1 << 20  # risks per sample per block of disc_exact's pair scan
HIST_CELL_CAP = 1 << 24


@dataclass(frozen=True)
class DiscrepancyReport:
    """One discrepancy estimate plus how it was obtained."""

    measure: str
    value: float
    method: str  # closed-form | adversarial | exact-enumeration | assignment
    details: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = ()
    n_source: int | None = None
    n_target: int | None = None

    def __post_init__(self):
        if self.value < -1e-12:
            raise ContractError(f"discrepancy value must be >= 0, got {self.value}")

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "value": self.value,
            "method": self.method,
            "details": dict(sorted(self.details.items())),
            "seeds": list(self.seeds),
            "n_source": self.n_source,
            "n_target": self.n_target,
        }

    @staticmethod
    def csv_header() -> list[str]:
        return ["measure", "value", "method", "n_source", "n_target", "seeds"]

    def csv_row(self) -> list[str]:
        return [
            self.measure,
            repr(self.value),
            self.method,
            "" if self.n_source is None else str(self.n_source),
            "" if self.n_target is None else str(self.n_target),
            ";".join(map(str, self.seeds)),
        ]


# ---------------------------------------------------------------------------
# Finite hypothesis classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StumpClass:
    """Every decision stump distinguishable on a sample, plus both constants.

    ``thresholds[j]`` is feature j's float64 array of midpoints between
    distinct values. Member order is fixed for deterministic tie-breaking:
    features ascending, thresholds ascending, polarity +1 before -1,
    constants (class 1 first) at the end, with feature -1 and threshold
    None, which reports write as JSON null.
    """

    d: int
    thresholds: tuple[np.ndarray, ...]

    @classmethod
    def from_data(cls, *samples: Dataset) -> "StumpClass":
        if not samples:
            raise ContractError("need at least one sample to build a stump class")
        if len({D.d for D in samples}) > 1:
            raise ContractError(f"samples differ in feature count: {[D.d for D in samples]}")
        X = np.vstack([D.X for D in samples])
        if X.shape[0] == 0:
            raise DegenerateInputError("cannot build a stump class from empty data")
        with np.errstate(over="ignore"):  # an overflowing sum is redone in _midpoints, not warned
            return cls(X.shape[1], tuple(map(_midpoints, map(np.unique, X.T))))

    @property
    def size(self) -> int:
        return 2 * sum(t.size for t in self.thresholds) + 2

    def members(self):
        """(feature, threshold, polarity) triples; constants use feature -1 and threshold None."""
        for j, ths in enumerate(self.thresholds):
            for t in ths.tolist():
                yield (j, t, 1)
                yield (j, t, -1)
        yield (-1, None, 1)
        yield (-1, None, -1)

    def hypothesis(self, member) -> Hypothesis:
        j, t, pol = member
        if j < 0:
            return constant_hypothesis(self.d, 1 if pol > 0 else 0)
        # polarity -1 is 1{x < t}, as every scan counts it: x <= the float below t,
        # which differs where a midpoint of adjacent floats rounds onto a value
        return stump_hypothesis(j, t if pol > 0 else float(np.nextafter(t, -np.inf)), pol, self.d)

    def hypotheses(self):
        return [self.hypothesis(m) for m in self.members()]

    def check_features(self, X: np.ndarray) -> None:
        """Reject samples whose feature count is not the class's."""
        if X.shape[1] != self.d:
            raise ContractError(f"stump class has {self.d} features, the sample {X.shape[1]}")

    def scan_plans(self, X: np.ndarray):
        """(feature, thresholds, :func:`_scan_plan` of X's column) for every
        feature that has a threshold."""
        self.check_features(X)
        return ((j, t, _scan_plan(X[:, j], t)) for j, t in enumerate(self.thresholds) if t.size)


def _midpoints(u: np.ndarray) -> np.ndarray:
    """Midpoints of neighbouring sorted values, from their halves only where the sum overflows."""
    m = (u[:-1] + u[1:]) / 2.0
    over = np.isinf(m)
    if over.any():
        m[over] = u[:-1][over] / 2.0 + u[1:][over] / 2.0
    return m


def _scan_plan(x: np.ndarray, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of ``x`` and the count of values below each threshold."""
    order = np.argsort(x, kind="stable")
    return order, np.searchsorted(x[order], thresholds, side="left")


def _signed_prefix_sums(plan: tuple[np.ndarray, np.ndarray], signs: np.ndarray) -> np.ndarray:
    """Sums of ``signs`` over the rows of x below each threshold of a
    :func:`_scan_plan` of x, exactly in the signs' integer dtype.

    ``signs`` is n long, or n x k for k labellings scanned at once; the
    result has one row per threshold.
    """
    order, pos = plan
    cum = np.empty((order.shape[0] + 1, *signs.shape[1:]), signs.dtype)
    cum[0] = 0
    np.cumsum(signs.take(order, axis=0), axis=0, out=cum[1:])
    return cum[pos]


def _threshold_errors(plan: tuple[np.ndarray, np.ndarray], ref: np.ndarray) -> np.ndarray:
    """Zero-one mistakes of the pol-+ stump 1{x >= t} against ``ref`` at each
    threshold of a :func:`_scan_plan` of x.

    Reference-1 rows below t plus the other rows at or above t: with signs
    +1 where ref is 1 and -1 elsewhere, the count of other rows plus the
    signs' sum below t.
    """
    is1 = ref == 1
    return (ref.shape[0] - np.count_nonzero(is1)) + _signed_prefix_sums(plan, np.where(is1, 1, -1))


def stump_erm(cls: StumpClass, D: Dataset) -> Hypothesis:
    """Exact zero-one empirical risk minimizer over the stump class."""
    if not D.labeled:
        raise ContractError("stump ERM needs labels")
    if D.n == 0:
        raise DegenerateInputError("cannot fit on an empty dataset")
    n = D.n
    n1 = int(np.sum(D.y == 1))
    best_risk, best = 2.0, None
    for j, t, plan in cls.scan_plans(D.X):
        risk_plus = _threshold_errors(plan, D.y) / n
        risk_minus = 1.0 - risk_plus
        for risks, pol in ((risk_plus, 1), (risk_minus, -1)):
            i = int(np.argmin(risks))
            if risks[i] < best_risk - 1e-15:
                best_risk, best = float(risks[i]), (j, float(t[i]), pol)
    for pol, risk in ((1, (n - n1) / n), (-1, n1 / n)):
        if risk < best_risk - 1e-15:
            best_risk, best = float(risk), (-1, None, pol)
    return cls.hypothesis(best)


# ---------------------------------------------------------------------------
# Paired hypotheses discrepancy
# ---------------------------------------------------------------------------


def phd(h1: Hypothesis, h2: Hypothesis, T: Dataset, loss: LossSpec | None = None) -> DiscrepancyReport:
    """Empirical loss between two fixed hypotheses on the target rows T.

    Callers score rows the pair was not fitted on by splitting the target
    before any training.
    """
    loss = loss or zero_one()
    if h1.k != h2.k:  # the pair are two members of one class H
        raise ContractError(f"PHD pairs hypotheses of one class count, got {h1.k} and {h2.k}")
    if T.n == 0:
        raise DegenerateInputError("target dataset is empty")
    return DiscrepancyReport("phd", empirical_risk(h1, h2, T, loss), "closed-form",
                             details={"loss": loss.kind, "excluded": 0},  # fixed; stored digests pin it
                             n_target=T.n)


# ---------------------------------------------------------------------------
# Exact suprema on finite classes (zero-one loss)
# ---------------------------------------------------------------------------


def _sup_reference_gap(measure: str, S: Dataset, T: Dataset, cls: StumpClass, ref) -> DiscrepancyReport:
    """Exact sup over the class of |risk_T(h, ref) - risk_S(h, ref)|.

    ``ref`` maps features to reference labels. Polarity flips replace risk
    by 1 - risk, so the gap is polarity invariant; constants are checked
    separately.
    """
    _require_pair(S, T)
    ref_s, ref_t = ref(S.X), ref(T.X)
    best, info = -1.0, {}
    for (j, t, plan_t), (_, _, plan_s) in zip(cls.scan_plans(T.X), cls.scan_plans(S.X)):
        gap = _gap(plan_t, ref_t, plan_s, ref_s)
        i = int(np.argmax(gap))
        if gap[i] > best + 1e-15:
            best, info = float(gap[i]), {"feature": j, "threshold": float(t[i]), "polarity": 1}
    gap_const = abs(float(np.mean(ref_t == 0)) - float(np.mean(ref_s == 0)))
    if gap_const > best + 1e-15:
        best, info = gap_const, {"feature": -1, "threshold": None, "polarity": 1}
    return DiscrepancyReport(measure, best, "exact-enumeration", details=info,
                             n_source=S.n, n_target=T.n)


def _gap(plan_t, ref_t: np.ndarray, plan_s, ref_s: np.ndarray) -> np.ndarray:
    """|risk_T - risk_S| against the references of the pol-+ stump at each scan plan threshold."""
    return np.abs(_threshold_errors(plan_t, ref_t) / ref_t.shape[0]
                  - _threshold_errors(plan_s, ref_s) / ref_s.shape[0])


def _require_pair(S: Dataset, T: Dataset) -> None:
    if S.n == 0 or T.n == 0:
        raise DegenerateInputError("both samples must be non-empty")
    if S.d != T.d:
        raise ContractError(f"feature dims differ: {S.d} vs {T.d}")


def _constant_one(X: np.ndarray) -> np.ndarray:
    return np.ones(X.shape[0], dtype=np.int64)


def dh_exact(S: Dataset, T: Dataset, cls: StumpClass) -> DiscrepancyReport:
    """Exact supremum of |risk_T(h, 1) - risk_S(h, 1)| over the stump class."""
    return _sup_reference_gap("d_H", S, T, cls, _constant_one)


def sdisc_exact(S: Dataset, T: Dataset, hS: Hypothesis, cls: StumpClass) -> DiscrepancyReport:
    """Exact source-guided discrepancy: reference fixed to hS's predictions."""
    if hS.k != 2:
        raise ContractError(f"source-guided discrepancy is binary only, got a {hS.k}-class hS")
    return _sup_reference_gap("s_disc", S, T, cls, lambda X: predict(hS, X))


def disc_exact(S: Dataset, T: Dataset, cls: StumpClass) -> DiscrepancyReport:
    """Exact discrepancy distance: supremum over ordered pairs in the class.

    In one dimension this reduces to the range of the CDF gap. In higher
    dimensions all pairs are enumerated through the Gram matrix of the
    polarity +1 members' predictions on each sample (a member and its
    polarity flip differ only in sign), which caps the workable class size.
    The pairs are scanned in blocks of first members, about
    ``PAIR_BLOCK_BYTES`` of risks per sample at a time, so memory grows
    linearly with the class size. Gram entries are integers, exact in
    float32 while n < 2**24 however the rows are blocked, and every later
    step is elementwise: the value and the pair do not depend on the block.
    """
    _require_pair(S, T)
    cls.check_features(T.X)
    if cls.d == 1:
        t = cls.thresholds[0]
        gap = (np.searchsorted(np.sort(T.X[:, 0]), t, side="left") / T.n
               - np.searchsorted(np.sort(S.X[:, 0]), t, side="left") / S.n)
        # the constants' gap, 0, bounds both ends
        hi, lo = float(gap.max(initial=0.0)), float(gap.min(initial=0.0))
        return DiscrepancyReport("disc", hi - lo, "exact-enumeration",
                                 details={"feature": 0, "form": "cdf-range"},
                                 n_source=S.n, n_target=T.n)
    if cls.size > DISC_CLASS_CAP:
        raise CapacityError(
            f"class size {cls.size} exceeds the pair-enumeration cap {DISC_CLASS_CAP}; "
            "subsample the data or restrict features"
        )
    h = cls.size // 2  # polarity +1 members' signed predictions, the constant one last
    first = np.cumsum([0, *(t.size for t in cls.thresholds)])  # feature j's rows start at first[j]
    Pt, Ps = np.ones((h, T.n), np.float32), np.ones((h, S.n), np.float32)
    for P, X in ((Pt, T.X), (Ps, S.X)):
        for j, t in enumerate(cls.thresholds):  # +1 where x >= t, -1 elsewhere
            np.subtract((X[:, j] >= t[:, None]) * np.float32(2), 1, out=P[first[j]:first[j + 1]])
    rows = max(1, PAIR_BLOCK_BYTES // (2 * 4 * h))
    risk_t, risk_s = np.empty((2, rows, h), np.float32), np.empty((2, rows, h), np.float32)

    def gap(a0: int, a1: int, b0: int) -> np.ndarray:
        """|risk_T - risk_S| of the pairs (2a+p, 2b+p') with a0 <= a < a1 and b >= b0."""
        g = _pair_risks(Pt[a0:a1], Pt[b0:], T.n, risk_t)
        g -= _pair_risks(Ps[a0:a1], Ps[b0:], S.n, risk_s)
        return np.abs(g, out=g)

    best = np.empty(h, np.float32)
    for a0 in range(0, h, rows):
        a1 = min(a0 + rows, h)
        gap(a0, a1, a0).max(axis=(0, 2), out=best[a0:a1])
    # Rows 2a and 2a+1 of the full m x m gap matrix hold the same values, so
    # its first row-major maximum lies in row 2a of the first a to reach it,
    # whose entries are gap[0, a] and gap[1, a] interleaved. The matrix is
    # symmetric, so that maximum has b >= a (else row b reached it first):
    # a block needs only the members from its own first one on.
    a = int(np.argmax(best))
    row = gap(a, a + 1, 0)[:, 0].T.ravel()
    j = int(np.argmax(row))
    members = list(cls.members())
    return DiscrepancyReport("disc", float(row[j]), "exact-enumeration",
                             details={"pair": [list(members[2 * a]), list(members[j])]},
                             n_source=S.n, n_target=T.n)


def _pair_risks(A: np.ndarray, B: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Zero-one risks on a sample of every member pair (2a+p, 2b+p') with
    2a a row of ``A`` and 2b a row of ``B``, written into the front of
    ``out`` and returned as a 2 x len(A) x len(B) view of it: [0] at equal
    polarities, [1] at opposite.

    ``A`` and ``B`` hold polarity +1 members' signed predictions on the
    sample's n rows as float32. For signed predictions risk(h, h') =
    (1 - <p_h, p_h'>/n) / 2. Member 2a+1 is member 2a negated, so with q
    the Gram entries over n the risks are (1 - q)/2 and (1 + q)/2, bit for
    bit as from the full member Gram: each entry is an integer below 2**24,
    exact in float32 whichever rows a block holds, and x / n is sign
    symmetric.
    """
    risks = out[:, :A.shape[0], :B.shape[0]]
    q = np.matmul(A, B.T, out=risks[1])
    q /= n
    np.subtract(1.0, q, out=risks[0])
    q += 1.0
    risks /= 2.0
    return risks


# ---------------------------------------------------------------------------
# Adversarial estimation for trained architectures
# ---------------------------------------------------------------------------


def _scan_threshold_gap(score_s: np.ndarray, ref_s: np.ndarray,
                        score_t: np.ndarray, ref_t: np.ndarray) -> float:
    """Best |risk_T - risk_S| over all decision thresholds of a score.

    The witness 1{score >= c} is the scored network with a shifted output
    bias, hence a member of the same class. Thresholds beyond the score
    range reproduce the two constants.
    """
    pooled = np.unique(np.concatenate([score_s, score_t]))
    mids = (pooled[:-1] + pooled[1:]) / 2.0
    thresholds = np.concatenate([[pooled[0] - 1.0], mids, [pooled[-1] + 1.0]])
    return float(_gap(_scan_plan(score_t, thresholds), ref_t, _scan_plan(score_s, thresholds), ref_s).max())


def _split_halves(D: Dataset, rng) -> tuple[Dataset, Dataset]:
    perm = rng.permutation(D.n)
    half = D.n // 2
    return D.take(np.sort(perm[:half])), D.take(np.sort(perm[half:]))


def _adversarial_gap(S: Dataset, T: Dataset, ref, arch: Arch, cfg: TrainConfig, eval_mode: str,
                     stream: int, directions: tuple[str, str]) -> tuple[dict, np.ndarray, np.ndarray]:
    """Adversarial lower bound on sup |risk_T(h, ref) - risk_S(h, ref)|.

    ``ref`` maps features to reference labels. Direction k (seed offset k)
    trains toward the reference on source and its flip on target, or the
    reverse for k = 1. Both directions fit the same rows, so they train in
    one lockstep call, each traced with its own witness metric and given
    the bits it gets alone. Held-out mode fits on one half of each sample,
    split by ``child_rng(cfg.seed, stream)``, and evaluates on the other.
    Returns the statistic per direction and the evaluation samples'
    reference labels.
    """
    if eval_mode not in ("insample", "heldout"):
        raise ConfigError(f"unknown eval_mode {eval_mode!r}")
    if eval_mode == "heldout":
        rng = child_rng(cfg.seed, stream)
        S_fit, S_eval = _split_halves(S, rng)
        T_fit, T_eval = _split_halves(T, rng)
    else:
        S_fit = S_eval = S
        T_fit = T_eval = T
    ref_sf, ref_tf = ref(S_fit.X), ref(T_fit.X)
    ref_se, ref_te = ref(S_eval.X), ref(T_eval.X)
    ws = _Workspace(TRAIN_DTYPE)  # the witnesses are training snapshots

    def negated_statistic(h: Hypothesis) -> float:
        # Shifting the output bias keeps the witness inside the class, so
        # the best decision threshold over the scored samples is scanned.
        return -_scan_threshold_gap(scores(h, S_eval.X, ws)[:, 0], ref_se,
                                    scores(h, T_eval.X, ws)[:, 0], ref_te)

    X = np.vstack([S_fit.X, T_fit.X])
    labels = (np.concatenate([ref_sf, 1 - ref_tf]), np.concatenate([1 - ref_sf, ref_tf]))
    runs = [(Dataset(X, y, 2), replace(cfg, seed=cfg.seed + k), None) for k, y in enumerate(labels)]
    # Every hypothesis visited during training is a valid witness for the
    # supremum lower bound; each trace's last entry is the best statistic
    # over that direction's snapshots, negated.
    traced = train_erm_many(runs, arch, [negated_statistic] * len(runs))
    stats = {direction: -trace[-1] for direction, (_, trace) in zip(directions, traced)}
    return stats, ref_se, ref_te


def _adversarial_report(measure: str, stats: dict, eval_mode: str, cfg: TrainConfig,
                        ref_s: np.ndarray, ref_t: np.ndarray) -> DiscrepancyReport:
    best = max(stats, key=lambda k: stats[k])
    return DiscrepancyReport(measure, stats[best], "adversarial",
                             details={"direction": best, **{f"stat_{k}": v for k, v in stats.items()},
                                      "eval_mode": eval_mode},
                             seeds=(cfg.seed,), n_source=ref_s.size, n_target=ref_t.size)


def dh_adv(S: Dataset, T: Dataset, arch: Arch, cfg: TrainConfig,
           eval_mode: str = "insample") -> DiscrepancyReport:
    """Adversarial lower-bound estimate of the proxy distance.

    Trains a domain discriminator toward class 1 on source and class 0 on
    target, evaluates |risk_T(h, 1) - risk_S(h, 1)|, repeats with the sign
    direction swapped, and returns the larger statistic. The default
    evaluates on the training samples, i.e. it estimates the empirical
    supremum on the given samples, which is the quantity that complex
    classes inflate. ``eval_mode="heldout"`` instead reports the statistic
    on held-out halves, estimating the population gap.
    """
    _require_pair(S, T)
    if arch.out_dim != 1:
        raise ContractError("domain discrimination needs a single-score architecture")
    stats, ref_s, ref_t = _adversarial_gap(S, T, _constant_one, arch, cfg, eval_mode, 6,
                                           ("source-as-1", "source-as-0"))
    return _adversarial_report("d_H", stats, eval_mode, cfg, ref_s, ref_t)


def sdisc_adv(S: Dataset, T: Dataset, hS: Hypothesis, arch: Arch, cfg: TrainConfig,
              eval_mode: str = "insample") -> DiscrepancyReport:
    """Adversarial source-guided discrepancy.

    The discriminator is pushed to copy hS's predictions on one domain and
    their flips on the other (then the roles swap); the reported statistic
    is |risk_T(h, hS) - risk_S(h, hS)| under zero-one loss.
    """
    _require_pair(S, T)
    if arch.out_dim != 1 or hS.arch.out_dim != 1:
        raise ContractError("source-guided adversarial estimation is binary only")
    stats, ref_s, ref_t = _adversarial_gap(S, T, lambda X: predict(hS, X), arch, cfg, eval_mode, 7,
                                           ("agree-on-source", "agree-on-target"))
    # the two constant hypotheses are always available witnesses
    stats["constant"] = abs(float(np.mean(ref_t == 0)) - float(np.mean(ref_s == 0)))
    return _adversarial_report("s_disc", stats, eval_mode, cfg, ref_s, ref_t)


# ---------------------------------------------------------------------------
# Wasserstein-1 and histogram L1
# ---------------------------------------------------------------------------


def _w1_1d(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(a)
    b = np.sort(b)
    grid = np.sort(np.concatenate([a, b]))
    Fa = np.searchsorted(a, grid, side="right") / a.shape[0]
    Fb = np.searchsorted(b, grid, side="right") / b.shape[0]
    gap = np.abs(Fa[:-1] - Fb[:-1])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is handled below, not warned
        width = np.diff(grid)
        value = float(np.sum(gap * width))
        if not math.isfinite(value):
            # a gap between points over 1.8e308 apart overflows; where the CDFs agree it adds 0, not 0 * inf
            value = float(np.sum(gap[gap > 0] * width[gap > 0]))
    if not math.isfinite(value):
        raise CapacityError("the 1-D W1 distance overflows float64; rescale the feature")
    return value


def w1_exact(S: Dataset, T: Dataset, seed: int = 0, cap: int = W1_ASSIGNMENT_CAP) -> DiscrepancyReport:
    """Exact empirical Wasserstein-1 between the two feature samples.

    One-dimensional data uses the CDF-quantile coupling (any sizes). Higher
    dimensions solve an exact min-cost perfect matching on the Euclidean
    cost matrix; unequal sizes are equalized by seeded subsampling of the
    larger sample and the matching size is capped. The matching is scipy's
    (``cdist`` and ``linear_sum_assignment``), imported on the first call that
    reaches it, so ``import phdkit`` and the 1-D path load no scipy.
    """
    _require_pair(S, T)
    if cap < 1:
        raise ConfigError(f"assignment cap must be >= 1, got {cap}")
    if S.d == 1:
        value = _w1_1d(S.X[:, 0], T.X[:, 0])
        return DiscrepancyReport("w1", value, "closed-form", n_source=S.n, n_target=T.n)
    n = min(S.n, T.n)
    if n > cap:
        raise CapacityError(
            f"assignment at n={n} exceeds the cap {cap}; subsample both datasets to at most {cap} rows"
        )
    # scipy loads here, on the first matching, not at import: it is most of phdkit's start-up
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    rng = child_rng(seed, 8)
    Xs = S.X if S.n == n else S.X[np.sort(rng.choice(S.n, n, replace=False))]
    Xt = T.X if T.n == n else T.X[np.sort(rng.choice(T.n, n, replace=False))]
    cost = cdist(Xs, Xt)
    if not np.all(np.isfinite(cost)):
        raise CapacityError("a W1 transport cost overflows float64; rescale the features")
    rows, cols = linear_sum_assignment(cost)
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        value = float(cost[rows, cols].sum() / n)
    if not math.isfinite(value):
        raise CapacityError("the W1 transport cost overflows float64; rescale the features")
    return DiscrepancyReport("w1", value, "assignment", details={"matched": n},
                             seeds=(seed,), n_source=S.n, n_target=T.n)


def l1_hist(S: Dataset, T: Dataset, bins: int = 10) -> float:
    """L1 distance between per-bin frequencies on a shared pooled grid."""
    _require_pair(S, T)
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    # histogramdd adds an outlier bin on each side of every axis
    if (bins + 2) ** S.d > HIST_CELL_CAP:
        raise CapacityError(f"({bins}+2)^{S.d} histogram cells, outlier bins included, exceed the cap "
                            f"{HIST_CELL_CAP}; reduce bins or dimensions")
    pooled = np.vstack([S.X, T.X])
    edges = []
    for j in range(S.d):
        lo, hi = float(pooled[:, j].min()), float(pooled[:, j].max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        if not math.isfinite(hi - lo):  # linspace would overflow into non-monotonic edges
            raise CapacityError(f"feature {j}'s pooled range [{lo}, {hi}] overflows float64; rescale it")
        edges.append(np.linspace(lo, hi, bins + 1))
    ps, _ = np.histogramdd(S.X, bins=edges)
    pt, _ = np.histogramdd(T.X, bins=edges)
    return float(np.abs(ps / S.n - pt / T.n).sum())
