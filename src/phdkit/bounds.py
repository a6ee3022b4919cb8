"""Numerical evaluation of the generalization-bound expressions.

Every bound is reported as a term breakdown whose total is the exact sum of
the listed terms. Terms that would need target labels or population
minimizers (the infeasible parts) are computed only when oracle inputs are
supplied and are flagged ``diagnostic``; selection logic never reads them.

Rademacher complexity follows the fit-random-signs definition: Monte Carlo
over sign draws with the inner supremum solved exactly on finite stump
classes and approximated by fit-to-noise training for network classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .discrepancy import StumpClass, _threshold_errors, phd
from .errors import ConfigError, ContractError, DegenerateInputError
from .models import (
    Arch,
    Hypothesis,
    TrainConfig,
    empirical_risk,
    margin,
    predict,
    train_erm,  # noqa: F401  (uncalled; perfbench's layer tracer wraps this name)
    train_erm_many,
    zero_one,
)
from .numkit import child_rng

FIT_TO_NOISE_EPOCHS = 30
DEFAULT_DELTA = 0.05
DEFAULT_DRAWS = 100


@dataclass(frozen=True)
class Term:
    name: str
    value: float
    diagnostic: bool = False

    def __post_init__(self):
        if not -1e-12 <= self.value < math.inf:  # also rejects NaN, which max() below would turn into 0
            raise ContractError(f"bound term {self.name} must be finite and non-negative, got {self.value}")
        object.__setattr__(self, "value", max(0.0, float(self.value)))


@dataclass(frozen=True)
class BoundReport:
    """Term breakdown of one bound; total is the exact sum of the terms."""

    bound_id: str
    terms: tuple[Term, ...]
    n_target: int
    delta: float | None = None

    def __post_init__(self):
        if self.delta is not None:
            check_delta(self.delta)

    @property
    def total(self) -> float:
        return math.fsum(t.value for t in self.terms)

    def term(self, name: str) -> float:
        for t in self.terms:
            if t.name == name:
                return t.value
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "bound_id": self.bound_id,
            "terms": [{"name": t.name, "value": t.value, "diagnostic": t.diagnostic} for t in self.terms],
            "total": self.total,
            "feasible_total": math.fsum(t.value for t in self.terms if not t.diagnostic),
            "delta": self.delta,
            "n_target": self.n_target,
        }

    @staticmethod
    def csv_header(reports) -> list[str]:
        names = dict.fromkeys(t.name for r in reports for t in r.terms)  # first-seen order
        return ["bound_id", "delta", "n_target", *names, "total"]

    def csv_row(self, header: list[str]) -> list[str]:
        vals = {t.name: repr(t.value) for t in self.terms}
        row = [self.bound_id, "" if self.delta is None else repr(self.delta), str(self.n_target)]
        row += [vals.get(name, "") for name in header[3:-1]]
        row.append(repr(self.total))
        return row


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    draws: int
    stderr: float
    class_descr: str
    method: str  # exact-finite | fit-to-noise


def _stump_sup_correlation(plans: list, sigma: np.ndarray) -> float:
    """Exact sup over the stump class of (1/n) sum sigma_i h(x_i) from the scan
    plans of the sample's columns: a pol-+ stump with m mistakes against the
    sign labels correlates n - 2m, and its polarity-- twin the negation."""
    n = sigma.shape[0]
    labels = (sigma > 0).astype(np.int64)
    best = abs(float(sigma.sum()))
    for plan in plans:
        m = _threshold_errors(plan, labels)
        best = max(best, float(np.abs(n - 2 * m).max()))
    return best / n


def rademacher(T: Dataset, cls, draws: int = DEFAULT_DRAWS, seed: int = 0,
               train_cfg: TrainConfig | None = None) -> RademacherEstimate:
    """Monte Carlo estimate of the empirical Rademacher complexity.

    ``cls`` may be a StumpClass (inner sup exact by enumeration) or an Arch
    (sup approximated by fitting the architecture to the signs with its
    training surrogate for a few epochs).
    """
    if draws < 1:
        raise ConfigError(f"draws must be >= 1, got {draws}")
    if T.n == 0:
        raise DegenerateInputError("cannot estimate complexity on an empty sample")
    sigmas = (child_rng(seed, 9, k).choice([-1.0, 1.0], size=T.n) for k in range(draws))
    if isinstance(cls, StumpClass):
        plans = [plan for _, _, plan in cls.scan_plans(T.X)]
        vals = [_stump_sup_correlation(plans, sigma) for sigma in sigmas]
        method, descr = "exact-finite", f"stumps({cls.size})"
    elif isinstance(cls, Arch):
        cfg = train_cfg or TrainConfig(epochs=FIT_TO_NOISE_EPOCHS, seed=seed)
        sigmas = list(sigmas)
        hs = train_erm_many([(Dataset(T.X, ((sigma + 1) // 2).astype(np.int64), 2),
                              replace(cfg, seed=seed + 1000 * k), None) for k, sigma in enumerate(sigmas)], cls)
        vals = [float(np.mean(sigma * (2.0 * predict(h, T.X) - 1.0))) for h, sigma in zip(hs, sigmas)]
        method, descr = "fit-to-noise", f"arch{cls.widths}"
    else:
        raise ContractError(f"unsupported class descriptor {type(cls).__name__}")
    est = math.fsum(vals) / draws
    stderr = float(np.std(vals, ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    return RademacherEstimate(est, draws, stderr, descr, method)


def check_delta(delta: float) -> None:
    """Reject a confidence parameter outside (0, 1), NaN and infinities included."""
    if not 0.0 < delta < 1.0:
        raise ContractError(f"delta must lie in (0,1), got {delta}")


def hoeffding_term(M: float, n: int, delta: float) -> float:
    """Lemma 1's two-sided concentration penalty M * sqrt(log(2/delta) / (2n))."""
    if not 0 < M < math.inf:
        raise ContractError(f"M must be finite and > 0, got {M}")
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    return _confidence(M, 2.0, delta, n)


def _confidence(coeff: float, num: float, delta: float, n: int) -> float:
    """coeff * sqrt(log(num/delta) / (2n)); delta is checked here, where it enters."""
    check_delta(delta)
    if n < 1:
        raise DegenerateInputError("cannot bound over an empty sample")
    return coeff * math.sqrt(math.log(num / delta) / (2.0 * n))


def _risk(name: str, h: Hypothesis, ref: Hypothesis, D: Dataset, diagnostic: bool = False) -> Term:
    """The zero-one risk of h against ref, another member of h's class, on D."""
    if h.k != ref.k:
        raise ContractError(f"{name} compares hypotheses of {h.k} and {ref.k} classes")
    return Term(name, empirical_risk(h, ref, D, zero_one()), diagnostic)


def _diag_term(name: str, member: Hypothesis, h_t_star: Hypothesis | None,
               oracle_T: Dataset | None, T: Dataset) -> list[Term]:
    if h_t_star is None:
        return []
    return [_risk(name, member, h_t_star, oracle_T if oracle_T is not None else T, diagnostic=True)]


def _paired_bound(bound_id: str, first: Term, h1: Hypothesis, h2: Hypothesis, member: tuple[str, Hypothesis],
                  T: Dataset, h_t_star: Hypothesis | None, oracle_T: Dataset | None, *own: Term,
                  delta: float | None = None) -> BoundReport:
    """A paired-hypotheses bound (Thm. 1, 3, 4, 6): the first risk term, the
    PHD of (h1, h2) on T, the diagnostic gap between the named pair member
    and the target minimizer, then the bound's own terms."""
    terms = [first, Term("phd", phd(h1, h2, T).value), *_diag_term(*member, h_t_star, oracle_T, T), *own]
    return BoundReport(bound_id, tuple(terms), T.n, delta)


def _hs_bound(bound_id: str, first: Term, hS: Hypothesis, T: Dataset, h_t_star: Hypothesis | None,
              oracle_T: Dataset | None, *value: Term) -> BoundReport:
    """A bound around hS (ineq1-3): the risk against hS, the supremum value
    (ineq2, ineq3), then the diagnostic hS-to-target-minimizer gap."""
    terms = [first, *value, *_diag_term("infeasible_hS_vs_target_star", hS, h_t_star, oracle_T, T)]
    return BoundReport(bound_id, tuple(terms), T.n)


def _erm_gaps(h1_hat: Hypothesis, h2_hat: Hypothesis, h1_star: Hypothesis, h2_star: Hypothesis,
              T: Dataset) -> list[Term]:
    return [_risk("erm_gap_h1", h1_hat, h1_star, T, True), _risk("erm_gap_h2", h2_hat, h2_star, T, True)]


def bound_ineq1(h: Hypothesis, hS: Hypothesis, T: Dataset,
                h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Plain triangle bound: target risk against hS plus the infeasible gap."""
    return _hs_bound("ineq1", _risk("target_risk_h_vs_hS", h, hS, T), hS, T, h_t_star, oracle_T)


def bound_thm1(h: Hypothesis, h1: Hypothesis, h2: Hypothesis, T: Dataset,
               h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Paired-hypotheses bound: risk vs h1, the pair discrepancy, and the
    diagnostic h2-to-target-minimizer gap.

    Thm. 1 is the zero-one bound: it holds because the zero-one loss
    satisfies the triangle inequality.
    """
    return _paired_bound("thm1-phd", _risk("target_risk_h_vs_h1", h, h1, T), h1, h2,
                         ("infeasible_h2_vs_target_star", h2), T, h_t_star, oracle_T)


def bound_ineq2(h: Hypothesis, hS: Hypothesis, S: Dataset, T: Dataset, sdisc: float,
                h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Source-guided bound: source risk + the S-disc value + diagnostic gap."""
    return _hs_bound("ineq2-sdisc", _risk("source_risk_h_vs_hS", h, hS, S), hS, T, h_t_star, oracle_T,
                     Term("s_disc", sdisc))


def bound_ineq3(h: Hypothesis, hS: Hypothesis, S: Dataset, T: Dataset, disc: float,
                h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Worst-pair bound: source risk + the discrepancy-distance value + diagnostic gap."""
    return _hs_bound("ineq3-disc", _risk("source_risk_h_vs_hS", h, hS, S), hS, T, h_t_star, oracle_T,
                     Term("disc", disc))


def thm2_dev_report(h1_hat: Hypothesis, h2_hat: Hypothesis, h1_star: Hypothesis,
                    h2_star: Hypothesis, T: Dataset, rad: RademacherEstimate,
                    delta: float = DEFAULT_DELTA) -> BoundReport:
    terms = [
        Term("complexity_3R", 3.0 * max(0.0, rad.value)),
        Term("confidence", _confidence(3.0, 12.0, delta, T.n)),
        *_erm_gaps(h1_hat, h2_hat, h1_star, h2_star, T),
    ]
    return BoundReport("thm2-dev", tuple(terms), T.n, delta)


def bound_thm3(h: Hypothesis, h1_hat: Hypothesis, h2_hat: Hypothesis,
               h1_star: Hypothesis, h2_star: Hypothesis, T: Dataset,
               rad_h: RademacherEstimate, delta: float = DEFAULT_DELTA,
               h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Finite-sample bound including the pair's own learning procedure.

    The pair's class H' is the class H of ``h``, so ``rad_h`` serves both
    complexity terms.
    """
    own = [
        Term("complexity_hprime", max(0.0, rad_h.value)),
        Term("complexity_3R", 3.0 * max(0.0, rad_h.value)),
        Term("confidence", _confidence(4.0, 7.0, delta, T.n)),
    ]
    return _paired_bound("thm3", _risk("target_risk_h_vs_h1_star", h, h1_star, T, diagnostic=True),
                         h1_hat, h2_hat, ("infeasible_h2_star_vs_target_star", h2_star), T, h_t_star, oracle_T,
                         *own, *_erm_gaps(h1_hat, h2_hat, h1_star, h2_star, T), delta=delta)


def bound_thm4(h: Hypothesis, h1: Hypothesis, h2: Hypothesis, T: Dataset,
               rad: RademacherEstimate, delta: float = DEFAULT_DELTA,
               h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Finite-sample bound for hypotheses fixed before estimation."""
    own = [
        Term("complexity_2R", 2.0 * max(0.0, rad.value)),
        Term("confidence", _confidence(2.0, 2.0, delta, T.n)),
    ]
    return _paired_bound("thm4", _risk("target_risk_h_vs_h1", h, h1, T), h1, h2,
                         ("infeasible_h2_vs_target_star", h2), T, h_t_star, oracle_T, *own, delta=delta)


def bound_thm6_margin(h: Hypothesis, h1: Hypothesis, h2: Hypothesis, T: Dataset,
                      rho: float, rad_pi1: RademacherEstimate,
                      delta: float = DEFAULT_DELTA, h_t_star: Hypothesis | None = None,
                      oracle_T: Dataset | None = None) -> BoundReport:
    """Multiclass margin bound with the scoring-restriction complexity, which
    scales with the class count k that h, h1 and h2 share."""
    if not rho > 0:
        raise ContractError(f"rho must be > 0, got {rho}")
    k = h1.k
    if h.k != k or h2.k != k:
        raise ContractError(f"h, h1 and h2 must share one class count, got {h.k}, {k} and {h2.k}")
    own = [
        Term("complexity_margin", (4.0 * k / rho) * max(0.0, rad_pi1.value)),
        Term("confidence", _confidence(2.0, 2.0, delta, T.n)),
    ]
    first = Term("target_margin_risk_h_vs_h1", empirical_risk(h, h1, T, margin(rho)))
    return _paired_bound("thm6-margin", first, h1, h2, ("infeasible_h2_vs_target_star", h2), T, h_t_star,
                         oracle_T, *own, delta=delta)


def lemma1_report(M: float, n: int, delta: float) -> BoundReport:
    """The two-sided concentration penalty alone, packaged as a report."""
    return BoundReport("lemma1", (Term("hoeffding", hoeffding_term(M, n, delta)),), n, delta)
