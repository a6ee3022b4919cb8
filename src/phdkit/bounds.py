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
from .discrepancy import ExplicitClass, StumpClass, _scan_plan, _threshold_errors, phd
from .errors import ConfigError, ContractError, DegenerateInputError
from .models import (
    Arch,
    Hypothesis,
    LossSpec,
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
        if not self.value >= -1e-12:  # also rejects NaN, which max() below would turn into 0
            raise ContractError(f"bound term {self.name} must be non-negative, got {self.value}")
        object.__setattr__(self, "value", max(0.0, float(self.value)))


@dataclass(frozen=True)
class BoundReport:
    """Term breakdown of one bound; total is the exact sum of the terms."""

    bound_id: str
    terms: tuple[Term, ...]
    total: float
    n_target: int
    delta: float | None = None

    def __post_init__(self):
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ContractError(f"delta must lie in (0,1), got {self.delta}")

    @property
    def feasible_total(self) -> float:
        return math.fsum(t.value for t in self.terms if not t.diagnostic)

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
            "feasible_total": self.feasible_total,
            "delta": self.delta,
            "n_target": self.n_target,
        }

    @staticmethod
    def csv_header(reports) -> list[str]:
        names = []
        for r in reports:
            for t in r.terms:
                if t.name not in names:
                    names.append(t.name)
        return ["bound_id", "delta", "n_target", *names, "total"]

    def csv_row(self, header: list[str]) -> list[str]:
        vals = {t.name: repr(t.value) for t in self.terms}
        row = [self.bound_id, "" if self.delta is None else repr(self.delta), str(self.n_target)]
        row += [vals.get(name, "") for name in header[3:-1]]
        row.append(repr(self.total))
        return row


def _report(bound_id: str, terms: list[Term], n_target: int, delta: float | None = None) -> BoundReport:
    total = math.fsum(t.value for t in terms)
    return BoundReport(bound_id, tuple(terms), total, n_target, delta)


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    draws: int
    stderr: float
    class_descr: str
    method: str  # exact-finite | fit-to-noise

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "draws": self.draws,
            "stderr": self.stderr,
            "class": self.class_descr,
            "method": self.method,
        }


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

    ``cls`` may be a StumpClass (inner sup exact by enumeration), an
    ExplicitClass (exact over the listed members, no negation added), or an
    Arch (sup approximated by fitting the architecture to the signs with
    the standard surrogate for a few epochs).
    """
    if draws < 1:
        raise ConfigError(f"draws must be >= 1, got {draws}")
    if T.n == 0:
        raise DegenerateInputError("cannot estimate complexity on an empty sample")
    sigmas = (child_rng(seed, 9, k).choice([-1.0, 1.0], size=T.n) for k in range(draws))
    if isinstance(cls, StumpClass):
        plans = [_scan_plan(T.X[:, j], np.asarray(ths)) for j, ths in enumerate(cls.thresholds) if ths]
        vals = [_stump_sup_correlation(plans, sigma) for sigma in sigmas]
        method, descr = "exact-finite", f"stumps({cls.size})"
    elif isinstance(cls, ExplicitClass):
        P = cls.prediction_matrix(T.X).astype(np.float64)
        vals = [float((P @ sigma).max()) / T.n for sigma in sigmas]
        method, descr = "exact-finite", f"explicit({cls.size})"
    elif isinstance(cls, Arch):
        cfg = train_cfg or TrainConfig(epochs=FIT_TO_NOISE_EPOCHS, seed=seed)
        sigmas = list(sigmas)
        hs = train_erm_many([(Dataset(T.X, ((sigma + 1) // 2).astype(np.int64), 2, "noise-fit"),
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


def hoeffding_term(M: float, n: int, delta: float, two_sided: bool = False) -> float:
    """Concentration penalty M * sqrt(log(a/delta) / (2n)), a = 2 if two-sided."""
    if not 0 < M < math.inf:
        raise ContractError(f"M must be finite and > 0, got {M}")
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    check_delta(delta)
    a = 2.0 if two_sided else 1.0
    return M * math.sqrt(math.log(a / delta) / (2.0 * n))


def _confidence(coeff: float, num: float, delta: float, n: int) -> float:
    return coeff * math.sqrt(math.log(num / delta) / (2.0 * n))


def _phd_term(h1: Hypothesis, h2: Hypothesis, T: Dataset, loss: LossSpec) -> tuple[float, int]:
    rep = phd(h1, h2, T, loss)
    return rep.value, rep.n_target


def _diag_term(name: str, h2: Hypothesis, h_t_star: Hypothesis | None,
               oracle_T: Dataset | None, T: Dataset, loss: LossSpec) -> list[Term]:
    if h_t_star is None:
        return []
    ev = oracle_T if oracle_T is not None else T
    return [Term(name, empirical_risk(h2, h_t_star, ev, loss), diagnostic=True)]


def bound_ineq1(h: Hypothesis, hS: Hypothesis, T: Dataset,
                h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Plain triangle bound: target risk against hS plus the infeasible gap."""
    loss = zero_one()
    terms = [Term("target_risk_h_vs_hS", empirical_risk(h, hS, T, loss))]
    terms += _diag_term("infeasible_hS_vs_target_star", hS, h_t_star, oracle_T, T, loss)
    return _report("ineq1", terms, T.n)


def bound_thm1(h: Hypothesis, h1: Hypothesis, h2: Hypothesis, T: Dataset,
               loss: LossSpec | None = None, h_t_star: Hypothesis | None = None,
               oracle_T: Dataset | None = None) -> BoundReport:
    """Paired-hypotheses bound: risk vs h1, the pair discrepancy, and the
    diagnostic h2-to-target-minimizer gap."""
    loss = loss or zero_one()
    if not loss.triangle:
        raise ContractError("this bound requires a loss satisfying the triangle inequality")
    phd_val, n_eff = _phd_term(h1, h2, T, loss)
    terms = [
        Term("target_risk_h_vs_h1", empirical_risk(h, h1, T, loss)),
        Term("phd", phd_val),
    ]
    terms += _diag_term("infeasible_h2_vs_target_star", h2, h_t_star, oracle_T, T, loss)
    return _report("thm1-phd", terms, n_eff)


def _supremum_bound(bound_id: str, h: Hypothesis, hS: Hypothesis, S: Dataset, T: Dataset,
                    disc_value: float, disc_name: str,
                    h_t_star: Hypothesis | None, oracle_T: Dataset | None) -> BoundReport:
    loss = zero_one()
    terms = [
        Term("source_risk_h_vs_hS", empirical_risk(h, hS, S, loss)),
        Term(disc_name, disc_value),
    ]
    terms += _diag_term("infeasible_hS_vs_target_star", hS, h_t_star, oracle_T, T, loss)
    return _report(bound_id, terms, T.n)


def bound_ineq2(h: Hypothesis, hS: Hypothesis, S: Dataset, T: Dataset, sdisc,
                h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Source-guided bound: source risk + S-disc + diagnostic gap."""
    value = sdisc.value if hasattr(sdisc, "value") else float(sdisc)
    return _supremum_bound("ineq2-sdisc", h, hS, S, T, value, "s_disc", h_t_star, oracle_T)


def bound_ineq3(h: Hypothesis, hS: Hypothesis, S: Dataset, T: Dataset, disc,
                h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Worst-pair bound: source risk + discrepancy distance + diagnostic gap."""
    value = disc.value if hasattr(disc, "value") else float(disc)
    return _supremum_bound("ineq3-disc", h, hS, S, T, value, "disc", h_t_star, oracle_T)


def thm2_dev_report(h1_hat: Hypothesis, h2_hat: Hypothesis, h1_star: Hypothesis,
                    h2_star: Hypothesis, T: Dataset, rad: RademacherEstimate,
                    delta: float = DEFAULT_DELTA) -> BoundReport:
    check_delta(delta)
    loss = zero_one()
    terms = [
        Term("complexity_3R", 3.0 * max(0.0, rad.value)),
        Term("confidence", _confidence(3.0, 12.0, delta, T.n)),
        Term("erm_gap_h1", empirical_risk(h1_hat, h1_star, T, loss), diagnostic=True),
        Term("erm_gap_h2", empirical_risk(h2_hat, h2_star, T, loss), diagnostic=True),
    ]
    return _report("thm2-dev", terms, T.n, delta)


def bound_thm3(h: Hypothesis, h1_hat: Hypothesis, h2_hat: Hypothesis,
               h1_star: Hypothesis, h2_star: Hypothesis, T: Dataset,
               rad_h: RademacherEstimate, delta: float = DEFAULT_DELTA,
               h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Finite-sample bound including the pair's own learning procedure.

    The pair's class H' is the class H of ``h``, so ``rad_h`` serves both
    complexity terms.
    """
    check_delta(delta)
    loss = zero_one()
    phd_val, n_eff = _phd_term(h1_hat, h2_hat, T, loss)
    terms = [
        Term("target_risk_h_vs_h1_star", empirical_risk(h, h1_star, T, loss), diagnostic=True),
        Term("phd", phd_val),
    ]
    terms += _diag_term("infeasible_h2_star_vs_target_star", h2_star, h_t_star, oracle_T, T, loss)
    terms += [
        Term("complexity_hprime", max(0.0, rad_h.value)),
        Term("complexity_3R", 3.0 * max(0.0, rad_h.value)),
        Term("confidence", _confidence(4.0, 7.0, delta, n_eff)),
        Term("erm_gap_h1", empirical_risk(h1_hat, h1_star, T, loss), diagnostic=True),
        Term("erm_gap_h2", empirical_risk(h2_hat, h2_star, T, loss), diagnostic=True),
    ]
    return _report("thm3", terms, n_eff, delta)


def bound_thm4(h: Hypothesis, h1: Hypothesis, h2: Hypothesis, T: Dataset,
               rad: RademacherEstimate, delta: float = DEFAULT_DELTA,
               h_t_star: Hypothesis | None = None, oracle_T: Dataset | None = None) -> BoundReport:
    """Finite-sample bound for hypotheses fixed before estimation."""
    check_delta(delta)
    loss = zero_one()
    phd_val, n_eff = _phd_term(h1, h2, T, loss)
    terms = [
        Term("target_risk_h_vs_h1", empirical_risk(h, h1, T, loss)),
        Term("phd", phd_val),
    ]
    terms += _diag_term("infeasible_h2_vs_target_star", h2, h_t_star, oracle_T, T, loss)
    terms += [
        Term("complexity_2R", 2.0 * max(0.0, rad.value)),
        Term("confidence", _confidence(2.0, 2.0, delta, n_eff)),
    ]
    return _report("thm4", terms, n_eff, delta)


def bound_thm6_margin(h: Hypothesis, h1: Hypothesis, h2: Hypothesis, T: Dataset,
                      rho: float, k: int, rad_pi1: RademacherEstimate,
                      delta: float = DEFAULT_DELTA, h_t_star: Hypothesis | None = None,
                      oracle_T: Dataset | None = None) -> BoundReport:
    """Multiclass margin bound with the scoring-restriction complexity."""
    if not rho > 0:
        raise ContractError(f"rho must be > 0, got {rho}")
    if k < 2:
        raise ContractError(f"k must be >= 2, got {k}")
    check_delta(delta)
    loss01 = zero_one()
    phd_val, n_eff = _phd_term(h1, h2, T, loss01)
    terms = [
        Term("target_margin_risk_h_vs_h1", empirical_risk(h, h1, T, margin(rho))),
        Term("phd", phd_val),
    ]
    terms += _diag_term("infeasible_h2_vs_target_star", h2, h_t_star, oracle_T, T, loss01)
    terms += [
        Term("complexity_margin", (4.0 * k / rho) * max(0.0, rad_pi1.value)),
        Term("confidence", _confidence(2.0, 2.0, delta, n_eff)),
    ]
    return _report("thm6-margin", terms, n_eff, delta)


def lemma1_report(M: float, n: int, delta: float) -> BoundReport:
    """The two-sided concentration penalty alone, packaged as a report."""
    return _report("lemma1", [Term("hoeffding", hoeffding_term(M, n, delta, two_sided=True))], n, delta)
