import math

import mpmath
import numpy as np
import pytest

from phdkit.bounds import (
    RademacherEstimate,
    Term,
    bound_ineq1,
    bound_ineq2,
    bound_ineq3,
    bound_thm1,
    bound_thm3,
    bound_thm4,
    bound_thm6_margin,
    hoeffding_term,
    lemma1_report,
    rademacher,
    thm2_dev_report,
)
from phdkit.data import Dataset, gen_gaussian_pair
from phdkit.discrepancy import StumpClass, sdisc_exact, stump_erm
from phdkit.errors import ContractError, DegenerateInputError
from phdkit.models import (
    constant_hypothesis,
    empirical_risk,
    linear_hypothesis,
    predict,
    stump_hypothesis,
    zero_one,
)
from phdkit.numkit import child_rng


def rad_const(v):
    return RademacherEstimate(v, 1, 0.0, "fixed", "exact-finite")


def d1(*vals):
    return Dataset(np.asarray(vals, float).reshape(-1, 1))


# --- Rademacher ---------------------------------------------------------------


def test_stump_rademacher_matches_enumeration_oracle():
    n, draws, seed = 64, 12, 5
    T = Dataset(child_rng(4).standard_normal((n, 1)))
    cls = StumpClass.from_data(T)
    est = rademacher(T, cls, draws=draws, seed=seed)
    P = cls.prediction_matrix(T.X).astype(float)
    vals = []
    for k in range(draws):
        sigma = child_rng(seed, 9, k).choice([-1.0, 1.0], size=n)
        vals.append(float((P @ sigma).max()) / n)
    assert est.value == pytest.approx(math.fsum(vals) / draws, abs=1e-12)
    assert est.stderr == pytest.approx(np.std(vals, ddof=1) / math.sqrt(draws), abs=1e-12)


def test_fit_to_noise_runs_and_reports_method():
    from phdkit.models import TrainConfig, mlp_arch

    T = Dataset(child_rng(6).standard_normal((40, 2)))
    est = rademacher(T, mlp_arch(2, (8,), batch_norm=False), draws=3, seed=0,
                     train_cfg=TrainConfig(epochs=10, seed=0))
    assert est.method == "fit-to-noise"
    assert -1.0 <= est.value <= 1.0


# --- Hoeffding ------------------------------------------------------------------


def test_hoeffding_vanishes_with_n():
    assert hoeffding_term(1.0, 10**12, 0.1) < 1e-5


def test_hoeffding_against_high_precision_oracle():
    mpmath.mp.dps = 50
    expect = float(mpmath.sqrt(mpmath.log(20) / 400))
    assert hoeffding_term(1.0, 200, 0.1) == pytest.approx(expect, abs=1e-15)
    two = float(mpmath.sqrt(mpmath.log(2 / mpmath.mpf("0.05")) / (2 * 321)))
    assert hoeffding_term(1.0, 321, 0.05) == pytest.approx(two, abs=1e-15)


def test_hoeffding_domain_errors():
    for bad in ((0.0, 10, 0.1), (1.0, 0, 0.1), (1.0, 10, 0.0), (1.0, 10, 1.0)):
        with pytest.raises(ContractError):
            hoeffding_term(*bad)


# --- bound reports ---------------------------------------------------------------


def _toy():
    T = d1(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    h = stump_hypothesis(0, 2.5, 1, 1)
    h1 = stump_hypothesis(0, 3.5, 1, 1)
    h2 = stump_hypothesis(0, 4.5, 1, 1)
    ht = stump_hypothesis(0, 1.5, 1, 1)
    return T, h, h1, h2, ht


def test_thm1_identical_hypotheses_feasible_terms_zero():
    T, h, *_ = _toy()
    rep = bound_thm1(h, h, h, T)
    assert rep.term("target_risk_h_vs_h1") == 0.0
    assert rep.term("phd") == 0.0
    assert rep.total == 0.0


def test_thm1_matches_hand_sum():
    T, h, h1, h2, ht = _toy()
    rep = bound_thm1(h, h1, h2, T, h_t_star=ht)
    expect = (
        empirical_risk(h, h1, T, zero_one())
        + empirical_risk(h1, h2, T, zero_one())
        + empirical_risk(h2, ht, T, zero_one())
    )
    assert rep.total == pytest.approx(expect, abs=1e-15)
    assert math.fsum(t.value for t in rep.terms) == pytest.approx(rep.total, abs=1e-12)


def test_ineq_chain_disc_dominates_sdisc():
    rng = child_rng(7)
    S = Dataset(rng.standard_normal((30, 1)))
    T = Dataset(rng.standard_normal((30, 1)))
    cls = StumpClass.from_data(S, T)
    y = (rng.random(30) > 0.5).astype(int)
    hS = stump_erm(cls, Dataset(S.X, y, 2))
    h = stump_hypothesis(0, 0.3, 1, 1)
    sd = sdisc_exact(S, T, hS, cls)
    from phdkit.discrepancy import disc_exact

    dc = disc_exact(S, T, cls)
    r2 = bound_ineq2(h, hS, S, T, sd.value)
    r3 = bound_ineq3(h, hS, S, T, dc.value)
    assert r3.total >= r2.total - 1e-12
    assert r2.term("source_risk_h_vs_hS") == empirical_risk(h, hS, S, zero_one())


def test_ineq1_and_first_term_zero_when_h_equals_hs():
    T, h, _, _, ht = _toy()
    rep = bound_ineq1(h, h, T, h_t_star=ht)
    assert rep.term("target_risk_h_vs_hS") == 0.0
    assert rep.terms[-1].diagnostic


def test_thm2_gaps_vanish_for_equal_hypotheses():
    T, h, h1, h2, _ = _toy()
    rep = thm2_dev_report(h1, h2, h1, h2, T, rad_const(0.1), 0.05)
    assert rep.term("erm_gap_h1") == 0.0
    assert rep.term("erm_gap_h2") == 0.0
    assert rep.total == math.fsum(t.value for t in rep.terms)


def test_thm2_confidence_shrinks_with_root_two():
    h = stump_hypothesis(0, 0.5, 1, 1)
    Ta = d1(*np.arange(50, dtype=float))
    Tb = d1(*np.arange(100, dtype=float))
    ca = thm2_dev_report(h, h, h, h, Ta, rad_const(0.0), 0.05).term("confidence")
    cb = thm2_dev_report(h, h, h, h, Tb, rad_const(0.0), 0.05).term("confidence")
    assert cb == pytest.approx(ca / math.sqrt(2), rel=1e-12)


def test_thm2_validity_monte_carlo():
    # empirical pair-discrepancy deviation stays below the bound in at
    # least a 1-delta fraction of seeded trials
    delta, n, violations, trials = 0.05, 80, 0, 100
    for seed in range(trials):
        Ssup, _ = gen_gaussian_pair(n, 1, seed=seed)
        S2, _ = gen_gaussian_pair(n, 1, seed=seed + 7000)
        big, _ = gen_gaussian_pair(20 * n, 1, seed=seed + 9000)
        T, _ = gen_gaussian_pair(n, 1, seed=seed + 11000)
        cls = StumpClass.from_data(Ssup, S2, big, T)
        h1_hat, h2_hat = stump_erm(cls, Ssup), stump_erm(cls, S2)
        h1_star = h2_star = stump_erm(cls, big)
        rad = rademacher(T, cls, draws=20, seed=seed)
        rhs = thm2_dev_report(h1_hat, h2_hat, h1_star, h2_star, T.without_labels(), rad, delta).total
        lhs = abs(
            empirical_risk(h1_hat, h2_hat, T, zero_one())
            - empirical_risk(h1_star, h2_star, big, zero_one())
        )
        violations += lhs > rhs
    assert violations / trials <= delta


def test_thm4_tighter_than_thm3_same_inputs():
    T, h, h1, h2, ht = _toy()
    rad = rad_const(0.12)
    r4 = bound_thm4(h, h1, h2, T, rad, 0.05, h_t_star=ht)
    r3 = bound_thm3(h, h1, h2, h1, h2, T, rad, 0.05, h_t_star=ht)
    assert r4.total < r3.total


def test_thm4_matches_hand_sum():
    T, h, h1, h2, ht = _toy()
    rep = bound_thm4(h, h1, h2, T, rad_const(0.2), 0.1, h_t_star=ht)
    expect = (
        empirical_risk(h, h1, T, zero_one())
        + empirical_risk(h1, h2, T, zero_one())
        + empirical_risk(h2, ht, T, zero_one())
        + 2 * 0.2
        + 2 * math.sqrt(math.log(2 / 0.1) / (2 * T.n))
    )
    assert rep.total == pytest.approx(expect, abs=1e-12)


def test_delta_monotonicity_of_confidence_terms():
    T, h, h1, h2, _ = _toy()
    rad = rad_const(0.0)
    prev = None
    for delta in (0.01, 0.05, 0.2, 0.5):
        c = bound_thm4(h, h1, h2, T, rad, delta).term("confidence")
        if prev is not None:
            assert c < prev
        prev = c


def test_thm6_margin_bound():
    # three points, k=3 scores; h agrees with h1 and margins exceed rho
    W = np.array([[1.0, 0.0, 0.0]])
    X = np.array([[3.0], [2.5], [4.0]])
    T = Dataset(X)
    h = linear_hypothesis(W, [0.0, 0.0, 0.0])
    rep = bound_thm6_margin(h, h, h, T, rho=1.0, rad_pi1=rad_const(0.05), delta=0.05)
    assert rep.term("target_margin_risk_h_vs_h1") == 0.0
    assert rep.term("phd") == 0.0
    # doubling rho halves the complexity coefficient
    r1 = bound_thm6_margin(h, h, h, T, rho=1.0, rad_pi1=rad_const(0.05), delta=0.05)
    r2 = bound_thm6_margin(h, h, h, T, rho=2.0, rad_pi1=rad_const(0.05), delta=0.05)
    assert r2.term("complexity_margin") == pytest.approx(r1.term("complexity_margin") / 2, rel=1e-12)


def test_thm6_margin_count_oracle():
    # scores: class gaps 0.5, 1.5, 2.5 against reference labels from h1
    W = np.eye(3)
    h1 = linear_hypothesis(W, [0.0, 0.0, 0.0])
    X = np.array([[0.5, 0.0, 0.0], [1.5, 0.0, 0.0], [2.5, 0.0, 0.0]])
    T = Dataset(X)
    rep = bound_thm6_margin(h1, h1, h1, T, rho=1.0, rad_pi1=rad_const(0.0), delta=0.5)
    # hand count: margins are 0.5, 1.5, 2.5 -> indicator(<=1) hits one row
    assert rep.term("target_margin_risk_h_vs_h1") == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(ContractError):
        bound_thm6_margin(h1, h1, h1, T, rho=0.0, rad_pi1=rad_const(0.0), delta=0.5)


def test_thm6_takes_k_from_the_hypotheses_and_rejects_mixed_class_counts():
    T = Dataset(np.array([[0.5, 0.0, 0.0], [1.5, 0.0, 0.0], [2.5, 0.0, 0.0]]))
    h3 = linear_hypothesis(np.eye(3), [0.0, 0.0, 0.0])
    h4 = linear_hypothesis(np.eye(3, 4), [0.0, 0.0, 0.0, 0.0])
    rep = bound_thm6_margin(h3, h3, h3, T, rho=2.0, rad_pi1=rad_const(0.1), delta=0.5)
    assert rep.term("complexity_margin") == pytest.approx(4.0 * 3 / 2.0 * 0.1, rel=1e-12)
    for h, h1, h2 in ((h4, h3, h3), (h3, h4, h3), (h3, h3, h4)):
        with pytest.raises(ContractError, match="class count"):
            bound_thm6_margin(h, h1, h2, T, rho=1.0, rad_pi1=rad_const(0.1), delta=0.5)


def test_risk_and_pair_terms_compare_hypotheses_of_one_class_count():
    T, h, h1, h2, ht = _toy()
    h3 = linear_hypothesis(np.eye(1, 3), np.zeros(3))
    rad = rad_const(0.0)
    calls = [
        lambda: bound_ineq1(h3, h1, T),
        lambda: bound_ineq2(h, h3, T, T, 0.1),
        lambda: bound_thm1(h, h1, h2, T, h_t_star=h3),
        lambda: bound_thm1(h, h1, h3, T),
        lambda: thm2_dev_report(h1, h2, h1, h3, T, rad),
        lambda: bound_thm3(h, h1, h2, h3, h2, T, rad),
        lambda: bound_thm4(h, h3, h2, T, rad),
    ]
    for call in calls:
        with pytest.raises(ContractError, match="classes|class count"):
            call()


@pytest.mark.parametrize("bound", ["thm2", "thm3", "thm4", "thm6"])
@pytest.mark.parametrize("rows,delta,error", [(6, 5.0, ContractError), (0, 0.05, DegenerateInputError)],
                         ids=["delta-5", "empty-target"])
def test_finite_sample_bounds_check_delta_and_the_sample_before_scoring(bound, rows, delta, error, monkeypatch):
    def no_scoring(*args, **kwargs):
        raise AssertionError("a term was scored before delta and the sample were checked")

    monkeypatch.setattr("phdkit.bounds.empirical_risk", no_scoring)
    monkeypatch.setattr("phdkit.bounds.phd", no_scoring)
    _, h, h1, h2, _ = _toy()
    T, rad = Dataset(np.arange(rows, dtype=float).reshape(-1, 1)), rad_const(0.1)
    call = {
        "thm2": lambda: thm2_dev_report(h1, h2, h1, h2, T, rad, delta),
        "thm3": lambda: bound_thm3(h, h1, h2, h1, h2, T, rad, delta),
        "thm4": lambda: bound_thm4(h, h1, h2, T, rad, delta),
        "thm6": lambda: bound_thm6_margin(h, h1, h2, T, 1.0, rad, delta),
    }[bound]
    with pytest.raises(error):
        call()


def test_lemma1_report_and_term_validation():
    rep = lemma1_report(1.0, 100, 0.05)
    assert rep.total == hoeffding_term(1.0, 100, 0.05)
    with pytest.raises(ContractError):
        Term("bad", -0.5)


def test_nan_term_is_rejected_not_zeroed():
    with pytest.raises(ContractError):
        Term("disc", float("nan"))


def test_every_report_total_is_exact_term_sum():
    T, h, h1, h2, ht = _toy()
    rad = rad_const(0.07)
    reports = [
        bound_ineq1(h, h1, T, h_t_star=ht),
        bound_thm1(h, h1, h2, T, h_t_star=ht),
        bound_ineq2(h, h1, T, T, 0.3, h_t_star=ht),
        bound_ineq3(h, h1, T, T, 0.4, h_t_star=ht),
        thm2_dev_report(h1, h2, h1, h2, T, rad),
        bound_thm3(h, h1, h2, h1, h2, T, rad, 0.05, h_t_star=ht),
        bound_thm4(h, h1, h2, T, rad, 0.05, h_t_star=ht),
    ]
    for rep in reports:
        assert abs(rep.total - math.fsum(t.value for t in rep.terms)) <= 1e-12
        assert all(t.value >= 0 for t in rep.terms)


def test_constant_class_risk_term_for_diagnostics():
    T, h, h1, h2, ht = _toy()
    rep = bound_thm4(h, h1, h2, T, rad_const(0.0), 0.05, h_t_star=constant_hypothesis(1, 1))
    diag = [t for t in rep.terms if t.diagnostic]
    assert len(diag) == 1
    expect = float(np.mean(predict(h2, T.X) != 1))
    assert diag[0].value == pytest.approx(expect, abs=1e-15)
