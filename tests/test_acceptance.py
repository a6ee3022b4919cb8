"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Protocol-scale criteria enforce their wall-clock budgets as assertions.
"""

import time

import numpy as np
import pytest

from phdkit.adapt import coral
from phdkit.bounds import bound_thm4, rademacher
from phdkit.cli import main as cli_main
from phdkit.data import Dataset, gen_gaussian_pair
from phdkit.discrepancy import (
    StumpClass,
    dh_adv,
    dh_exact,
    disc_exact,
    sdisc_adv,
    sdisc_exact,
    stump_erm,
    w1_exact,
)
from phdkit.models import (
    TrainConfig,
    accuracy,
    empirical_risk,
    grad_check,
    linear_arch,
    mlp_arch,
    train_erm,
    zero_one,
)
from phdkit.numkit import child_rng
from phdkit.protocols import (
    Fig2Config,
    Table1Config,
    Table2Config,
    Table3Config,
    run_fig2,
    run_table1,
    run_table2,
    run_table3,
)
from phdkit.tritrain import tritrain_round
from phdkit.tritrain import TriTrainConfig


def _line(idx, name, ok, detail):
    print(f"ACCEPTANCE {idx} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# The protocol-scale criteria as predicates of (report, wall seconds): each
# returns the pass or fail of its parts, and the criterion holds when all of
# them do. The tests below assert them at the default configs, and
# scripts/seed_windows.py applies the same predicates to other seed windows.


def table1_parts(rep: dict, elapsed: float) -> dict:
    """Criterion 1: at least 8 seeds satisfy the overestimation pattern, within 180 s."""
    return {"successes_at_least_8": rep["successes"] >= 8, "budget_180s": elapsed <= 180}


def table2_parts(rep: dict, elapsed: float) -> dict:
    """Criterion 2: at least 9 seeds have the pair bound below the source-guided one, within 180 s."""
    return {"successes_at_least_9": rep["successes"] >= 9, "budget_180s": elapsed <= 180}


def table3_parts(rep: dict, elapsed: float) -> dict:
    """Criterion 3: the unrelated-pair mean lies within the tolerance of 1 - 1/k, within 180 s."""
    return {"within_tolerance": rep["within_tolerance"], "budget_180s": elapsed <= 180}


def fig2_parts(rep: dict, elapsed: float) -> dict:
    """Criterion 8: the pair-discrepancy scores are non-decreasing in sigma and at
    least 4.0 at 0.5, the transport score at 0.5 is lower, and the accuracy at 0.5
    is at least the transport selection's, within 600 s."""
    s = rep["summary"]
    phd_scores = [s["phd"]["score_by_sigma"][k] for k in ("0.1", "0.3", "0.5")]
    return {
        "phd_scores_non_decreasing": all(b >= a for a, b in zip(phd_scores, phd_scores[1:])),
        "phd_score_at_0.5_at_least_4": phd_scores[-1] >= 4.0,
        "w1_score_below_phd_at_0.5": s["w1"]["score_by_sigma"]["0.5"] < phd_scores[-1],
        "phd_accuracy_at_least_w1_at_0.5": s["phd"]["accuracy_by_sigma"]["0.5"] >= s["w1"]["accuracy_by_sigma"]["0.5"],
        "budget_600s": elapsed <= 600,
    }


ACCEPTANCE = {"table1": table1_parts, "table2": table2_parts, "table3": table3_parts, "fig2": fig2_parts}


def test_criterion_1_overestimation_table1():
    t0 = time.time()
    rep = run_table1(Table1Config())
    elapsed = time.time() - t0
    _line(1, "overestimation", all(table1_parts(rep, elapsed).values()),
          f"{rep['successes']}/10 seeds satisfy the pattern "
          f"(stump measures <= 0.08, adversarial MLP >= 0.30, pair discrepancy <= 0.08); "
          f"{elapsed:.0f}s (budget 180s); means={ {k: round(v, 4) for k, v in rep['means'].items()} }")


def test_criterion_2_bound_tightness_table2():
    t0 = time.time()
    rep = run_table2(Table2Config())
    elapsed = time.time() - t0
    _line(2, "bound tightness", all(table2_parts(rep, elapsed).values()),
          f"{rep['successes']}/10 seeds have pair-hypotheses total < source-guided total; "
          f"{elapsed:.0f}s (budget 180s); mean totals "
          f"{rep['means']['thm1_total']:.4f} vs {rep['means']['ineq2_total']:.4f}")


def test_criterion_3_unrelated_domains_table3():
    t0 = time.time()
    rep = run_table3(Table3Config())
    elapsed = time.time() - t0
    _line(3, "different domains", all(table3_parts(rep, elapsed).values()),
          f"mean pair discrepancy {rep['mean_phd_unrelated']:.4f} within 0.15 of "
          f"random-guess level {rep['random_guess_level']:.2f} "
          f"(identical-domain mean {rep['mean_phd_identical']:.4f}); {elapsed:.0f}s (budget 180s)")


def test_criterion_4_supremum_oracle_equivalence():
    adv_cfg = TrainConfig(epochs=60, batch_size=32, lr=1e-2)
    worst_gap = 0.0
    for seed in range(5):
        rng = child_rng(100 + seed)
        S = Dataset(rng.normal(0.0, 1.0, (40, 1)))
        T = Dataset(rng.normal(9.0 + seed, 1.0, (40, 1)))
        cls = StumpClass.from_data(S, T)
        gap_dh = abs(dh_adv(S, T, linear_arch(1), adv_cfg).value - dh_exact(S, T, cls).value)
        y = (S.X[:, 0] > np.median(S.X[:, 0])).astype(int)
        hS = stump_erm(cls, Dataset(S.X, y, 2))
        gap_sd = abs(sdisc_adv(S, T, hS, linear_arch(1), adv_cfg).value
                     - sdisc_exact(S, T, hS, cls).value)
        worst_gap = max(worst_gap, gap_dh, gap_sd)
    ok_adv = worst_gap <= 0.05

    rng = child_rng(200)
    violations = 0
    for _ in range(100):
        S = Dataset(rng.standard_normal((10, 2)))
        T = Dataset(rng.standard_normal((10, 2)) + 0.3 * rng.standard_normal(2))
        cls = StumpClass.from_data(S, T)
        hS = stump_erm(cls, Dataset(S.X, (rng.random(10) > 0.5).astype(int), 2))
        sd = sdisc_exact(S, T, hS, cls).value
        dc = disc_exact(S, T, cls).value
        if not (dc + 1e-9 >= sd >= -1e-12):
            violations += 1
    ok = ok_adv and violations == 0
    _line(4, "supremum oracles", ok,
          f"adversarial vs exact worst gap {worst_gap:.4f} (<= 0.05) on separable instances; "
          f"{violations}/100 ordering violations (disc >= s-disc >= 0)")


def _stump_erm_on_draw(n, seed, blob_std=1.2):
    D, _ = gen_gaussian_pair(n, 1, seed=seed, blob_std=blob_std)
    return stump_erm(StumpClass.from_data(D), D), D


def test_criterion_5_deviation_shrinks_with_n():
    grid = (50, 200, 800, 3200)
    medians = {}
    for n in grid:
        devs = []
        for seed in range(50):
            base = 17 * seed + n
            h1_hat, _ = _stump_erm_on_draw(n, base)
            h2_hat, _ = _stump_erm_on_draw(n, base + 1)
            h1_star, _ = _stump_erm_on_draw(20 * n, base + 2)
            h2_star, _ = _stump_erm_on_draw(20 * n, base + 3)
            T, _ = gen_gaussian_pair(n, 1, seed=base + 4, blob_std=1.2)
            E, _ = gen_gaussian_pair(20 * n, 1, seed=base + 5, blob_std=1.2)
            phd_hat = empirical_risk(h1_hat, h2_hat, T, zero_one())
            phd_star = empirical_risk(h1_star, h2_star, E, zero_one())
            devs.append(abs(phd_hat - phd_star))
        medians[n] = float(np.median(devs))
    decreasing = all(medians[a] >= medians[b] - 1e-9 for a, b in zip(grid, grid[1:]))
    halved = medians[3200] <= 0.5 * medians[200]
    ok = decreasing and halved
    _line(5, "estimator convergence", ok,
          f"median |empirical - star| by n: "
          f"{ {n: round(m, 4) for n, m in medians.items()} }; "
          f"monotone={decreasing}, n=3200 vs n=200 halving={halved}")


def test_criterion_6_thm4_validity_sweep():
    delta, trials, n_t = 0.05, 200, 120
    violations = 0
    for seed in range(trials):
        base = 10_000 + 31 * seed
        h1, _ = _stump_erm_on_draw(n_t, base)
        h2, _ = _stump_erm_on_draw(n_t, base + 1)
        h, _ = _stump_erm_on_draw(n_t, base + 2)
        T, _ = gen_gaussian_pair(n_t, 1, seed=base + 3, blob_std=1.2)
        h_t_star, _ = _stump_erm_on_draw(20 * n_t, base + 4)
        E, _ = gen_gaussian_pair(4000, 1, seed=base + 5, blob_std=1.2)
        rad = rademacher(T, StumpClass.from_data(T), draws=60, seed=seed)
        rhs = bound_thm4(h, h1, h2, T.without_labels(), rad, delta,
                         h_t_star=h_t_star, oracle_T=E).total
        lhs = (empirical_risk(h, None, E, zero_one())
               - empirical_risk(h_t_star, None, E, zero_one()))
        violations += lhs > rhs
    rate = violations / trials
    ok = rate <= 0.09
    _line(6, "fixed-pair bound validity", ok,
          f"violation rate {rate:.3f} over {trials} trials at delta={delta} (allowed 0.09)")


def test_criterion_7_tritrain():
    wins, total = 0, 10
    for seed in range(total):
        S, T = gen_gaussian_pair(400, 2, seed=seed)
        # the zero pair-discrepancy assertion on the agreement set is a hard
        # check inside every round of tritrain_round
        res = tritrain_round(S, T, linear_arch(2),
                             TriTrainConfig(base=TrainConfig(epochs=40, batch_size=64),
                                            emit_bounds=False),
                             rounds=2, seed=seed)
        h_src = train_erm(S, linear_arch(2), TrainConfig(epochs=40, batch_size=64, seed=seed))
        wins += accuracy(res.h, T) >= accuracy(h_src, T)
    ok = wins >= 8
    _line(7, "tri-training", ok,
          f"agreement-set pair discrepancy exactly 0 in every round (hard assertion); "
          f"tri-trained matches or beats source-only in {wins}/{total} paired seeds")


def test_criterion_8_source_selection_fig2():
    t0 = time.time()
    rep = run_fig2(Fig2Config())
    elapsed = time.time() - t0
    parts = fig2_parts(rep, elapsed)
    s = rep["summary"]
    phd_scores = [s["phd"]["score_by_sigma"][k] for k in ("0.1", "0.3", "0.5")]
    _line(8, "source selection", all(parts.values()),
          f"pair-discrepancy scores by sigma {phd_scores} "
          f"(non-decreasing={parts['phd_scores_non_decreasing']}, >=4.0 at 0.5), "
          f"transport score at 0.5 = {s['w1']['score_by_sigma']['0.5']} (lower), accuracy "
          f"{s['phd']['accuracy_by_sigma']['0.5']:.4f} vs {s['w1']['accuracy_by_sigma']['0.5']:.4f}; "
          f"{elapsed:.0f}s (budget 600s)")


def test_criterion_9_numerical_substrate():
    rng = child_rng(5)
    probe_b = Dataset(rng.standard_normal((4, 3)), np.array([0, 1, 1, 0]), 2)
    probe_m = Dataset(rng.standard_normal((5, 3)), np.array([0, 2, 1, 1, 0]), 3)
    lin_err = grad_check(linear_arch(3), probe_b)
    mlp_err = grad_check(mlp_arch(3, (8, 8), batch_norm=True), probe_b)
    mlp_ce_err = grad_check(mlp_arch(3, (8, 8), out_dim=3, batch_norm=True), probe_m)
    ok_grad = lin_err < 1e-6 and mlp_err < 1e-4 and mlp_ce_err < 1e-4

    worst = 0.0
    for _ in range(100):
        A = Dataset(rng.standard_normal((12, 3)))
        B = Dataset(rng.standard_normal((12, 3)))
        C = Dataset(rng.standard_normal((12, 3)))
        ab, ba = w1_exact(A, B).value, w1_exact(B, A).value
        worst = max(worst, abs(ab - ba), w1_exact(A, A).value,
                    ab - w1_exact(A, C).value - w1_exact(C, B).value)
    ok_w1 = worst <= 1e-9

    S, T = gen_gaussian_pair(1000, 3, shift=1.0, rotate=0.3, seed=1)
    out = coral(S, T)
    Cs, Ct = np.cov(out.X, rowvar=False), np.cov(T.X, rowvar=False)
    rel = np.linalg.norm(Cs - Ct) / np.linalg.norm(Ct)
    X = rng.standard_normal((300, 3))
    ident = coral(Dataset(X), Dataset(X[rng.permutation(300)]))
    ident_err = float(np.max(np.abs(ident.X - X)))
    ok_coral = rel <= 0.05 and ident_err <= 1e-6

    ok = ok_grad and ok_w1 and ok_coral
    _line(9, "numerical substrate", ok,
          f"grad-check lin {lin_err:.2e} (<1e-6), mlp {mlp_err:.2e} / {mlp_ce_err:.2e} (<1e-4); "
          f"transport metric-axiom worst slack {worst:.2e} (<=1e-9); "
          f"alignment cov rel err {rel:.4f} (<=0.05), identity err {ident_err:.2e} (<=1e-6)")


@pytest.mark.parametrize("protocol,overrides", [
    ("table1", ["seeds=0", "n=200", "epochs=4", "adv_epochs=4", "ssl_rounds=1"]),
    ("table2", ["seeds=0", "n=200", "epochs=4", "adv_epochs=4", "ssl_rounds=1"]),
    ("table3", ["seeds=0", "n=150", "epochs=4", "ssl_rounds=1"]),
    ("fig2", ["seeds=0", "sigmas=0.5", "n_source=80", "n_target=200", "epochs=4", "ssl_rounds=1"]),
])
def test_criterion_10_repro_determinism(tmp_path, protocol, overrides):
    args = ["repro", protocol]
    for ov in overrides:
        args += ["--set", ov]
    assert cli_main(["--seed", "7", "--out", str(tmp_path / "a")] + args) == 0
    assert cli_main(["--seed", "7", "--out", str(tmp_path / "b")] + args) == 0
    name = f"repro_{protocol}_report.json"
    ra = (tmp_path / "a" / name).read_bytes()
    rb = (tmp_path / "b" / name).read_bytes()
    ok = ra == rb
    _line(10, f"determinism ({protocol})", ok,
          f"two runs with one seed produced byte-identical reports ({len(ra)} bytes)")
