import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from phdkit import discrepancy
from phdkit.bounds import rademacher
from phdkit.data import Dataset, gen_gaussian_pair
from phdkit.discrepancy import (
    PAIR_BLOCK_BYTES,
    DiscrepancyReport,
    StumpClass,
    _scan_plan,
    _scan_threshold_gap,
    _split_halves,
    _threshold_errors,
    dh_adv,
    dh_exact,
    disc_exact,
    l1_hist,
    phd,
    sdisc_adv,
    sdisc_exact,
    stump_erm,
    w1_exact,
)
from phdkit.errors import CapacityError, ConfigError, ContractError
from phdkit.models import (
    TRAIN_DTYPE,
    Arch,
    TrainConfig,
    _Workspace,
    constant_hypothesis,
    linear_arch,
    linear_hypothesis,
    margin,
    mlp_arch,
    predict,
    scores,
    stump_hypothesis,
    train_erm_traced,
)
from phdkit.numkit import child_rng


def d1(*vals):
    return Dataset(np.asarray(vals, float).reshape(-1, 1))


def random_instance(rng, n=16, d=2, spread=2.0):
    S = Dataset(spread * rng.standard_normal((n, d)))
    T = Dataset(spread * rng.standard_normal((n, d)) + 0.3 * rng.standard_normal(d))
    return S, T


# --- paired hypotheses discrepancy -------------------------------------------


def test_phd_identical_hypotheses_zero():
    T = d1(0.0, 1.0, 2.0)
    h = stump_hypothesis(0, 0.5, 1, 1)
    assert phd(h, h, T).value == 0.0


def test_phd_opposite_constants_one():
    T = d1(0.0, 1.0, 2.0)
    assert phd(constant_hypothesis(1, 1), constant_hypothesis(1, 0), T).value == 1.0


def test_phd_half_disagreement():
    T = d1(1.0, 2.0, 3.0, 4.0)
    h1 = stump_hypothesis(0, 2.5, -1, 1)  # 1,1,0,0
    h2 = stump_hypothesis(0, 1.5, -1, 1)  # 1,0,0,0 -> differs on x=2 only
    assert phd(h1, h2, T).value == 0.25
    h3 = stump_hypothesis(0, 3.5, 1, 1)   # 0,0,0,1
    assert phd(h1, h3, T).value == 0.75


def test_phd_symmetric_and_triangle():
    rng = child_rng(0)
    T = Dataset(rng.standard_normal((40, 2)))
    hs = [stump_hypothesis(int(rng.integers(0, 2)), float(rng.normal()), int(rng.choice([-1, 1])), 2)
          for _ in range(6)]
    for a in hs:
        for b in hs:
            assert phd(a, b, T).value == phd(b, a, T).value
            for c in hs:
                assert phd(a, c, T).value <= phd(a, b, T).value + phd(b, c, T).value + 1e-12


# --- exact suprema ------------------------------------------------------------


def brute_sup_vs_reference(S, T, cls, ref_fn):
    best = 0.0
    for h in cls.hypotheses():
        rs = float(np.mean(predict(h, S.X) != ref_fn(S)))
        rt = float(np.mean(predict(h, T.X) != ref_fn(T)))
        best = max(best, abs(rt - rs))
    return best


def test_phd_pairs_hypotheses_of_one_class_count():
    T = Dataset(np.array([[0.5, 0.0], [1.5, 1.0], [2.5, 3.0]]))
    h2 = stump_hypothesis(0, 1.0, 1, 1)
    h3, h5 = (linear_hypothesis(np.eye(2, k), np.zeros(k)) for k in (3, 5))
    for a, b, loss in ((h2, h5, None), (h3, h5, margin(1.0)), (h5, h3, None)):
        with pytest.raises(ContractError, match="class count"):
            phd(a, b, T, loss)
    assert phd(h3, h3, T, margin(1.0)).value == 1.0  # each row's top two scores are 0.5 apart


def test_sdisc_exact_is_binary_only():
    S, T = Dataset(np.array([[0.0], [1.0]])), Dataset(np.array([[0.5], [2.0]]))
    h3 = linear_hypothesis(np.eye(1, 3), np.zeros(3))
    with pytest.raises(ContractError, match="binary only"):
        sdisc_exact(S, T, h3, StumpClass.from_data(S, T))


def test_same_sample_all_measures_zero():
    S = d1(0.0, 1.0, 2.0, 5.0)
    cls = StumpClass.from_data(S, S)
    hS = stump_erm(cls, Dataset(S.X, np.array([0, 0, 1, 1]), 2))
    assert dh_exact(S, S, cls).value == 0.0
    assert sdisc_exact(S, S, hS, cls).value == 0.0
    assert disc_exact(S, S, cls).value == 0.0


def test_separated_1d_dh_is_one():
    S, T = d1(0.0, 1.0), d1(10.0, 11.0)
    cls = StumpClass.from_data(S, T)
    assert dh_exact(S, T, cls).value == 1.0
    assert disc_exact(S, T, cls).value == 1.0


def test_dh_exact_matches_brute_force():
    rng = child_rng(1)
    for _ in range(10):
        S, T = random_instance(rng, n=14, d=2)
        cls = StumpClass.from_data(S, T)
        assert dh_exact(S, T, cls).value == pytest.approx(
            brute_sup_vs_reference(S, T, cls, lambda D: np.ones(D.n, dtype=int)), abs=1e-12)


def test_sdisc_exact_matches_brute_force():
    rng = child_rng(2)
    for _ in range(10):
        S, T = random_instance(rng, n=12, d=2)
        hS = stump_hypothesis(0, float(rng.normal()), 1, 2)
        cls = StumpClass.from_data(S, T)
        assert sdisc_exact(S, T, hS, cls).value == pytest.approx(
            brute_sup_vs_reference(S, T, cls, lambda D: predict(hS, D.X)), abs=1e-12)


def brute_disc(S, T, cls):
    hs = cls.hypotheses()
    best = 0.0
    for h in hs:
        ps, pt = predict(h, S.X), predict(h, T.X)
        for g in hs:
            qs, qt = predict(g, S.X), predict(g, T.X)
            best = max(best, abs(float(np.mean(pt != qt)) - float(np.mean(ps != qs))))
    return best


def test_disc_exact_matches_double_loop_oracle():
    rng = child_rng(3)
    for _ in range(4):
        S, T = random_instance(rng, n=8, d=2)
        cls = StumpClass.from_data(S, T)
        assert disc_exact(S, T, cls).value == pytest.approx(brute_disc(S, T, cls), abs=1e-6)


def full_member_gap(S, T, cls):
    """|risk_T - risk_S| of every ordered member pair, from the m x m Gram of
    every member's signed predictions."""
    Ps = cls.prediction_matrix(S.X).astype(np.float32)
    Pt = cls.prediction_matrix(T.X).astype(np.float32)
    Rs = (1.0 - (Ps @ Ps.T) / S.n) / 2.0
    Rt = (1.0 - (Pt @ Pt.T) / T.n) / 2.0
    return np.abs(Rt - Rs)


def full_member_gram_disc(S, T, cls):
    """disc over the full member gap, with the first row-major maximum as
    the reported pair."""
    gap = full_member_gap(S, T, cls)
    i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
    members = list(cls.members())
    return DiscrepancyReport("disc", float(gap[i, j]), "exact-enumeration",
                             details={"pair": [list(members[i]), list(members[j])]},
                             n_source=S.n, n_target=T.n)


DISC_KINDS = ("gaussian", "ties", "constant-columns", "all-constant", "adjacent-floats", "same-sample")


def disc_instance(rng, kind):
    d = int(rng.integers(2, 7))
    ns, nt = (int(v) for v in rng.integers(1, 25, size=2))
    X = rng.standard_normal((ns + nt, d))
    if kind == "ties":
        X = np.round(X)
    elif kind == "constant-columns":
        X[:, rng.random(d) < 0.5] = 1.5
    elif kind == "all-constant":
        X[:] = 0.25
    elif kind == "adjacent-floats":  # the midpoint of 1.0 and its successor rounds to 1.0
        X = 1.0 + rng.integers(0, 2, X.shape) * np.spacing(1.0)
    S = Dataset(X[:ns])
    return (S, S) if kind == "same-sample" else (S, Dataset(X[ns:]))


def block_instances():
    """(kind, S, T) whose polarity +1 members span three or more of
    disc_exact's blocks of first members."""
    rng = child_rng(24)
    X = rng.standard_normal((500, 1))
    X[250:] += 0.5
    X = np.hstack([X, X])  # a duplicate column: each member's row recurs 499 rows on
    yield "tie-across-blocks", Dataset(X[:250]), Dataset(X[250:])
    x = np.sort(rng.random(600))
    t = x.copy()
    t[(x > 0.85) & (x < 0.86)] -= 0.01  # the CDF gap rises here and falls back past 0.95,
    t[(x > 0.95) & (x < 0.96)] += 0.01  # so only pairs of top thresholds reach its range
    flags = (rng.random(600) < 0.5).astype(float)
    yield "last-partial-block", Dataset(np.column_stack([flags, x])), Dataset(np.column_stack([flags, t]))
    B = (rng.random((80, 600)) < 0.5).astype(float)
    B[40:] = rng.random((40, 600)) < 0.3
    yield "one-threshold-features", Dataset(B[:40]), Dataset(B[40:])


def test_disc_exact_matches_the_full_member_gram():
    rng = child_rng(12)
    unequal = 0
    for i in range(240):
        S, T = disc_instance(rng, DISC_KINDS[i % len(DISC_KINDS)])
        unequal += S.n != T.n
        cls = StumpClass.from_data(S, T)
        assert disc_exact(S, T, cls).to_dict() == full_member_gram_disc(S, T, cls).to_dict()
    assert unequal > 100
    for kind, S, T in block_instances():
        cls = StumpClass.from_data(S, T)
        h = cls.size // 2
        rows = PAIR_BLOCK_BYTES // (2 * 4 * h)
        assert 1 <= rows and 2 * rows < h, kind
        row_max = full_member_gap(S, T, cls).max(axis=1)[0::2]
        blocks = set(np.flatnonzero(row_max == row_max.max()) // rows)  # blocks of the rows at the maximum
        if kind == "tie-across-blocks":
            assert len(blocks) > 1
        elif kind == "last-partial-block":
            assert blocks == {(h - 1) // rows} and h % rows
        assert disc_exact(S, T, cls).to_dict() == full_member_gram_disc(S, T, cls).to_dict(), kind


@pytest.mark.parametrize("block_rows", [1, 2, 5])
def test_disc_exact_bits_do_not_depend_on_the_block_size(monkeypatch, block_rows):
    rng = child_rng(25)
    for i in range(30):
        S, T = disc_instance(rng, DISC_KINDS[i % len(DISC_KINDS)])
        cls = StumpClass.from_data(S, T)
        monkeypatch.setattr(discrepancy, "PAIR_BLOCK_BYTES", 2 * 4 * block_rows * (cls.size // 2))
        assert disc_exact(S, T, cls).to_dict() == full_member_gram_disc(S, T, cls).to_dict()


def test_disc_exact_memory_stays_below_the_pair_arrays():
    S, T = gen_gaussian_pair(300, 2, shift=0.25, rotate=0.3, seed=1)  # the shape of the benchmark's disc command
    cls = StumpClass.from_data(S, T)
    assert cls.size == 2398  # two 2 x 1,199 x 1,199 float32 risk arrays would take 23 MiB
    tracemalloc.start()
    try:
        disc_exact(S, T, cls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def degenerate_stump_instances():
    """disc_instance's degenerate kinds, then d = 1 with one constant column."""
    rng = child_rng(21)
    kinds = DISC_KINDS[1:]
    for i in range(60):
        yield kinds[i % len(kinds)], disc_instance(rng, kinds[i % len(kinds)])
    yield "constant-1d", (Dataset(np.full((5, 1), 2.0)), Dataset(np.full((3, 1), 2.0)))


def member_labels(cls, X):
    """Each member's labels as the scans count them, one row per member:
    1{x_j >= t} at polarity +1, its complement at -1, then the constants."""
    return np.array([np.full(X.shape[0], pol > 0) if j < 0 else (X[:, j] >= t) == (pol > 0)
                     for j, t, pol in cls.members()], dtype=np.int64)


def test_stump_scans_match_enumeration_on_degenerate_columns():
    rng = child_rng(22)
    for kind, (S, T) in degenerate_stump_instances():
        cls = StumpClass.from_data(S, T)
        hs = cls.hypotheses()
        Ls, Lt = member_labels(cls, S.X), member_labels(cls, T.X)
        assert all(np.array_equal(predict(h, S.X), row) for h, row in zip(hs, Ls))
        assert all(np.array_equal(predict(h, T.X), row) for h, row in zip(hs, Lt))

        def sup_gap(ref_s, ref_t):
            return float(np.abs((Lt != ref_t).mean(axis=1) - (Ls != ref_s).mean(axis=1)).max())

        assert dh_exact(S, T, cls).value == pytest.approx(sup_gap(1, 1), abs=1e-12)
        hS = hs[int(rng.integers(len(hs)))]
        assert sdisc_exact(S, T, hS, cls).value == pytest.approx(
            sup_gap(predict(hS, S.X), predict(hS, T.X)), abs=1e-12)
        y = rng.integers(0, 2, S.n)
        h = stump_erm(cls, Dataset(S.X, y, 2))
        (k,) = [k for k, g in enumerate(hs) if np.array_equal(g.params, h.params)]
        risks = (Ls != y).mean(axis=1)
        assert risks[k] == pytest.approx(risks.min(), abs=1e-12)
        draws, seed = 5, int(rng.integers(100))
        signed = 2 * member_labels(StumpClass.from_data(T), T.X) - 1
        vals = [float((signed @ child_rng(seed, 9, k).choice([-1.0, 1.0], size=T.n)).max()) / T.n
                for k in range(draws)]
        assert rademacher(T, StumpClass.from_data(T), draws=draws, seed=seed).value == pytest.approx(
            math.fsum(vals) / draws, abs=1e-12)
        if cls.d == 1:
            pair_gap = np.abs((Lt[:, None] != Lt[None]).mean(axis=2) - (Ls[:, None] != Ls[None]).mean(axis=2))
            assert disc_exact(S, T, cls).value == pytest.approx(float(pair_gap.max()), abs=1e-12)


def test_disc_exact_1d_closed_form_matches_oracle():
    rng = child_rng(4)
    for _ in range(6):
        S, T = random_instance(rng, n=10, d=1)
        cls = StumpClass.from_data(S, T)
        assert disc_exact(S, T, cls).value == pytest.approx(brute_disc(S, T, cls), abs=1e-12)


def test_supremum_orderings_hold_on_random_instances():
    rng = child_rng(5)
    for _ in range(100):
        S, T = random_instance(rng, n=10, d=2)
        cls = StumpClass.from_data(S, T)
        y = (rng.random(10) > 0.5).astype(int)
        hS = stump_erm(cls, Dataset(S.X, y, 2))
        dh = dh_exact(S, T, cls).value
        sd = sdisc_exact(S, T, hS, cls).value
        dc = disc_exact(S, T, cls).value
        assert dc + 1e-9 >= sd >= 0.0
        assert dc + 1e-9 >= dh


def test_scan_plan_counts_equal_brute_force_mistakes():
    rng = np.random.default_rng(8)
    x = rng.integers(-5, 6, size=300).astype(float)  # many ties
    u = np.unique(x)
    t = np.concatenate([[u[0] - 1.0], (u[:-1] + u[1:]) / 2.0, u, [u[-1] + 1.0]])
    plan = _scan_plan(x, t)
    for _ in range(20):
        ref = rng.integers(0, 2, size=x.shape[0])
        brute = np.array([np.sum((x >= c).astype(int) != ref) for c in t])
        assert np.array_equal(_threshold_errors(plan, ref), brute)


def test_stump_erm_matches_enumeration():
    rng = child_rng(6)
    for _ in range(8):
        X = rng.standard_normal((15, 2))
        y = (rng.random(15) > 0.4).astype(int)
        D = Dataset(X, y, 2)
        cls = StumpClass.from_data(D)
        h = stump_erm(cls, D)
        best = min(float(np.mean(predict(g, X) != y)) for g in cls.hypotheses())
        assert float(np.mean(predict(h, X) != y)) == pytest.approx(best, abs=1e-12)


def test_prediction_matrix_consistent_with_hypotheses():
    rng = child_rng(7)
    S = Dataset(rng.standard_normal((9, 2)))
    cls = StumpClass.from_data(S)
    P = cls.prediction_matrix(S.X)
    for row, h in zip(P, cls.hypotheses()):
        signed = np.where(predict(h, S.X) == 1, 1, -1)
        assert np.array_equal(row, signed)


# --- adversarial estimators ---------------------------------------------------


def _adv_cfg(seed=0):
    return TrainConfig(epochs=60, batch_size=32, lr=1e-2, seed=seed)


def test_adv_identical_sample_is_tiny():
    S = Dataset(child_rng(8).standard_normal((60, 1)))
    rep = dh_adv(S, S, linear_arch(1), _adv_cfg())
    assert rep.value <= 0.05


def test_adv_matches_exact_on_separable_instance():
    S, T = d1(*child_rng(9).normal(0, 1, 30)), d1(*child_rng(10).normal(10, 1, 30))
    cls = StumpClass.from_data(S, T)
    exact = dh_exact(S, T, cls).value
    est = dh_adv(S, T, linear_arch(1), _adv_cfg()).value
    assert exact == 1.0
    assert abs(est - exact) <= 0.05


def test_adv_statistic_never_exceeds_exact_supremum_same_split():
    rng = child_rng(11)
    for seed in range(6):
        S = Dataset(rng.standard_normal((40, 1)))
        T = Dataset(rng.standard_normal((40, 1)) + rng.normal(0, 1.5))
        cls = StumpClass.from_data(S, T)
        est = dh_adv(S, T, linear_arch(1), _adv_cfg(seed)).value
        assert est <= dh_exact(S, T, cls).value + 1e-12


def test_sdisc_adv_identical_sample_small_and_separable_close_to_exact():
    rng = child_rng(12)
    S = Dataset(rng.standard_normal((60, 1)))
    hS = stump_hypothesis(0, 0.0, 1, 1)
    assert sdisc_adv(S, S, hS, linear_arch(1), _adv_cfg()).value <= 0.05
    A, B = d1(*rng.normal(0, 1, 30)), d1(*rng.normal(8, 1, 30))
    cls = StumpClass.from_data(A, B)
    exact = sdisc_exact(A, B, hS, cls).value
    est = sdisc_adv(A, B, hS, linear_arch(1), _adv_cfg()).value
    assert abs(est - exact) <= 0.05


def test_adv_heldout_mode_reports_on_evaluation_halves():
    rng = child_rng(13)
    S = Dataset(rng.standard_normal((41, 2)))
    T = Dataset(rng.standard_normal((30, 2)) + 0.5)
    arch = mlp_arch(2, (8,), batch_norm=False)
    cfg = TrainConfig(epochs=5, batch_size=16, lr=1e-2, seed=3)
    hS = stump_hypothesis(0, 0.0, 1, 2)
    runs = {
        "dh": (lambda: dh_adv(S, T, arch, cfg, eval_mode="heldout"), ("source-as-1", "source-as-0")),
        "sdisc": (lambda: sdisc_adv(S, T, hS, arch, cfg, eval_mode="heldout"),
                  ("agree-on-source", "agree-on-target", "constant")),
    }
    for run, directions in runs.values():
        rep = run()
        assert (rep.n_source, rep.n_target) == (41 - 41 // 2, 30 - 30 // 2)
        assert rep.details["eval_mode"] == "heldout"
        stats = {d: rep.details[f"stat_{d}"] for d in directions}
        assert rep.value == max(stats.values())
        assert rep.details["direction"] in directions
        assert run().to_dict() == rep.to_dict()


def per_direction_adv(S, T, hS, arch, cfg, eval_mode):
    """The adversarial estimate with one ``train_erm_traced`` call per
    direction, one after the other: ``dh_adv`` without ``hS``, else
    ``sdisc_adv``. Returns the expected (value, details)."""
    if hS is None:
        ref, stream, directions = (lambda X: np.ones(X.shape[0], dtype=np.int64)), 6, ("source-as-1", "source-as-0")
    else:
        ref, stream, directions = (lambda X: predict(hS, X)), 7, ("agree-on-source", "agree-on-target")
    if eval_mode == "heldout":
        rng = child_rng(cfg.seed, stream)
        (S_fit, S_eval), (T_fit, T_eval) = _split_halves(S, rng), _split_halves(T, rng)
    else:
        S_fit, S_eval, T_fit, T_eval = S, S, T, T
    ref_sf, ref_tf, ref_se, ref_te = ref(S_fit.X), ref(T_fit.X), ref(S_eval.X), ref(T_eval.X)
    ws = _Workspace(TRAIN_DTYPE)

    def witness(h):
        return -_scan_threshold_gap(scores(h, S_eval.X, ws)[:, 0], ref_se, scores(h, T_eval.X, ws)[:, 0], ref_te)

    stats = {}
    for k, direction in enumerate(directions):
        ys, yt = (ref_sf, 1 - ref_tf) if k == 0 else (1 - ref_sf, ref_tf)
        D = Dataset(np.vstack([S_fit.X, T_fit.X]), np.concatenate([ys, yt]), 2)
        _, trace = train_erm_traced(D, arch, replace(cfg, seed=cfg.seed + k), metric=witness)
        stats[direction] = -trace[-1]
    if hS is not None:
        stats["constant"] = abs(float(np.mean(ref_te == 0)) - float(np.mean(ref_se == 0)))
    best = max(stats, key=lambda k: stats[k])
    return stats[best], {"direction": best, **{f"stat_{k}": v for k, v in stats.items()}, "eval_mode": eval_mode}


@pytest.mark.parametrize("eval_mode", ["insample", "heldout"])
@pytest.mark.parametrize("arch", [linear_arch(4), Arch(4, (8, 8), 1, batch_norm=True)], ids=["linear", "bn-mlp"])
@pytest.mark.parametrize("seed", [0, 5])
def test_lockstep_adv_reports_equal_the_per_direction_loop(eval_mode, arch, seed):
    rng = child_rng(14, seed)
    S = Dataset(rng.standard_normal((45, 4)))
    T = Dataset(rng.standard_normal((38, 4)) + 0.4)
    cfg = TrainConfig(epochs=6, batch_size=16, lr=2e-2, seed=seed)
    hS = linear_hypothesis(rng.standard_normal(4), 0.1)
    for rep, source_h in ((dh_adv(S, T, arch, cfg, eval_mode), None),
                          (sdisc_adv(S, T, hS, arch, cfg, eval_mode), hS)):
        value, details = per_direction_adv(S, T, source_h, arch, cfg, eval_mode)
        assert (rep.value, rep.details) == (value, details)
        assert float(rep.value).hex() == float(value).hex()


# --- transport and histogram distances ---------------------------------------


def test_w1_identical_zero():
    S = d1(0.0, 1.0, 2.0)
    assert w1_exact(S, S).value == 0.0


def test_w1_single_mass():
    assert w1_exact(d1(0.0), d1(3.0)).value == 3.0


def test_w1_sorted_matching_oracle():
    assert w1_exact(d1(0.0, 2.0), d1(1.0, 3.0)).value == pytest.approx(1.0, abs=1e-15)


def test_w1_1d_equals_mean_sorted_difference():
    rng = child_rng(13)
    a, b = rng.normal(0, 1, 33), rng.normal(0.5, 2, 33)
    expect = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
    assert w1_exact(d1(*a), d1(*b)).value == pytest.approx(expect, abs=1e-12)


def test_w1_assignment_matches_brute_matching():
    rng = child_rng(14)
    A = Dataset(rng.standard_normal((7, 3)))
    B = Dataset(rng.standard_normal((7, 3)))
    cost = cdist(A.X, B.X)
    r, c = linear_sum_assignment(cost)
    assert w1_exact(A, B).value == pytest.approx(cost[r, c].sum() / 7, abs=1e-12)


def test_w1_metric_axioms_on_random_triples():
    rng = child_rng(15)
    for _ in range(100):
        A = Dataset(rng.standard_normal((12, 3)))
        B = Dataset(rng.standard_normal((12, 3)))
        C = Dataset(rng.standard_normal((12, 3)))
        ab = w1_exact(A, B).value
        ba = w1_exact(B, A).value
        assert abs(ab - ba) <= 1e-9
        assert w1_exact(A, A).value <= 1e-9
        assert ab <= w1_exact(A, C).value + w1_exact(C, B).value + 1e-9


def test_w1_capacity_error():
    rng = child_rng(16)
    A = Dataset(rng.standard_normal((600, 2)))
    with pytest.raises(CapacityError):
        w1_exact(A, A, cap=512)


@pytest.mark.parametrize("cap", [0, -1])
def test_w1_cap_below_one_is_a_config_error(cap):
    A = Dataset(child_rng(16).standard_normal((5, 2)))
    with pytest.raises(ConfigError, match="cap"):
        w1_exact(A, A, cap=cap)


def test_w1_dim_mismatch():
    with pytest.raises(ContractError):
        w1_exact(d1(0.0), Dataset(np.zeros((1, 2))))


def test_pair_measures_reject_mismatched_feature_counts():
    S, T = Dataset(np.zeros((4, 1)), np.array([0, 1, 0, 1]), 2), Dataset(np.ones((4, 2)))
    cls = StumpClass.from_data(S)
    hS = stump_hypothesis(0, 0.5, 1, 1)
    cfg = TrainConfig(epochs=1, batch_size=8)
    calls = [
        lambda: StumpClass.from_data(S, T),
        lambda: dh_exact(S, T, cls),
        lambda: sdisc_exact(S, T, hS, cls),
        lambda: disc_exact(S, T, cls),
        lambda: dh_adv(S, T, linear_arch(1), cfg),
        lambda: sdisc_adv(S, T, hS, linear_arch(1), cfg),
        lambda: l1_hist(S, T),
    ]
    for call in calls:
        with pytest.raises(ContractError, match="feature"):
            call()


def brute_l1_hist(S, T, bins):
    pooled = np.vstack([S.X, T.X])
    edges = []
    for j in range(S.d):
        lo, hi = pooled[:, j].min(), pooled[:, j].max()
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges.append(np.linspace(lo, hi, bins + 1))

    def cell_of(x):
        idx = []
        for j, e in enumerate(edges):
            c = int(np.searchsorted(e, x[j], side="right")) - 1
            idx.append(min(max(c, 0), bins - 1))
        return tuple(idx)

    from collections import Counter

    ps, pt = Counter(map(cell_of, S.X)), Counter(map(cell_of, T.X))
    cells = set(ps) | set(pt)
    return sum(abs(ps[c] / S.n - pt[c] / T.n) for c in cells)


def test_l1_hist_identical_and_disjoint():
    S = d1(0.0, 1.0, 2.0)
    assert l1_hist(S, S, bins=4) == 0.0
    assert l1_hist(d1(0.0, 0.5), d1(10.0, 10.5), bins=4) == 2.0


def test_l1_hist_matches_frequency_oracle():
    rng = child_rng(17)
    S = Dataset(rng.standard_normal((40, 2)))
    T = Dataset(rng.standard_normal((40, 2)) + 0.5)
    assert l1_hist(S, T, bins=5) == pytest.approx(brute_l1_hist(S, T, 5), abs=1e-12)


def test_l1_hist_capacity_counts_outlier_bins():
    # 2^16 inner cells pass a bins**d check, but histogramdd allocates 4^16
    rng = child_rng(18)
    S = Dataset(rng.standard_normal((8, 16)))
    with pytest.raises(CapacityError, match="outlier bins"):
        l1_hist(S, S, bins=2)


def test_chain_pointwise_gap_below_disc():
    # any pair's cross-domain risk gap is below the worst-pair supremum
    rng = child_rng(18)
    S, T = random_instance(rng, n=12, d=2)
    cls = StumpClass.from_data(S, T)
    dc = disc_exact(S, T, cls).value
    hyps = cls.hypotheses()
    for i in range(0, len(hyps), 7):
        for j in range(0, len(hyps), 7):
            h, g = hyps[i], hyps[j]
            gap = abs(
                float(np.mean(predict(h, T.X) != predict(g, T.X)))
                - float(np.mean(predict(h, S.X) != predict(g, S.X)))
            )
            assert gap <= dc + 1e-12


def test_chain_disc_below_l1_on_discrete_support():
    # with bins fine enough to isolate every support point, the binned L1
    # equals the exact frequency L1 and dominates the worst-pair supremum
    rng = child_rng(19)
    for _ in range(10):
        S = Dataset(rng.integers(0, 5, size=(20, 1)).astype(float))
        T = Dataset(rng.integers(0, 5, size=(20, 1)).astype(float))
        cls = StumpClass.from_data(S, T)
        dc = disc_exact(S, T, cls).value
        l1 = l1_hist(S, T, bins=50)
        assert dc <= l1 + 1e-12
