import numpy as np
import pytest

from phdkit.data import Dataset, gen_gaussian_pair
from phdkit.errors import ConfigError, DegenerateInputError
from phdkit.models import (
    TrainConfig,
    accuracy,
    constant_hypothesis,
    empirical_risk,
    linear_arch,
    predict,
    stump_hypothesis,
    train_erm,
    zero_one,
)
from phdkit.numkit import child_rng
from phdkit.tritrain import TriTrainConfig, build_tpl, tritrain_round


def _cfg(epochs=40, emit_bounds=False):
    return TriTrainConfig(base=TrainConfig(epochs=epochs, batch_size=64), emit_bounds=emit_bounds)


def test_equal_hypotheses_full_coverage():
    T = Dataset(child_rng(0).standard_normal((50, 2)))
    h = stump_hypothesis(0, 0.0, 1, 2)
    tpl = build_tpl(h, h, T)
    assert tpl.coverage == 1.0
    assert np.array_equal(tpl.pseudo_labels, predict(h, T.X))


def test_opposite_constants_zero_coverage():
    T = Dataset(child_rng(1).standard_normal((20, 2)))
    tpl = build_tpl(constant_hypothesis(2, 1), constant_hypothesis(2, 0), T)
    assert tpl.coverage == 0.0 and tpl.size == 0


def test_agreement_invariant_and_zero_pair_discrepancy():
    rng = child_rng(2)
    T = Dataset(rng.standard_normal((80, 2)))
    h1 = stump_hypothesis(0, float(rng.normal()), 1, 2)
    h2 = stump_hypothesis(1, float(rng.normal()), -1, 2)
    tpl = build_tpl(h1, h2, T)
    for idx, lab in zip(tpl.indices, tpl.pseudo_labels):
        x = T.X[idx : idx + 1]
        assert predict(h1, x)[0] == predict(h2, x)[0] == lab
    if tpl.size:
        sub = T.take(tpl.indices)
        assert empirical_risk(h1, h2, sub, zero_one()) == 0.0


def test_empty_target_rejected():
    h = constant_hypothesis(2, 1)
    with pytest.raises(DegenerateInputError):
        build_tpl(h, h, Dataset(np.zeros((0, 2))))


def test_tritrain_beats_or_ties_source_only_on_identical_domains():
    wins = 0
    for seed in range(10):
        S, T = gen_gaussian_pair(300, 2, seed=seed)
        res = tritrain_round(S, T, linear_arch(2), _cfg(), rounds=2, seed=seed)
        hold = [r for r in res.rounds if not r.skipped][-1]
        h_src = train_erm(S, linear_arch(2), TrainConfig(epochs=40, batch_size=64, seed=seed))
        src_acc = accuracy(h_src, T)
        tri_acc = accuracy(res.h, T)
        wins += tri_acc >= src_acc
        assert hold.coverage > 0
    assert wins >= 8


def test_coverage_non_decreasing_on_shifted_domains():
    S, T = gen_gaussian_pair(400, 2, shift=np.array([1.0, 0.5]), seed=3)
    res = tritrain_round(S, T.without_labels(), linear_arch(2), _cfg(), rounds=3, seed=1)
    cov = [r.coverage for r in res.rounds]
    assert all(b >= a - 1e-12 for a, b in zip(cov, cov[1:]))


def test_zero_coverage_rounds_are_skipped_with_warning(monkeypatch):
    S, _ = gen_gaussian_pair(100, 2, seed=5)
    T = Dataset(child_rng(9).standard_normal((40, 2)))
    # the two labelers come out as opposite constants, so no target row is agreed on
    monkeypatch.setattr("phdkit.tritrain.train_erm_many",
                        lambda runs, arch: [(constant_hypothesis(2, 1), ()), (constant_hypothesis(2, 0), ())])
    res = tritrain_round(S, T, linear_arch(2), _cfg(), rounds=2, seed=0)
    assert all(r.skipped and r.warning for r in res.rounds)
    assert np.array_equal(res.h.params, res.h1.params)  # fallback


def test_tpl_risk_trace_non_increasing():
    S, T = gen_gaussian_pair(300, 2, seed=6)
    res = tritrain_round(S, T.without_labels(), linear_arch(2), _cfg(epochs=25), rounds=1, seed=2)
    trace = res.rounds[0].tpl_risk_trace
    assert len(trace) == 25
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_round_bound_reports_use_heldout_pair_term():
    S, T = gen_gaussian_pair(240, 2, seed=7)
    res = tritrain_round(S, T, linear_arch(2), _cfg(emit_bounds=True),
                         rounds=1, seed=3)
    rec = res.rounds[0]
    assert rec.bound is not None
    assert rec.bound.term("phd") >= 0.0
    assert rec.bound.total >= rec.bound.term("phd")
    assert rec.target_accuracy is not None  # oracle labels present on holdout


def test_csv_trace_shape():
    S, T = gen_gaussian_pair(200, 2, seed=8)
    res = tritrain_round(S, T, linear_arch(2), _cfg(emit_bounds=True),
                         rounds=2, seed=4)
    header, rows = res.csv_rows()
    assert header[0] == "round" and len(rows) == 2
    assert all(len(r) == len(header) for r in rows)


def test_rounds_validation():
    S, T = gen_gaussian_pair(50, 2, seed=9)
    with pytest.raises(ConfigError):
        tritrain_round(S, T, linear_arch(2), _cfg(), rounds=0, seed=0)
