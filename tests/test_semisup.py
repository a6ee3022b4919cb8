import numpy as np
import pytest

from phdkit.data import Dataset, SplitSpec, gen_gaussian_pair, split
from phdkit.errors import ConfigError
from phdkit.models import TrainConfig, empirical_risk, linear_arch, mlp_arch, train_erm, zero_one
from phdkit.semisup import SelfTrainConfig, train_self


def _cfg(epochs=30, rounds=5, tau=0.95, cap=None, batch=64):
    return SelfTrainConfig(tau=tau, max_rounds=rounds, round_cap=cap,
                           base=TrainConfig(epochs=epochs, batch_size=batch))


def test_empty_target_equals_plain_erm():
    S, _ = gen_gaussian_pair(120, 2, seed=3)
    T = Dataset(np.zeros((0, 2)))
    res = train_self(S, T, linear_arch(2), _cfg(), seed=9)
    plain = train_erm(S, linear_arch(2), TrainConfig(epochs=30, batch_size=64, seed=9))
    assert np.array_equal(res.hypothesis.params, plain.params)
    assert res.rounds_run == 0 and res.consumed.size == 0


def test_unreachable_threshold_stops_immediately():
    S, T = gen_gaussian_pair(100, 2, seed=1, blob_std=2.5, radius=0.5)  # noisy overlap
    res = train_self(S, T.without_labels(), linear_arch(2), _cfg(tau=0.999999, epochs=10), seed=0)
    assert res.rounds_run == 0
    assert res.added_per_round == ()
    assert res.consumed.size == 0


def test_identical_domains_small_disagreement():
    S, T = gen_gaussian_pair(400, 2, seed=5)
    T_fit, T_eval = split(T.without_labels(), SplitSpec((0.5, 0.5), seed=2))
    res = train_self(S, T_fit, linear_arch(2), _cfg(epochs=40), seed=5)
    h_s = train_erm(S, linear_arch(2), TrainConfig(epochs=40, batch_size=64, seed=5))
    assert empirical_risk(res.hypothesis, h_s, T_eval, zero_one()) <= 0.05


def test_consumed_set_monotone_and_exact():
    S, T = gen_gaussian_pair(300, 2, seed=2)
    res = train_self(S, T.without_labels(), linear_arch(2),
                     _cfg(epochs=25, tau=0.6, cap=40, rounds=4), seed=1)
    assert res.rounds_run >= 2  # the cap forces multiple rounds
    assert sum(res.added_per_round) == res.consumed.size
    assert np.array_equal(res.consumed, np.unique(res.consumed))
    assert res.target.consumed.sum() == res.consumed.size
    assert np.all(np.flatnonzero(res.target.consumed) == res.consumed)


def test_round_cap_respected():
    S, T = gen_gaussian_pair(200, 2, seed=4)
    res = train_self(S, T.without_labels(), linear_arch(2),
                     _cfg(epochs=25, tau=0.6, cap=25, rounds=3), seed=0)
    assert all(a <= 25 for a in res.added_per_round)


def test_tau_out_of_range_rejected():
    with pytest.raises(ConfigError):
        SelfTrainConfig(tau=0.5)
    with pytest.raises(ConfigError):
        SelfTrainConfig(tau=1.0)
    with pytest.raises(ConfigError):
        SelfTrainConfig(max_rounds=0)


def test_multiclass_self_training_runs():
    S, T = gen_gaussian_pair(300, 3, seed=6, k=3)
    arch = mlp_arch(3, (16,), out_dim=3, batch_norm=True)
    res = train_self(S, T.without_labels(), arch, _cfg(epochs=25, tau=0.9, rounds=2), seed=3)
    assert res.hypothesis.k == 3


def test_premise_small_disagreement_across_ten_seeds():
    # with identical domains the target-aware hypothesis stays close to the
    # source-only one; this is the premise behind pairing them
    for seed in range(10):
        S, T = gen_gaussian_pair(300, 2, seed=seed)
        T_fit, T_eval = split(T.without_labels(), SplitSpec((0.5, 0.5), seed=seed))
        res = train_self(S, T_fit, linear_arch(2), _cfg(epochs=30), seed=seed)
        h_s = train_erm(S, linear_arch(2), TrainConfig(epochs=30, batch_size=64, seed=seed))
        assert empirical_risk(res.hypothesis, h_s, T_eval, zero_one()) <= 0.1
