import numpy as np
import pytest

from phdkit.data import Dataset, SplitSpec, gen_gaussian_pair, split
from phdkit.errors import ConfigError
from phdkit.models import TrainConfig, empirical_risk, linear_arch, mlp_arch, train_erm, zero_one
from phdkit.semisup import train_self


def _base(epochs=30, batch=64, seed=0):
    return TrainConfig(epochs=epochs, batch_size=batch, seed=seed)


def _self_train(S, T, arch, epochs=30, rounds=5, tau=0.95, seed=0):
    """Self-training from the source ERM trained under the same config."""
    h_s = train_erm(S, arch, _base(epochs, seed=seed))
    return h_s, train_self(S, T, h_s, _base(epochs, seed=seed), rounds, tau=tau)


def test_empty_target_equals_plain_erm():
    S, _ = gen_gaussian_pair(120, 2, seed=3)
    T = Dataset(np.zeros((0, 2)))
    h_s, res = _self_train(S, T, linear_arch(2), seed=9)
    assert res.hypothesis is h_s
    assert res.rounds_run == 0 and res.added_per_round == ()


def test_unreachable_threshold_stops_immediately():
    S, T = gen_gaussian_pair(100, 2, seed=1, blob_std=2.5, radius=0.5)  # noisy overlap
    h_s, res = _self_train(S, T.without_labels(), linear_arch(2), epochs=10, tau=0.999999)
    assert res.hypothesis is h_s
    assert res.rounds_run == 0
    assert res.added_per_round == ()


def test_identical_domains_small_disagreement():
    S, T = gen_gaussian_pair(400, 2, seed=5)
    T_fit, T_eval = split(T.without_labels(), SplitSpec((0.5, 0.5), seed=2))
    h_s, res = _self_train(S, T_fit, linear_arch(2), epochs=40, seed=5)
    assert empirical_risk(res.hypothesis, h_s, T_eval, zero_one()) <= 0.05


def test_consumed_set_monotone_and_exact():
    S, T = gen_gaussian_pair(300, 2, seed=2)
    T = T.without_labels()
    h_s, res = _self_train(S, T, linear_arch(2), epochs=25, tau=0.6, rounds=4, seed=1)
    assert res.rounds_run >= 2
    # each round adds at least one row that no earlier round took
    assert all(a >= 1 for a in res.added_per_round)
    assert sum(res.added_per_round) <= T.n


def test_tau_out_of_range_rejected():
    S, T = gen_gaussian_pair(40, 2, seed=0)
    h = train_erm(S, linear_arch(2), _base(epochs=1))
    for tau, rounds in ((0.5, 1), (1.0, 1), (0.95, 0)):
        with pytest.raises(ConfigError):
            train_self(S, T, h, _base(), rounds, tau=tau)


def test_multiclass_self_training_runs():
    S, T = gen_gaussian_pair(300, 3, seed=6, k=3)
    arch = mlp_arch(3, (16,), out_dim=3, batch_norm=True)
    _, res = _self_train(S, T.without_labels(), arch, epochs=25, tau=0.9, rounds=2, seed=3)
    assert res.hypothesis.k == 3


def test_premise_small_disagreement_across_ten_seeds():
    # with identical domains the target-aware hypothesis stays close to the
    # source-only one; this is the premise behind pairing them
    for seed in range(10):
        S, T = gen_gaussian_pair(300, 2, seed=seed)
        T_fit, T_eval = split(T.without_labels(), SplitSpec((0.5, 0.5), seed=seed))
        h_s, res = _self_train(S, T_fit, linear_arch(2), epochs=30, seed=seed)
        assert empirical_risk(res.hypothesis, h_s, T_eval, zero_one()) <= 0.1
