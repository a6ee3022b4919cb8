import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phdkit.adapt import SelectConfig, coral, rank_ascending, select_sources
from phdkit.data import Dataset, add_feature_noise, gen_gaussian_pair
from phdkit.errors import ConfigError, ContractError
from phdkit.models import TrainConfig, mlp_arch
from phdkit.numkit import covariance, rng_from


def test_coral_identity_when_moments_match():
    rng = rng_from(0)
    X = rng.standard_normal((200, 3))
    S = Dataset(X)
    T = Dataset(X[rng.permutation(200)])  # same sample moments exactly
    out = coral(S, T)
    assert np.max(np.abs(out.X - S.X)) <= 1e-6


def test_coral_scalar_case_halves_scale():
    rng = rng_from(1)
    s = Dataset(2.0 * rng.standard_normal((4000, 1)))
    t = Dataset(1.0 * rng.standard_normal((4000, 1)))
    out = coral(s, t)
    ratio = out.X.std() / s.X.std()
    sigma_ratio = t.X.std() / s.X.std()
    assert ratio == pytest.approx(sigma_ratio, rel=1e-6)
    assert abs(float(out.X.mean()) - float(t.X.mean())) <= 1e-9


def test_coral_matches_target_covariance():
    S, T = gen_gaussian_pair(1000, 3, shift=1.0, rotate=0.4, seed=2)
    out = coral(S, T)
    Cs, Ct = covariance(out.X), covariance(T.X)
    rel = np.linalg.norm(Cs - Ct) / np.linalg.norm(Ct)
    assert rel <= 0.05
    assert np.array_equal(out.y, S.y)


def test_coral_dim_mismatch():
    with pytest.raises(ContractError):
        coral(Dataset(np.zeros((3, 2))), Dataset(np.zeros((3, 3))))


@given(st.lists(st.floats(0.01, 100), min_size=2, max_size=8), st.floats(0.1, 50))
@settings(max_examples=50, deadline=None)
def test_ranking_scale_invariant(values, c):
    assert rank_ascending(values) == rank_ascending([v * c for v in values])


def test_ranking_ties_broken_by_index():
    assert rank_ascending([2.0, 1.0, 1.0, 3.0]) == (1, 2, 0, 3)


def _select_cfg(d, k=2):
    return SelectConfig(arch=mlp_arch(d, (16,), out_dim=k, batch_norm=True),
                        base=TrainConfig(epochs=15, batch_size=64), ssl_rounds=1)


def test_all_clean_sources_score_is_k():
    pool = [gen_gaussian_pair(150, 2, seed=s)[0] for s in range(4)]
    T, _ = gen_gaussian_pair(300, 2, seed=99)
    out = select_sources(pool, T.without_labels(), "w1", 2, _select_cfg(2), seed=0,
                         clean_flags=[True] * 4)
    assert out.score == 2


def test_selection_deterministic():
    pool = [gen_gaussian_pair(120, 2, seed=s)[0] for s in range(3)]
    T, _ = gen_gaussian_pair(200, 2, seed=50)
    a = select_sources(pool, T.without_labels(), "phd", 2, _select_cfg(2), seed=3)
    b = select_sources(pool, T.without_labels(), "phd", 2, _select_cfg(2), seed=3)
    assert a.to_dict() == b.to_dict()


def test_zero_noise_pool_runs_and_score_in_range():
    clean = [gen_gaussian_pair(100, 2, seed=s)[0] for s in range(3)]
    noisy = [add_feature_noise(c, 0.0, seed=7) for c in clean]
    T, _ = gen_gaussian_pair(200, 2, seed=60)
    out = select_sources(clean + noisy, T.without_labels(), "w1", 3, _select_cfg(2), seed=1,
                         clean_flags=[True] * 3 + [False] * 3)
    assert 0 <= out.score <= 3


def test_selection_with_oracle_reports_accuracy():
    pool = [gen_gaussian_pair(150, 2, seed=s)[0] for s in range(3)]
    T, _ = gen_gaussian_pair(400, 2, seed=70)
    out = select_sources(pool, T.without_labels(), "w1", 2, _select_cfg(2), seed=0,
                         oracle=T)
    assert out.accuracy is not None and 0.0 <= out.accuracy <= 1.0


def test_selection_validation():
    pool = [gen_gaussian_pair(60, 2, seed=s)[0] for s in range(2)]
    T, _ = gen_gaussian_pair(100, 2, seed=90)
    with pytest.raises(ConfigError):
        select_sources(pool, T, "phd", 3, _select_cfg(2), seed=0)
    for k in (0, -1):
        with pytest.raises(ConfigError, match="must lie in"):
            select_sources(pool, T, "w1", k, _select_cfg(2), seed=0)
    with pytest.raises(ConfigError):
        select_sources(pool, T, "mmd", 1, _select_cfg(2), seed=0)
    with pytest.raises(ContractError):
        select_sources(pool[:1], T, "phd", 1, _select_cfg(2), seed=0)
    with pytest.raises(ConfigError, match="rounds"):
        SelectConfig(arch=mlp_arch(2, (16,)), ssl_rounds=0)
