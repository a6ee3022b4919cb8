import os
import pickle
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phdkit
from phdkit.adapt import (
    EVAL_FRAC,
    SelectConfig,
    _subsample,
    coral,
    rank_ascending,
    select_sources,
    select_sources_many,
)
from phdkit.data import Dataset, add_feature_noise, gen_gaussian_pair, split
from phdkit.discrepancy import w1_exact
from phdkit.errors import CapacityError, ConfigError, ContractError, DegenerateInputError
from phdkit.models import TrainConfig, mlp_arch
from phdkit.numkit import child_rng
from phdkit.protocols import Fig2Config, run_fig2


def test_coral_identity_when_moments_match():
    rng = child_rng(0)
    X = rng.standard_normal((200, 3))
    S = Dataset(X)
    T = Dataset(X[rng.permutation(200)])  # same sample moments exactly
    out = coral(S, T)
    assert np.max(np.abs(out.X - S.X)) <= 1e-6


def test_coral_scalar_case_halves_scale():
    rng = child_rng(1)
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
    Cs, Ct = np.cov(out.X, rowvar=False), np.cov(T.X, rowvar=False)
    rel = np.linalg.norm(Cs - Ct) / np.linalg.norm(Ct)
    assert rel <= 0.05
    assert np.array_equal(out.y, S.y)


def test_coral_dim_mismatch():
    with pytest.raises(ContractError):
        coral(Dataset(np.zeros((3, 2))), Dataset(np.zeros((3, 3))))


def _reference_coral(S, T, ridge):
    """CORAL through the former general-purpose matrix layer, kept as the
    reference: every matrix re-validated (finite, square, symmetric), with the
    same arithmetic and the same checks in the same order."""

    def finite_2d(X, name="X"):
        A = np.asarray(X, dtype=np.float64)
        if A.ndim != 2:
            raise ContractError(f"{name} must be 2-D, got ndim={A.ndim}")
        if A.size and not np.all(np.isfinite(A)):
            raise ContractError(f"{name} contains non-finite entries")
        return A

    def covariance(X):
        A = finite_2d(X)
        if A.shape[0] < 2:
            raise DegenerateInputError(f"covariance needs at least 2 rows, got {A.shape[0]}")
        return np.atleast_2d(np.cov(A, rowvar=False, ddof=1))

    def sym_power(A, power):
        A = finite_2d(A, "A")
        if A.shape[0] != A.shape[1] or (A.size and np.max(np.abs(A - A.T)) > 1e-10):
            raise ContractError("A must be square and symmetric")
        if not 0 < ridge < np.inf:
            raise ContractError(f"ridge must be finite and > 0, got {ridge}")
        w, V = np.linalg.eigh(A + ridge * np.eye(A.shape[0]))
        w = np.clip(w, ridge * 1e-3, None)
        B = (V * w**power) @ V.T
        return (B + B.T) / 2.0

    if S.n == 0 or T.n == 0:
        raise ContractError("both datasets must be non-empty")
    if S.d != T.d:
        raise ContractError(f"feature dims differ: {S.d} vs {T.d}")
    mu_s = S.X.mean(axis=0)
    mu_t = T.X.mean(axis=0)
    A = sym_power(covariance(S.X), -0.5) @ sym_power(covariance(T.X), 0.5)
    return Dataset((S.X - mu_s) @ A + mu_t, S.y, S.k)


def _outcome(fn, *args):
    """The adapted bytes, or the error type and whether the ridge check raised it."""
    try:
        return fn(*args).X.tobytes()
    except (ContractError, DegenerateInputError) as e:
        return type(e), "ridge" in str(e)


@given(st.integers(2, 60), st.integers(2, 60), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-12, 1e-6, 1e-2, 1.0]), st.data())
@settings(max_examples=150, deadline=None)
def test_coral_matches_the_former_matrix_layer_bit_for_bit(ns, nt, d, seed, ridge, data):
    scales = data.draw(st.lists(st.floats(-3, 3), min_size=2 * d, max_size=2 * d))
    rng = child_rng(seed)
    S = Dataset(rng.standard_normal((ns, d)) * 10.0 ** np.array(scales[:d]) + rng.standard_normal(d),
                rng.integers(0, 2, ns), 2)
    T = Dataset(rng.standard_normal((nt, d)) * 10.0 ** np.array(scales[d:]) - rng.standard_normal(d))
    assert _outcome(coral, S, T, ridge) == _outcome(_reference_coral, S, T, ridge)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the reference warns
def test_coral_checks_in_the_former_order():
    rng = child_rng(5)
    two, one = Dataset(rng.standard_normal((4, 2))), Dataset(rng.standard_normal((1, 2)))
    big = Dataset(np.array([[1e308, 0.0], [-1e308, 1.0], [1e308, 2.0]]))
    # the source's row count, then its covariance, then the ridge, then the same for the target
    cases = [(one, one, 0.0), (two, one, 0.0), (two, one, 1e-6), (one, two, 1e-6), (big, one, 1e-6),
             (two, big, 0.0), (two, big, 1e-6), (big, two, 0.0), (two, two, np.inf), (two, two, -1.0)]
    for S, T, ridge in cases:
        got = _outcome(coral, S, T, ridge)
        assert isinstance(got, tuple) and got == _outcome(_reference_coral, S, T, ridge)


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
    assert a == b


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


def test_many_tasks_give_the_outcomes_of_one_task_calls():
    # two pools of different row counts, so both training batches split by rows; overlapping
    # classes keep the accuracies apart, so a classifier graded for the wrong task shows
    kw = dict(blob_std=1.2, radius=1.0)
    pool_a = [gen_gaussian_pair(120, 2, seed=s, **kw)[0] for s in range(3)]
    pool_b = [gen_gaussian_pair(n, 2, seed=s, shift=0.5 * s, **kw)[0]
              for s, n in ((4, 90), (5, 150), (6, 90))]
    T, _ = gen_gaussian_pair(200, 2, seed=50, **kw)
    T2, _ = gen_gaussian_pair(160, 2, seed=51, shift=0.8, rotate=0.8, **kw)
    tasks = [(pool_a, T.without_labels(), "phd", 3, [True, False, True], T),
             (pool_a, T.without_labels(), "w1", 3, None, T),
             (pool_b, T2.without_labels(), "phd", 8, [False, True, True], None),
             (pool_b, T2.without_labels(), "w1", 2, [False, True, True], T2),
             (pool_b, T2.without_labels(), "phd", 2, None, T2)]
    cfg = _select_cfg(2)
    together = select_sources_many(tasks, 2, cfg)
    alone = [select_sources(S, T, m, 2, cfg, seed=seed, clean_flags=f, oracle=o)
             for S, T, m, seed, f, o in tasks]
    assert together == alone
    assert [o.accuracy is None for o in together] == [False, False, True, False, False]


def test_every_task_is_checked_before_any_training(monkeypatch):
    def no_training(*args):
        raise AssertionError("trained before every task was checked")

    monkeypatch.setattr("phdkit.adapt.train_erm_many", no_training)
    pool = [gen_gaussian_pair(60, 2, seed=s)[0] for s in range(2)]
    T, _ = gen_gaussian_pair(100, 2, seed=90)
    good = (pool, T.without_labels(), "phd", 0, None, T)
    for bad, error in (((pool, T, "phd", 0, [True], None), "clean_flags"),
                       ((pool, T, "w1", 0, None, T.without_labels()), "oracle"),
                       ((pool, T, "mmd", 0, None, None), "measure")):
        with pytest.raises((ConfigError, ContractError), match=error):
            select_sources_many([good, bad], 1, _select_cfg(2))


def _w1_values_one_by_one(sources, T, seed, n):
    """A w1 task's values from one ``w1_exact`` call per source, in source order."""
    T_fit, _ = split(T.without_labels(), (1.0 - EVAL_FRAC, EVAL_FRAC), seed=seed)
    values = []
    for i, S in enumerate(sources):
        rng = child_rng(seed, 12, i)
        values.append(w1_exact(_subsample(S, n, rng), _subsample(T_fit, n, rng), seed=seed + i).value)
    return values


def test_w1_values_equal_one_by_one_w1_exact_calls_bit_for_bit():
    # 120-row sources and the 210-row fit part of `big` subsample to 100 rows; the 84-row fit
    # part of `small` is fewer than 100, so `_subsample` hands it over whole
    pool = [gen_gaussian_pair(120, 3, seed=s, shift=0.3 * s)[0] for s in range(4)]
    big, _ = gen_gaussian_pair(300, 3, seed=40)
    small, _ = gen_gaussian_pair(120, 3, seed=41, shift=0.5)
    assert split(small, (1.0 - EVAL_FRAC, EVAL_FRAC), seed=2)[0].n < 100
    tasks = [(pool, big.without_labels(), "phd", 1, None, None),
             (pool, big.without_labels(), "w1", 1, None, None),
             (pool[:3], small.without_labels(), "w1", 2, None, small),
             (pool, small.without_labels(), "phd", 2, None, None),
             (pool[1:], big.without_labels(), "w1", 5, [True, False, True], None)]
    cfg = replace(_select_cfg(3), w1_subsample=100)
    before = threading.active_count()
    outcomes = select_sources_many(tasks, 2, cfg)
    assert threading.active_count() == before
    for (sources, T, measure, seed, _, _), out in zip(tasks, outcomes):
        if measure == "w1":
            want = np.array(_w1_values_one_by_one(sources, T, seed, 100))
            assert np.array(out.values).tobytes() == want.tobytes()


def _pool_with_an_overflowing_source():
    # source 1's squared feature-0 distances overflow the W1 cost and its feature-0 variance
    pool = [gen_gaussian_pair(60, 2, seed=s)[0] for s in range(3)]
    pool[1] = Dataset(pool[1].X * np.array([1e200, 1.0]), pool[1].y, pool[1].k)
    return pool


def test_a_w1_overflow_raises_the_error_of_one_by_one_calls():
    pool = _pool_with_an_overflowing_source()
    T, _ = gen_gaussian_pair(100, 2, seed=90)
    clean = [gen_gaussian_pair(60, 2, seed=s)[0] for s in range(3, 5)]
    cfg = _select_cfg(2)
    with pytest.raises(CapacityError) as one_by_one:
        _w1_values_one_by_one(pool, T, 0, cfg.w1_subsample)
    before = threading.active_count()
    with pytest.raises(CapacityError, match=re.escape(str(one_by_one.value))):
        select_sources_many([(clean, T, "phd", 0, None, None), (pool, T, "w1", 0, None, None)], 1, cfg)
    assert threading.active_count() == before


@pytest.mark.parametrize("phd_first", [True, False], ids=["phd-first", "w1-first"])
def test_a_zscore_error_wins_over_a_w1_error(phd_first):
    # the z-scores are taken before any training and any W1 value is read, whatever the task order
    pool = _pool_with_an_overflowing_source()
    T, _ = gen_gaussian_pair(100, 2, seed=90)
    tasks = [(pool, T, "phd", 0, None, None), (pool, T, "w1", 0, None, None)]
    before = threading.active_count()
    with pytest.raises(ContractError, match="feature 0's mean or standard deviation overflows"):
        select_sources_many(tasks if phd_first else tasks[::-1], 1, _select_cfg(2))
    assert threading.active_count() == before


def test_no_thread_outlives_a_failed_training_with_w1_values_queued(monkeypatch):
    def failed_training(*args):
        raise RuntimeError("training failed")

    monkeypatch.setattr("phdkit.adapt.train_erm_many", failed_training)
    pool = [gen_gaussian_pair(60, 2, seed=s)[0] for s in range(6)]
    T, _ = gen_gaussian_pair(100, 2, seed=90)
    tasks = [(pool, T, "w1", seed, None, None) for seed in range(4)] + [(pool, T, "phd", 0, None, None)]
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="training failed"):
        select_sources_many(tasks, 1, _select_cfg(2))
    assert threading.active_count() == before


def test_a_fresh_interpreter_imports_scipy_on_the_worker_thread_and_gets_the_same_values(tmp_path):
    # scipy loads on the first w1_exact; in a fresh interpreter that call runs on the worker
    # thread while the main thread trains the phd task's sources
    pool = [gen_gaussian_pair(80, 3, seed=s, shift=0.3 * s)[0] for s in range(3)]
    T, _ = gen_gaussian_pair(200, 3, seed=40)
    tasks = [(pool, T.without_labels(), "phd", 1, None, None), (pool, T.without_labels(), "w1", 1, None, T)]
    cfg = _select_cfg(3)
    (tmp_path / "tasks.pkl").write_bytes(pickle.dumps((tasks, cfg)))
    script = ("import pickle, sys\n"
              "from pathlib import Path\n"
              "from phdkit.adapt import select_sources_many\n"
              "tasks, cfg = pickle.loads(Path('tasks.pkl').read_bytes())\n"
              "assert 'scipy.optimize' not in sys.modules\n"
              "outcomes = select_sources_many(tasks, 2, cfg)\n"
              "assert 'scipy.optimize' in sys.modules\n"
              "Path('outcomes.pkl').write_bytes(pickle.dumps(outcomes))\n")
    src = str(Path(phdkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    fresh = pickle.loads((tmp_path / "outcomes.pkl").read_bytes())
    assert repr(fresh) == repr(select_sources_many(tasks, 2, cfg))


def test_fig2_rows_match_the_runs_of_single_sigma_seed_pairs():
    cfg = Fig2Config(seeds=(0, 1), sigmas=(0.1, 0.5), n_source=80, n_target=200, epochs=4, ssl_rounds=1)
    single = [row for sigma in cfg.sigmas for seed in cfg.seeds
              for row in run_fig2(replace(cfg, seeds=(seed,), sigmas=(sigma,)))["rows"]]
    assert repr(run_fig2(cfg)["rows"]) == repr(single)


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
