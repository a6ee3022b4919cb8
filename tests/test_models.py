import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phdkit.data import Dataset, gen_gaussian_pair
from phdkit.errors import ConfigError, ContractError, DegenerateInputError, TrainingError
from phdkit.models import (
    AmsGrad,
    Arch,
    Hypothesis,
    TrainConfig,
    _backward,
    _forward,
    _layers,
    _runs_contiguous,
    _train_runs,
    _weight_mask,
    _Workspace,
    accuracy,
    empirical_risk,
    grad_check,
    init_bn_stats,
    init_params,
    linear_arch,
    linear_hypothesis,
    load_hypothesis,
    margin,
    mlp_arch,
    predict,
    save_hypothesis,
    scores,
    stump_hypothesis,
    train_erm,
    train_erm_many,
    train_erm_traced,
    zero_one,
)

BN_EPS = 1e-5


def unrolled_forward(arch, params, bn_stats, x):
    """Layer-by-layer oracle computing offsets from the arch spec directly."""
    widths = (arch.in_dim, *arch.hidden, arch.out_dim)
    off, boff = 0, 0
    a = np.asarray(x, float)
    for i in range(len(widths) - 1):
        fi, fo = widths[i], widths[i + 1]
        W = params[off : off + fi * fo].reshape(fi, fo)
        off += fi * fo
        b = params[off : off + fo]
        off += fo
        z = a @ W + b
        if i < len(arch.hidden):
            if arch.batch_norm:
                gamma = params[off : off + fo]
                beta = params[off + fo : off + 2 * fo]
                off += 2 * fo
                mean = bn_stats[boff : boff + fo]
                var = bn_stats[boff + fo : boff + 2 * fo]
                boff += 2 * fo
                z = gamma * (z - mean) / np.sqrt(var + BN_EPS) + beta
            z = np.where(z > 0, z, arch.negative_slope * z)
        a = z
    return a


def test_constant_plus_one_predicts_all_ones():
    h = linear_hypothesis(np.zeros(3), 1.0)
    X = np.random.default_rng(0).standard_normal((10, 3))
    assert np.all(predict(h, X) == 1)


def test_argmax_prediction():
    h = linear_hypothesis(np.zeros((2, 3)), [2.0, 0.5, 0.1])
    assert predict(h, np.zeros((1, 2)))[0] == 0


def test_binary_tie_goes_to_class_one():
    h = linear_hypothesis(np.zeros(2), 0.0)
    assert predict(h, np.zeros((1, 2)))[0] == 1


def test_mlp_forward_matches_unrolled_oracle():
    # the float64 oracle; float32 scoring gets a tolerance set from its precision
    for (dtype, tol), bn in itertools.product([(None, 1e-12), (np.float32, 1e-5)], (False, True)):
        arch = mlp_arch(3, (5, 4), out_dim=2, batch_norm=bn)
        # init_params zeroes the output layer, which would score 0 everywhere
        params = init_params(arch, seed=11) + 0.5 * np.random.default_rng(3).standard_normal(arch.param_count())
        stats = init_bn_stats(arch)
        if bn:
            stats = stats + np.abs(np.random.default_rng(1).standard_normal(stats.shape)) * 0.1
        h = Hypothesis(arch, params, stats)
        x = np.random.default_rng(2).standard_normal((1, 3))
        got = scores(h, x, dtype and _Workspace(dtype))
        assert np.max(np.abs(got - unrolled_forward(arch, params, stats, x))) < tol


def test_dim_mismatch_rejected():
    h = linear_hypothesis([1.0, 2.0], 0.0)
    with pytest.raises(ContractError):
        predict(h, np.zeros((3, 5)))


def test_risk_of_hypothesis_against_itself_is_zero():
    D, _ = gen_gaussian_pair(50, 2, seed=3)
    h = linear_hypothesis([1.0, -0.5], 0.2)
    assert empirical_risk(h, h, D, zero_one()) == 0.0


def test_risk_counts_disagreements():
    # points at 1,2,3,4 on a line; stumps produce preds (1,1,0,0) vs (1,0,0,1)
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    D = Dataset(X)
    h1 = stump_hypothesis(0, 2.5, -1, 1)   # class1 iff x <= 2.5
    ref = np.array([1, 0, 0, 1])
    assert empirical_risk(h1, ref, D, zero_one()) == 0.5


def test_margin_loss_indicator():
    h = linear_hypothesis(np.zeros((1, 3)), [2.0, 0.5, 0.1])
    D = Dataset(np.zeros((1, 1)), np.array([0]), 3)
    assert empirical_risk(h, D.y, D, margin(1.0)) == 0.0  # gap 1.5 > 1
    assert empirical_risk(h, D.y, D, margin(2.0)) == 1.0  # gap 1.5 <= 2


def test_margin_risk_rejects_a_reference_label_beyond_the_scores():
    h = linear_hypothesis(np.zeros((1, 3)), [2.0, 0.5, 0.1])
    D = Dataset(np.zeros((2, 1)))
    five = linear_hypothesis(np.zeros((1, 5)), [0.0, 0.0, 0.0, 0.0, 1.0])  # predicts class 4
    for ref in (np.array([0, 3]), five):
        with pytest.raises(ContractError, match="no score"):
            empirical_risk(h, ref, D, margin(1.0))


def test_zero_one_is_one_minus_accuracy():
    D, _ = gen_gaussian_pair(64, 2, seed=8)
    h = linear_hypothesis([0.3, -1.0], 0.1)
    assert empirical_risk(h, None, D, zero_one()) == pytest.approx(1.0 - accuracy(h, D), abs=0)


def test_zero_one_symmetry_and_triangle_exhaustive():
    # signed labels a,b,c in {-1,+1}: all 8 cases
    l01 = lambda a, b: float(a != b)  # noqa: E731
    for a in (-1, 1):
        for b in (-1, 1):
            assert l01(a, b) == l01(b, a)
            for c in (-1, 1):
                assert l01(a, c) <= l01(a, b) + l01(b, c)


def test_empty_dataset_risk_rejected():
    h = linear_hypothesis([1.0], 0.0)
    with pytest.raises(DegenerateInputError):
        empirical_risk(h, None, Dataset(np.zeros((0, 1))), zero_one())


# --- training ---------------------------------------------------------------


def test_separable_blobs_reach_zero_error_with_linear_model():
    D, _ = gen_gaussian_pair(200, 2, seed=1)
    h = train_erm(D, linear_arch(2), TrainConfig(epochs=50, seed=0))
    assert empirical_risk(h, None, D, zero_one()) == 0.0


def test_one_class_dataset_trains_constant_predictor():
    X = np.random.default_rng(0).standard_normal((30, 2))
    D = Dataset(X, np.ones(30, dtype=int), 2)
    h = train_erm(D, linear_arch(2), TrainConfig(epochs=300, batch_size=8, seed=0))
    assert empirical_risk(h, None, D, zero_one()) == 0.0


def best_halfplane_error(X, y):
    """Brute force over directions and thresholds (both polarities)."""
    best = 1.0
    for theta in np.linspace(0.0, math.pi, 120, endpoint=False):
        proj = X @ np.array([math.cos(theta), math.sin(theta)])
        order = np.argsort(proj)
        ys = y[order]
        n1 = ys.sum()
        cum1 = np.concatenate([[0], np.cumsum(ys)])
        pos = np.arange(len(ys) + 1)
        risk_plus = (cum1 + (len(ys) - n1 - (pos - cum1))) / len(ys)
        best = min(best, float(risk_plus.min()), float((1 - risk_plus).min()))
    return best


def test_xor_blobs_linear_floor_and_mlp_ceiling():
    D, _ = gen_gaussian_pair(400, 2, label_rule="xor", seed=7)
    floor = best_halfplane_error(D.X, D.y)
    assert floor >= 0.25 - 1e-9
    h_lin = train_erm(D, linear_arch(2), TrainConfig(epochs=60, seed=0))
    e_lin = empirical_risk(h_lin, None, D, zero_one())
    assert e_lin >= floor - 1e-9 and e_lin >= 0.25
    h_mlp = train_erm(D, mlp_arch(2, (16, 16), batch_norm=False), TrainConfig(epochs=80, seed=0))
    assert empirical_risk(h_mlp, None, D, zero_one()) <= 0.05


def test_training_loss_does_not_increase():
    D, _ = gen_gaussian_pair(150, 3, seed=2)
    arch = mlp_arch(3, (8,), batch_norm=False)
    cfg = TrainConfig(epochs=25, seed=4)
    h0 = Hypothesis(arch, init_params(arch, cfg.seed), init_bn_stats(arch))
    h = train_erm(D, arch, cfg)

    def logistic_loss(hyp):
        return float(np.mean(np.logaddexp(0.0, -(2.0 * D.y - 1.0) * scores(hyp, D.X)[:, 0])))

    assert logistic_loss(h) <= logistic_loss(h0)


def test_divergence_raises_training_error_with_epoch():
    # finite features and a finite step that overflows float32 once the first epoch's updates land
    D, _ = gen_gaussian_pair(200, 2, seed=0)
    with pytest.raises(TrainingError) as e:
        train_erm(D, mlp_arch(2, (8,), batch_norm=False), TrainConfig(epochs=3, lr=1e38, seed=0))
    assert e.value.epoch >= 1


def test_one_diverging_run_stops_the_lockstep_call_at_its_epoch():
    # the same step size trains the unit-scale run and overflows the large-scale one
    X = np.random.default_rng(0).standard_normal((40, 2))
    y = (X[:, 0] > 0).astype(np.int64)
    arch, cfg = mlp_arch(2, (8,), batch_norm=False), TrainConfig(epochs=20, batch_size=16, lr=1e17, seed=0)
    good, bad = Dataset(X, y, 2), Dataset(X * 1e4, y, 2)
    train_erm(good, arch, replace(cfg, seed=1))
    with pytest.raises(TrainingError) as alone:
        train_erm(bad, arch, cfg)
    assert alone.value.epoch >= 1
    with pytest.raises(TrainingError) as together:
        train_erm_many([(good, replace(cfg, seed=1), None), (bad, cfg, None)], arch)
    assert together.value.epoch == alone.value.epoch


@settings(max_examples=50, deadline=None)
@given(runs=st.integers(1, 5), batch_norm=st.booleans(), out_dim=st.sampled_from([1, 3, 10]),
       hidden=st.lists(st.sampled_from([1, 2, 5]), min_size=1, max_size=2),
       weighted=st.booleans(), batch_size=st.integers(2, 17), full=st.integers(1, 4), rest=st.integers(1, 8),
       data_seed=st.integers(0, 2**16))
def test_lockstep_runs_equal_runs_one_at_a_time(runs, batch_norm, out_dim, hidden, weighted, batch_size, full,
                                                rest, data_seed):
    # Width-1 layers and outputs take BLAS gemv and, from 8 rows on, numpy's
    # pairwise row sums; 10 classes take its blocked pairwise class sums.
    n = batch_size * full + min(rest, batch_size - 1)  # ends in a partial batch
    rng = np.random.default_rng(data_seed)
    arch = Arch(3, tuple(hidden), out_dim, batch_norm=batch_norm)
    k = 2 if out_dim == 1 else out_dim
    cfg = TrainConfig(epochs=2, batch_size=batch_size, lr=1e-2, seed=0)
    specs = [(Dataset(rng.standard_normal((n, 3)), rng.integers(0, k, n), k), replace(cfg, seed=seed),
              rng.uniform(0.1, 2.0, n) if weighted else None) for seed in rng.integers(0, 1000, runs)]
    together = train_erm_many(specs, arch)
    for (D, run_cfg, w), h in zip(specs, together):
        alone = train_erm(D, arch, run_cfg, sample_weight=w)
        assert (h.params.tobytes(), h.bn_stats.tobytes(), h.seed) == \
            (alone.params.tobytes(), alone.bn_stats.tobytes(), alone.seed)


def _noisy_metric(seed, n=30):
    """Zero-one risk against random labels on random rows: a metric whose
    best epoch is seldom the last, so the checkpoint is a real choice."""
    rng = np.random.default_rng(seed)
    probe = Dataset(rng.standard_normal((n, 3)), rng.integers(0, 2, n), 2)
    return lambda h: empirical_risk(h, None, probe, zero_one())


@pytest.mark.parametrize("runs", [2, 3])
@pytest.mark.parametrize("batch_norm", [False, True])
def test_traced_lockstep_runs_equal_traced_runs_one_at_a_time(runs, batch_norm):
    rng = np.random.default_rng(runs)
    arch = Arch(3, (6, 4), 1, batch_norm=batch_norm)
    cfg = TrainConfig(epochs=6, batch_size=16, lr=5e-2, seed=0)
    specs = [(Dataset(rng.standard_normal((40, 3)), rng.integers(0, 2, 40), 2), replace(cfg, seed=10 + r),
              rng.uniform(0.5, 1.5, 40) if r == 1 else None) for r in range(runs)]
    # the last run is untraced, as in a call that mixes both kinds
    metrics = [_noisy_metric(100 + r) for r in range(runs - 1)] + [None]
    together = _train_runs(specs, arch, metrics)
    for (D, run_cfg, w), metric, (h, trace) in zip(specs, metrics, together):
        alone, alone_trace = train_erm_traced(D, arch, run_cfg, sample_weight=w, metric=metric)
        assert len(trace) == (cfg.epochs if metric else 0)
        assert trace == alone_trace
        assert (h.params.tobytes(), h.bn_stats.tobytes(), h.seed, h.note) == \
            (alone.params.tobytes(), alone.bn_stats.tobytes(), alone.seed, alone.note)
    D, run_cfg, w = specs[0]
    assert together[0][0].params.tobytes() != train_erm(D, arch, run_cfg, w).params.tobytes()  # not the last epoch


def test_an_exception_from_one_runs_metric_propagates_unchanged():
    rng = np.random.default_rng(0)
    D = Dataset(rng.standard_normal((40, 3)), rng.integers(0, 2, 40), 2)
    cfg = TrainConfig(epochs=5, batch_size=16, seed=0)
    boom, calls = RuntimeError("witness failed"), []

    def metric(r):
        def call(h):
            calls.append(r)
            if r == 1 and calls.count(1) == 3:
                raise boom
            return 0.5
        return call

    with pytest.raises(RuntimeError) as e:
        _train_runs([(D, cfg, None), (D, replace(cfg, seed=1), None)], mlp_arch(3, (4,)), [metric(0), metric(1)])
    assert e.value is boom
    assert calls == [0, 1] * 3  # each epoch's metrics in run order, up to the failing call


@pytest.mark.parametrize("field,value", [("n", 39), ("d", 3), ("epochs", 3), ("lr", 2e-3), ("batch_size", 8)])
def test_mismatched_lockstep_runs_are_rejected_before_training(field, value, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a forward pass ran before the run check")

    monkeypatch.setattr("phdkit.models._forward", no_training)
    rng = np.random.default_rng(0)
    cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-3, seed=0)
    D = Dataset(rng.standard_normal((40, 2)), rng.integers(0, 2, 40), 2)
    n, d = (value, 2) if field == "n" else (40, value) if field == "d" else (40, 2)
    other = Dataset(rng.standard_normal((n, d)), rng.integers(0, 2, n), 2)
    other_cfg = replace(cfg, seed=1, **({field: value} if field not in ("n", "d") else {}))
    with pytest.raises(ContractError):
        train_erm_many([(D, cfg, None), (other, other_cfg, None)], mlp_arch(2, (4,)))


def test_deterministic_replay():
    D, _ = gen_gaussian_pair(120, 2, seed=6)
    cfg = TrainConfig(epochs=8, seed=31)
    a = train_erm(D, mlp_arch(2, (8, 8)), cfg)
    b = train_erm(D, mlp_arch(2, (8, 8)), cfg)
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(a.bn_stats, b.bn_stats)


def test_traced_training_keep_best_is_non_increasing():
    D, _ = gen_gaussian_pair(100, 2, seed=6)
    metric = lambda h: empirical_risk(h, None, D, zero_one())  # noqa: E731
    _, trace = train_erm_traced(D, linear_arch(2), TrainConfig(epochs=12, seed=1), metric=metric)
    assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_weight_decay_mask_covers_exactly_the_weight_matrices():
    arch = mlp_arch(3, (5, 4), out_dim=2, batch_norm=True)
    expected = np.zeros(arch.param_count(), dtype=bool)
    widths, off = arch.widths, 0
    for i in range(len(widths) - 1):
        fi, fo = widths[i], widths[i + 1]
        expected[off : off + fi * fo] = True
        # then the bias, and gamma/beta on batch-normalized hidden layers
        off += fi * fo + fo + (2 * fo if i < len(arch.hidden) else 0)
    assert off == arch.param_count()
    mask = _weight_mask(arch)
    assert mask.dtype == bool and np.array_equal(mask, expected)
    assert int(mask.sum()) == 3 * 5 + 5 * 4 + 4 * 2


def test_amsgrad_second_moment_max_is_monotone():
    opt = AmsGrad(4, lr=0.01)
    params = np.zeros(4)
    rng = np.random.default_rng(0)
    prev = opt.vmax.copy()
    for _ in range(50):
        opt.step(params, rng.standard_normal(4))
        assert np.all(opt.vmax >= prev)
        prev = opt.vmax.copy()


def test_bad_configs_rejected():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    for bad in ({"lr": 0.0}, {"lr": math.inf}, {"weight_decay": -1.0}, {"weight_decay": math.nan},
                {"weight_decay": math.inf}):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
    with pytest.raises(ContractError):
        margin(0.0)
    D, _ = gen_gaussian_pair(20, 2, seed=0)
    with pytest.raises(ContractError):
        train_erm(D.without_labels(), linear_arch(2), TrainConfig(epochs=1))


@pytest.mark.parametrize("out_dim,k", [(1, 3), (2, 3), (3, 4)])
def test_labels_beyond_the_architectures_class_count_are_rejected(out_dim, k):
    # a single score trains against 2y - 1, which is meaningless for y >= 2
    D = Dataset(np.zeros((k, 2)), np.arange(k), k)
    with pytest.raises(ContractError, match="labels must lie below"):
        train_erm(D, linear_arch(2, out_dim), TrainConfig(epochs=1))


@pytest.mark.parametrize("w", [np.zeros(20), np.r_[np.ones(19), -1.0], np.r_[np.ones(19), np.nan],
                               np.r_[np.ones(19), np.inf]], ids=["all-zero", "negative", "nan", "inf"])
def test_bad_sample_weight_is_a_contract_error(w):
    # an all-zero weighting used to surface as a "divergence" TrainingError
    D, _ = gen_gaussian_pair(20, 2, seed=0)
    with pytest.raises(ContractError):
        train_erm(D, linear_arch(2), TrainConfig(epochs=1), sample_weight=w)


@pytest.mark.parametrize("slope", [-0.1, 1.5, math.nan, math.inf, "0.1"])
def test_arch_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ContractError):
        Arch(3, (4,), negative_slope=slope)


DTYPES = (np.float64, np.float32)


@pytest.mark.parametrize("dtype,slope", itertools.product(DTYPES, [0.0, 0.1, 1.0]),
                         ids=["0.0", "0.1", "1.0", "f32-0.0", "f32-0.1", "f32-1.0"])
def test_leaky_relu_passes_match_the_select_oracle(slope, dtype):
    # 1e-300 underflows to a signed zero in float32, which the test also wants
    X = np.array([[0.0, -0.0, -2.5, 3.0], [-0.0, 1e-300, -1e-300, -7.0], [5.0, 0.0, -0.0, 0.25]], dtype)
    W2 = np.random.default_rng(0).standard_normal((4, 2)).astype(dtype)
    head = np.concatenate([W2.ravel(), [0.5, -0.5]])
    # Forward: identity weights, then batch norm with running mean 0 and a
    # per-unit gamma of +-1 and beta of +-0, so the pre-activations hold
    # both signed zeros next to negatives and positives.
    arch = Arch(4, (4,), 2, batch_norm=True, negative_slope=slope)
    gamma, beta = np.array([1.0, -1.0, 1.0, -1.0]), np.array([0.0, -0.0, 0.0, -0.0])
    params = np.concatenate([np.eye(4).ravel(), np.zeros(4), gamma, beta, head]).astype(dtype)
    cache: list = []
    layers = _layers(arch, params[None], init_bn_stats(arch).astype(dtype)[None])
    _forward(arch, layers, X[None], False, _Workspace(dtype), cache)
    pre = cache[0][3]
    assert pre.dtype == dtype
    assert np.signbit(pre[pre == 0]).any() and not np.signbit(pre[pre == 0]).all()
    assert cache[1][0].tobytes() == np.where(pre > 0, pre, slope * pre).tobytes()  # signs of zeros included
    # Backward through the same layer without batch norm.
    arch = Arch(4, (4,), 2, negative_slope=slope)
    params = np.concatenate([np.eye(4).ravel(), np.zeros(4), head]).astype(dtype)
    cache, ws = [], _Workspace(dtype)
    layers = _layers(arch, params[None])
    s = _forward(arch, layers, X[None], True, ws, cache)
    ds = np.random.default_rng(1).standard_normal(s.shape[1:]).astype(dtype)
    grad = _backward(arch, layers, cache, ds[None], ws)[0]
    pre = cache[0][3][0]
    act = np.where(pre > 0, pre, slope * pre)
    dout = (ds @ W2.T) * np.where(pre > 0, dtype(1.0), dtype(slope))
    expected = np.concatenate([(X.T @ dout).ravel(), dout.sum(axis=0), (act.T @ ds).ravel(), ds.sum(axis=0)])
    assert grad.dtype == expected.dtype == dtype
    assert grad.tobytes() == expected.tobytes()


def _matmul_delta_backward(arch, layers, cache, dscores, ws):
    """``models._backward`` with every layer's delta taken as ``dz @ W.T``
    by np.matmul, the form that a fan-out-1 layer's outer product replaces."""
    grad, glayers = ws.grad(arch, dscores.shape[0])
    delta = ws.stack("dscores", -1, *dscores.shape)
    delta[...] = dscores
    for i in reversed(range(len(layers))):
        W, _, gamma, _, _, _ = layers[i]
        gW, gb, ggamma, gbeta, _, _ = glayers[i]
        a_in, zhat, inv_std, out = cache[i]
        R, n, width = delta.shape
        if i < len(arch.hidden):
            dout = np.greater(out, 0, out=ws.stack("dout", i, R, n, width))
            dout *= 1 - arch.negative_slope
            dout += arch.negative_slope
            dout *= delta
        else:
            dout = delta
        if gamma is not None:
            tmp = ws.stack("tmp", -1, R, n, width)
            np.add.reduce(np.multiply(dout, zhat, out=tmp), axis=1, keepdims=True, out=ggamma)
            np.add.reduce(dout, axis=1, keepdims=True, out=gbeta)
            dzhat = np.multiply(dout, gamma, out=dout)
            sum_dzhat = np.add.reduce(dzhat, axis=1, keepdims=True)
            sum_dzhat_zhat = np.add.reduce(np.multiply(dzhat, zhat, out=tmp), axis=1, keepdims=True)
            dz = np.multiply(dzhat, n, out=dzhat)
            dz -= sum_dzhat
            dz -= np.multiply(zhat, sum_dzhat_zhat, out=tmp)
            dz *= inv_std / n
        else:
            dz = dout
        dz = _runs_contiguous(dz, W)
        np.matmul(a_in.transpose(0, 2, 1), dz, out=gW)
        np.add.reduce(dz, axis=1, keepdims=True, out=gb)
        if i > 0:
            delta = np.matmul(dz, W.transpose(0, 2, 1), out=ws.stack("delta", i - 1, R, n, W.shape[1]))
    return grad


def _backward_pair(arch, runs, rows, dtype, seed, params=None):
    """The gradients of ``_backward`` and of its matmul-delta form on one
    random training-mode batch per run, each pass with its own workspace."""
    rng = np.random.default_rng(seed)
    if params is None:
        params = rng.standard_normal((runs, arch.param_count()))
    layers = _layers(arch, params.astype(dtype), np.tile(init_bn_stats(arch), (runs, 1)).astype(dtype))
    cache: list = []
    s = _forward(arch, layers, rng.standard_normal((runs, rows, arch.in_dim)).astype(dtype), True,
                 _Workspace(dtype), cache)
    ds = rng.standard_normal(s.shape).astype(dtype)
    return (_backward(arch, layers, cache, ds, _Workspace(dtype)).copy(),
            _matmul_delta_backward(arch, layers, cache, ds, _Workspace(dtype)).copy())


@settings(max_examples=60, deadline=None)
@given(runs=st.integers(1, 4), rows=st.integers(1, 300), fan_in=st.integers(1, 200),
       width1_hidden=st.booleans(), batch_norm=st.booleans(), dtype=st.sampled_from(DTYPES),
       seed=st.integers(0, 2**16))
def test_fan_out_one_delta_gives_the_matmul_gradient_bits(runs, rows, fan_in, width1_hidden, batch_norm, dtype,
                                                           seed):
    # A batch-normalized layer's dz is exactly zero on a one-row batch, and
    # a zero product's sign is the one difference (see the next test).
    assume(not (batch_norm and width1_hidden and rows == 1))
    arch = Arch(3, (5, 1, fan_in) if width1_hidden else (fan_in,), 1, batch_norm=batch_norm)
    got, want = _backward_pair(arch, runs, rows, dtype, seed)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_fan_out_one_delta_from_the_zero_output_layer_steps_to_the_same_bits(dtype):
    # init_params zeroes the output layer, so the first step's output-layer
    # delta holds zero products, which the outer product leaves signed and
    # the matmul's sum from +0 does not; the optimizer's moments drop the sign.
    arch = Arch(16, (32, 32), 1, batch_norm=True)
    params = np.stack([init_params(arch, seed) for seed in (0, 1)])
    got, want = _backward_pair(arch, 2, 64, dtype, 0, params)
    assert np.array_equal(got, want)
    stepped = []
    for grad in (got, want):
        p, opt = params.astype(dtype), AmsGrad(params.shape, dtype=dtype)
        opt.step(p, grad)
        stepped.append((p.tobytes(), opt.m.tobytes(), opt.v.tobytes()))
    assert stepped[0] == stepped[1]


def test_scores_with_a_reused_workspace_equal_fresh_scores():
    arch = mlp_arch(16, (128, 64))
    rng = np.random.default_rng(3)
    stats = init_bn_stats(arch) + np.abs(rng.standard_normal(arch.bn_stat_count())) * 0.1
    h = Hypothesis(arch, init_params(arch, seed=5) + 0.01 * rng.standard_normal(arch.param_count()), stats)
    for dtype in DTYPES:
        ws = _Workspace(dtype)
        first = None
        for n in (2000, 160, 2000):
            X = rng.standard_normal((n, 16))
            got = scores(h, X, ws)
            assert got.dtype == np.float64
            assert got.tobytes() == scores(h, X, _Workspace(dtype)).tobytes(), dtype
            if first is None:
                first, first_bytes = got, got.tobytes()
        assert first.tobytes() == first_bytes  # later calls do not write into an earlier result


def test_scores_without_a_workspace_are_float64_and_exact_at_a_stump_threshold():
    # The threshold is the midpoint of two values one float32 step apart
    # near 1, so float32 rounds it onto the lower value and would score that
    # value 0, flipping it to class 1; float64 scores it exactly.
    lo, hi = 1.0, 1.0 + 2.0**-23
    t = (lo + hi) / 2
    h = stump_hypothesis(0, t, 1, 1)
    X = np.array([[lo], [t], [hi]])
    got = scores(h, X)
    assert got.dtype == np.float64
    assert got[:, 0].tolist() == [lo - t, 0.0, hi - t]
    assert predict(h, X).tolist() == [0, 1, 1]
    assert scores(h, X, _Workspace(np.float32))[0, 0] == 0.0


def _params_digest(h):
    return hashlib.sha256(h.params.tobytes() + h.bn_stats.tobytes()).hexdigest()


def test_short_last_batch_training_matches_recorded_digest():
    # n is not a multiple of the batch size, so every epoch ends with a
    # shorter batch (a single row for the batch-norm net). The digests are
    # of float32 training widened to float64, and were cross-checked against
    # a float32 trainer that allocates fresh arrays for every intermediate.
    D, _ = gen_gaussian_pair(129, 3, seed=4)
    h = train_erm(D, mlp_arch(3, (16, 8)), TrainConfig(epochs=3, batch_size=64, seed=2))
    assert _params_digest(h) == "798bbc2277d5a3bbe57311a632ada68c2cc05531d04aba3b91d38a4733e1c932"
    D3, _ = gen_gaussian_pair(150, 3, k=3, seed=5)
    h3 = train_erm(D3, mlp_arch(3, (16,), out_dim=3, batch_norm=False),
                   TrainConfig(epochs=3, batch_size=64, seed=3, weight_decay=1e-3))
    assert _params_digest(h3) == "6b2922ad1db8d8639df3c7dbc419a7c6e885da8392eca11f10596c64378aae9b"


# --- gradient check ---------------------------------------------------------


def test_grad_check_linear_logistic():
    rng = np.random.default_rng(0)
    probe = Dataset(rng.standard_normal((4, 3)), np.array([0, 1, 1, 0]), 2)
    assert grad_check(linear_arch(3), probe) < 1e-6


def test_grad_check_mlp_cross_entropy():
    rng = np.random.default_rng(1)
    probe = Dataset(rng.standard_normal((5, 3)), np.array([0, 2, 1, 1, 0]), 3)
    arch = mlp_arch(3, (8, 8), out_dim=3, batch_norm=True)
    assert grad_check(arch, probe) < 1e-4


def test_grad_check_zero_input_probe_is_finite():
    probe = Dataset(np.zeros((4, 3)), np.array([0, 1, 0, 1]), 2)
    err = grad_check(mlp_arch(3, (6,), batch_norm=True), probe)
    assert math.isfinite(err)


def test_grad_check_enforces_small_probe():
    rng = np.random.default_rng(2)
    probe = Dataset(rng.standard_normal((9, 2)), np.zeros(9, dtype=int), 2)
    with pytest.raises(ContractError):
        grad_check(linear_arch(2), probe)


def test_grad_check_rejects_non_positive_step():
    probe = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
    with pytest.raises(ContractError):
        grad_check(linear_arch(2), probe, eps=0.0)


# --- serialization ----------------------------------------------------------


def test_hypothesis_round_trip(tmp_path):
    D, _ = gen_gaussian_pair(60, 3, seed=2)
    h = train_erm(D, mlp_arch(3, (6, 5)), TrainConfig(epochs=4, seed=12))
    path = tmp_path / "model.bin"
    save_hypothesis(h, path)
    back = load_hypothesis(path)
    assert back.arch == h.arch
    assert np.array_equal(back.params, h.params)
    assert np.array_equal(back.bn_stats, h.bn_stats)
    assert back.seed == 12


def test_float32_trained_hypothesis_round_trips_bit_exactly_as_f8(tmp_path):
    D, _ = gen_gaussian_pair(60, 3, seed=2)
    h = train_erm(D, mlp_arch(3, (6, 5)), TrainConfig(epochs=4, seed=12))
    assert h.params.dtype == h.bn_stats.dtype == np.float64
    # the widened float32 values narrow back exactly
    assert np.array_equal(h.params.astype(np.float32).astype(np.float64), h.params)
    path = tmp_path / "model.bin"
    save_hypothesis(h, path)
    assert path.read_bytes()[16:] == h.params.astype(">f8").tobytes() + h.bn_stats.astype(">f8").tobytes()
    back = load_hypothesis(path)
    assert back.params.tobytes() == h.params.tobytes()
    assert back.bn_stats.tobytes() == h.bn_stats.tobytes()


def test_stump_hypothesis_semantics():
    h = stump_hypothesis(1, 0.5, 1, 3)
    X = np.array([[0, 0.4, 0], [0, 0.6, 0], [0, 0.5, 0]])
    assert list(predict(h, X)) == [0, 1, 1]  # tie at threshold goes to class 1
