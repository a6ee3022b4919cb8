import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from phdkit.data import (
    Dataset,
    SplitSpec,
    add_feature_noise,
    gen_gaussian_pair,
    read_csv,
    read_idx,
    split,
    write_csv,
    write_idx,
)
from phdkit.errors import ConfigError, ContractError, DegenerateInputError, FormatError


def best_stump_separates(xs, xt) -> bool:
    """Brute-force: does any threshold on this feature split the two samples?"""
    for t in np.sort(np.concatenate([xs, xt])):
        if (xs < t).all() and (xt >= t).all():
            return True
        if (xt < t).all() and (xs >= t).all():
            return True
    return False


def test_identical_pair_means_close():
    n = 2000
    S, T = gen_gaussian_pair(n, 3, shift=0.0, rotate=0.0, seed=11)
    diff = np.abs(S.X.mean(axis=0) - T.X.mean(axis=0))
    scale = S.X.std(axis=0)
    assert np.all(diff <= 6 * scale / np.sqrt(n))


def test_large_shift_is_stump_separable_on_feature_zero():
    S, T = gen_gaussian_pair(300, 2, shift=np.array([10.0, 0.0]), seed=4)
    assert best_stump_separates(S.X[:, 0], T.X[:, 0])


def test_moons_labels_roughly_balanced():
    S, _ = gen_gaussian_pair(200, 2, label_rule="moons", seed=0)
    frac = S.y.mean()
    assert 0.45 <= frac <= 0.55


def test_unknown_rule_rejected():
    with pytest.raises(ConfigError):
        gen_gaussian_pair(10, 2, label_rule="spirals", seed=0)


@pytest.mark.parametrize("k", [0, -1])
def test_class_count_below_one_rejected(k):
    with pytest.raises(ContractError):
        gen_gaussian_pair(10, 2, k=k, seed=0)


def test_xor_needs_two_dims():
    with pytest.raises(ContractError):
        gen_gaussian_pair(10, 1, label_rule="xor", seed=0)


def test_generator_deterministic():
    a = gen_gaussian_pair(50, 2, seed=9)[0]
    b = gen_gaussian_pair(50, 2, seed=9)[0]
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_identical_domains_pass_mean_test_in_most_runs():
    # two-sample z statistic per feature, chi-square combined, 99% critical
    n, d, passed = 400, 3, 0
    crit = stats.chi2.ppf(0.99, d)
    for seed in range(100):
        S, T = gen_gaussian_pair(n, d, shift=0.0, seed=seed)
        num = S.X.mean(0) - T.X.mean(0)
        den = np.sqrt(S.X.var(0, ddof=1) / n + T.X.var(0, ddof=1) / n)
        stat = float(np.sum((num / den) ** 2))
        passed += stat < crit
    assert passed >= 95


def test_noise_sigma_zero_is_bitwise_identity():
    D, _ = gen_gaussian_pair(40, 3, seed=1)
    assert add_feature_noise(D, 0.0, seed=5) is D


def test_noise_grid_accepted():
    D, _ = gen_gaussian_pair(20, 2, seed=1)
    for sigma in (0.1, 0.2, 0.3, 0.4, 0.5):
        add_feature_noise(D, sigma, seed=3)


def test_noise_variance_inflation():
    D, _ = gen_gaussian_pair(4000, 2, seed=2)
    N = add_feature_noise(D, 0.3, seed=7)
    inflation = N.X.var(axis=0, ddof=1) - D.X.var(axis=0, ddof=1)
    assert np.all(np.abs(inflation - 0.09) <= 0.2 * 0.09 + 6 * 0.09 / np.sqrt(4000))


def test_negative_sigma_rejected():
    D, _ = gen_gaussian_pair(10, 2, seed=1)
    with pytest.raises(ConfigError):
        add_feature_noise(D, -0.1, seed=0)


# --- IDX -------------------------------------------------------------------


def _write_raw_idx(path, magic, dims, payload: bytes):
    import struct

    with open(path, "wb") as f:
        f.write(struct.pack(">I", magic))
        for v in dims:
            f.write(struct.pack(">I", v))
        f.write(payload)


def test_idx_two_image_fixture(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    _write_raw_idx(img, 2051, (2, 2, 2), bytes([0, 0, 0, 0, 255, 255, 255, 255]))
    _write_raw_idx(lab, 2049, (2,), bytes([0, 1]))
    D = read_idx(img, lab)
    assert np.array_equal(D.X[0], np.zeros(4))
    assert np.array_equal(D.X[1], np.ones(4))
    assert list(D.y) == [0, 1]


def test_idx_count_mismatch(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    _write_raw_idx(img, 2051, (3, 1, 1), bytes([1, 2, 3]))
    _write_raw_idx(lab, 2049, (2,), bytes([0, 1]))
    with pytest.raises(FormatError):
        read_idx(img, lab)


def test_idx_bad_magic_reports_offset(tmp_path):
    img = tmp_path / "img.idx"
    _write_raw_idx(img, 2052, (1, 1, 1), bytes([0]))
    with pytest.raises(FormatError) as e:
        read_idx(img)
    assert e.value.offset == 0


def test_idx_truncated_payload(tmp_path):
    img = tmp_path / "img.idx"
    _write_raw_idx(img, 2051, (2, 2, 2), bytes([0, 0, 0]))
    with pytest.raises(FormatError) as e:
        read_idx(img)
    assert e.value.offset is not None


@pytest.mark.parametrize("rows", [2, 2**32 - 1])
def test_idx_without_images_is_a_format_error(rows, tmp_path):
    # no payload is needed for zero images, so the row width is unchecked;
    # a huge one used to fail in numpy's reshape with a ValueError
    img = tmp_path / "img.idx"
    _write_raw_idx(img, 2051, (0, rows, rows), b"")
    with pytest.raises(FormatError) as e:
        read_idx(img)
    assert e.value.offset == 4


def test_idx_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    grid = rng.integers(0, 256, size=(5, 7)).astype(np.float64) / 255.0
    D = Dataset(grid, np.array([0, 1, 2, 1, 0]), 3)
    img, lab = tmp_path / "a.idx", tmp_path / "b.idx"
    write_idx(D, img, lab)
    back = read_idx(img, lab)
    assert np.max(np.abs(back.X - D.X)) <= 1e-9
    assert np.array_equal(back.y, D.y)


def test_idx_byte_scaling_exact(tmp_path):
    img = tmp_path / "img.idx"
    _write_raw_idx(img, 2051, (1, 1, 3), bytes([0, 128, 255]))
    D = read_idx(img)
    assert np.array_equal(D.X[0], np.array([0, 128, 255]) / 255.0)


# --- CSV -------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    D, _ = gen_gaussian_pair(30, 3, seed=5)
    p = tmp_path / "d.csv"
    write_csv(D, p)
    back = read_csv(p, label_col="label")
    assert np.allclose(back.X, D.X, atol=0)
    assert np.array_equal(back.y, D.y)


def test_csv_label_by_index(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,c\n1,2,0\n3,4,1\n")
    D = read_csv(p, label_col=2)
    assert D.d == 2 and list(D.y) == [0, 1]


def test_csv_ragged_row_reports_offset(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(FormatError) as e:
        read_csv(p)
    assert e.value.offset == len("a,b\n1,2\n")


def test_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(FormatError):
        read_csv(p)


def test_csv_not_utf8_reports_offset(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes("x,label\n\xe9,0\n".encode("latin-1"))
    with pytest.raises(FormatError) as e:
        read_csv(p, label_col="label")
    assert e.value.offset == len("x,label\n")


# --- split -----------------------------------------------------------------


def test_split_half_half_sizes():
    D, _ = gen_gaussian_pair(10, 2, seed=0)
    parts = split(D, SplitSpec((0.5, 0.5), seed=1))
    assert [p.n for p in parts] == [5, 5]


def test_split_same_seed_identical():
    D, _ = gen_gaussian_pair(20, 2, seed=0)
    a = split(D, SplitSpec((0.3, 0.7), seed=4))
    b = split(D, SplitSpec((0.3, 0.7), seed=4))
    for x, y in zip(a, b):
        assert np.array_equal(x.X, y.X)


def test_split_union_recovers_everything():
    D, _ = gen_gaussian_pair(23, 2, seed=0)
    parts = split(D, SplitSpec((0.4, 0.6), seed=2))
    rows = np.vstack([p.X for p in parts])
    assert rows.shape[0] == D.n
    # every original row appears exactly once
    orig = {tuple(r) for r in D.X}
    got = [tuple(r) for r in rows]
    assert len(got) == len(set(got)) and set(got) == orig


def test_split_empty_subset_rejected():
    D, _ = gen_gaussian_pair(4, 2, seed=0)
    with pytest.raises(ConfigError):
        split(D, SplitSpec((0.01, 0.99), seed=0))


@given(st.integers(6, 60), st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_split_disjoint_property(n, seed):
    D = Dataset(np.arange(n, dtype=float).reshape(-1, 1))
    parts = split(D, SplitSpec((0.25, 0.25, 0.5), seed=seed))
    seen = [v for p in parts for v in p.X[:, 0]]
    assert len(seen) == len(set(seen)) == n


def test_dataset_validation():
    with pytest.raises(ContractError):
        Dataset(np.zeros((2, 2)), y=np.array([0, 5]), k=2)
    with pytest.raises(ContractError):
        Dataset(np.array([[np.inf, 0.0]]))
    with pytest.raises(DegenerateInputError):
        split(Dataset(np.zeros((0, 2))), SplitSpec((0.5, 0.5), seed=0))
