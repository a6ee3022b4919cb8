import csv
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from phdkit import data
from phdkit.data import (
    Dataset,
    add_feature_noise,
    gen_gaussian_pair,
    read_csv,
    read_idx,
    split,
    write_csv,
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


def write_idx(D: Dataset, images_path, labels_path) -> None:
    """Features (clipped to [0,1], quantized to bytes) as 1 x d IDX images and
    the labels as an IDX label file; multiples of 1/255 round-trip exactly."""
    pixels = np.clip(np.rint(D.X * 255.0), 0, 255).astype(np.uint8)
    _write_raw_idx(images_path, 2051, (D.n, 1, D.d), pixels.tobytes())
    _write_raw_idx(labels_path, 2049, (D.n,), D.y.astype(np.uint8).tobytes())


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


def _csv_writer_bytes(D, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"x{j}" for j in range(D.d)] + (["label"] if D.y is not None else []))
        for i in range(D.n):
            w.writerow([repr(float(v)) for v in D.X[i]] + ([str(int(D.y[i]))] if D.y is not None else []))
    return path.read_bytes()


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_write_csv_bytes_equal_a_csv_writer_reference(labeled, n, tmp_path):
    extremes = [-0.0, 5e-324, 1e300, -1e300, 0.1, -2.5]
    X = np.resize(np.array(extremes), (n, 3))
    D = Dataset(X, np.arange(n) % 2 if labeled else None)
    write_csv(D, tmp_path / "fast.csv")
    assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(D, tmp_path / "reference.csv")


def test_csv_ragged_row_reports_offset(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(FormatError) as e:
        read_csv(p)
    assert e.value.offset == len("a,b\n1,2\n")


@pytest.mark.parametrize("label", ["1.7", "-0.5", "inf", "1e30"])
def test_csv_label_that_is_not_an_int64_integer_reports_its_line_and_offset(label, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(f"x,label\n0.5,0\n1.5,{label}\n")
    with pytest.raises(FormatError, match=f"label '{label}' at line 3") as e:
        read_csv(p, label_col="label")
    assert e.value.offset == len("x,label\n0.5,0\n")


def test_csv_integer_labels_read_as_before(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,label\n0.5,0\n1.5,1.0\n2.5,1\n")
    assert read_csv(p, label_col="label").y.tolist() == [0, 1, 1]
    p.write_text("x,label\n0.5,0\n1.5,-1\n")
    with pytest.raises(ContractError, match="labels must lie"):
        read_csv(p, label_col="label")


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


def test_csv_over_long_field_reports_its_line_and_offset(tmp_path):
    p = tmp_path / "d.csv"
    long = "1" * (csv.field_size_limit() + 1)
    p.write_text(f"x,label\n0.5,0\n\"{long}\",1\n")
    with pytest.raises(FormatError, match="line 3") as e:
        read_csv(p, label_col="label")
    assert e.value.offset == len("x,label\n0.5,0\n")
    p.write_text(f"{long},label\n0.5,0\n")
    with pytest.raises(FormatError, match="line 1") as e:
        read_csv(p, label_col="label")
    assert e.value.offset == 0


def test_csv_optional_label_column_reads_unlabeled_when_absent(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,x1\n0.5,1\n")
    assert read_csv(p, label_col="label", label_optional=True).y is None
    with pytest.raises(FormatError, match="not in header"):
        read_csv(p, label_col="label")
    p.write_text('"label",x0\r1,0.5\r')
    D = read_csv(p, label_col="label", label_optional=True)
    assert D.y.tolist() == [1] and D.X.tolist() == [[0.5]]


@pytest.mark.parametrize("cell,problem", [("1_000", "holds '_' or a non-ASCII character"),
                                          ("\u0663", "holds '_' or a non-ASCII character"),
                                          ("nan", "is not finite"), ("inf", "is not finite"),
                                          ("1e999", "is not finite")])
def test_csv_number_grammar_reports_its_line_and_offset(cell, problem, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(f"x,label\n0.5,0\n{cell},1\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{cell!r} at line 3 {problem}")) as e:
        read_csv(p, label_col="label")
    assert e.value.offset == len("x,label\n0.5,0\n")


def test_csv_header_may_hold_any_utf8_name(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("\u0663_x,label\n0.5,1\n", encoding="utf-8")
    assert read_csv(p, label_col="label").X.tolist() == [[0.5]]


def _read_csv_per_line(path, label_col=None):
    """The reader before the split fast path: one csv.reader per line, a
    running byte offset, and a float comprehension per row, with the number
    grammar checked cell by cell and finiteness row by row at the end."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        lines = raw.decode("utf-8").splitlines(keepends=True)
    except UnicodeDecodeError as e:
        raise FormatError(f"CSV file {path} is not UTF-8 text", offset=e.start) from None
    if not lines:
        raise FormatError(f"empty CSV file {path}", offset=0)
    header = next(csv.reader([lines[0]]))
    ncols = len(header)
    label_idx = None
    if label_col is not None:
        if label_col not in header:
            raise FormatError(f"label column {label_col!r} not in header {header}")
        label_idx = header.index(label_col)

    rows, labels, where = [], [], []
    offset = len(lines[0].encode("utf-8"))
    for lineno, line in enumerate(lines[1:], start=2):
        line_bytes = len(line.encode("utf-8"))
        if not line.strip():
            offset += line_bytes
            continue
        rec = next(csv.reader([line]))
        if len(rec) != ncols:
            raise FormatError(
                f"ragged CSV row at line {lineno}: {len(rec)} fields, expected {ncols}",
                offset=offset,
            )
        for v in rec:
            if not v.isascii() or "_" in v:
                raise FormatError(f"cell {v!r} at line {lineno} holds '_' or a non-ASCII character", offset=offset)
        try:
            vals = [float(v) for i, v in enumerate(rec) if i != label_idx]
            label = float(rec[label_idx]) if label_idx is not None else 0.0
        except ValueError as e:
            raise FormatError(f"non-numeric value at line {lineno}: {e}", offset=offset) from None
        if not (label.is_integer() and -2**63 <= label < 2**63):
            raise FormatError(f"label {rec[label_idx]!r} at line {lineno} is not an int64 integer", offset=offset)
        rows.append(vals)
        labels.append(int(label))
        where.append(([v for i, v in enumerate(rec) if i != label_idx], lineno, offset))
        offset += line_bytes
    if not rows:
        raise FormatError(f"CSV file {path} has a header but no data rows", offset=offset)
    for vals, (cells, lineno, off) in zip(rows, where):
        for v, cell in zip(vals, cells):
            if not math.isfinite(v):
                raise FormatError(f"feature {cell!r} at line {lineno} is not finite", offset=off)
    X = np.asarray(rows, dtype=np.float64)
    if label_idx is None:
        return Dataset(X)
    y = np.asarray(labels, dtype=np.int64)
    return Dataset(X, y, max(2, int(y.max()) + 1))


# float() reads "1_0" and "\u0663" (10 and 3) but the CSV grammar does not, and the
# rest of the first row is not numeric; inf, -inf and nan are not finite features
_ODD_CELLS = ("abc", "", '1"2', "1,5", "0x1", "--1", "1_0", "\u0663", "1.7", "inf", "-inf", "nan", "1e30", "-1", " 2 ")
_LABELS = st.one_of(st.sampled_from(["0", "1", "2", "1.0", "-0.0"]), st.sampled_from(_ODD_CELLS))
_FEATURES = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.integers(-5, 5).map(str), st.sampled_from(_ODD_CELLS))


@st.composite
def _csv_texts(draw):
    """A CSV text and the label column to read it with."""
    ncols = draw(st.integers(1, 4))
    label_at = draw(st.sampled_from([None, *range(ncols)]))

    def cells(values):
        # a cell holding a comma or a quote is written quoted, as csv.writer would
        return [f'"{v.replace(chr(34), 2 * chr(34))}"' if draw(st.booleans()) or "," in v else v for v in values]

    lines = [cells(["label" if j == label_at else f"x{j}" for j in range(ncols)])]
    for kind in draw(st.lists(st.sampled_from(["row", "row", "row", "blank", "space", "ragged"]), max_size=6)):
        if kind in ("blank", "space"):
            lines.append(["" if kind == "blank" else draw(st.sampled_from([" ", "\t", " \t "]))])
            continue
        width = ncols if kind == "row" else draw(st.integers(1, ncols + 1))
        lines.append(cells([draw(_LABELS if j == label_at else _FEATURES) for j in range(width)]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0c"]), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(",".join(line) + end for line, end in zip(lines, ends))
    return text, draw(st.sampled_from([None, "label"]))


def _csv_outcome(read, path, label_col):
    try:
        D = read(path, label_col)
    except Exception as e:
        return type(e), str(e), getattr(e, "offset", None)
    return D.X.shape, D.X.tobytes(), None if D.y is None else D.y.tolist(), D.k


@settings(deadline=None, max_examples=400)
@given(case=_csv_texts())
@example(case=("label,x0\nabc,xyz\n", "label"))  # two bad cells: the feature's is named
def test_read_csv_matches_the_per_line_reader(case, tmp_path_factory):
    text, label_col = case
    p = tmp_path_factory.mktemp("csv") / "d.csv"
    p.write_bytes(text.encode("utf-8"))
    assert _csv_outcome(read_csv, p, label_col) == _csv_outcome(_read_csv_per_line, p, label_col)


def _plain_cell(rng: random.Random, label: bool) -> str:
    """One cell over the plain-decimal alphabet: mostly a number the column
    accepts, sometimes an empty, malformed or out-of-grammar cell."""
    r = rng.random()
    if r < 0.9:
        return str(rng.randint(0, 3)) if label else rng.choice(
            [repr(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30)), str(rng.randint(-5, 5))])
    if r < 0.95:
        return rng.choice(["", "1.0", "1.5", "-0.0", "1e30", "1e999", "-1", "2E0", "+.5", "1e-999"])
    return "".join(rng.choices("0123456789+-.eE", k=rng.randint(0, 5)))


def _plain_csv_text(rng: random.Random) -> tuple[str, str | None]:
    """A CSV text whose body is all digits, signs, points, exponents, commas
    and line ends, with ragged rows and blank lines, and the label column to
    read it with."""
    ncols = rng.randint(1, 4)
    label_at = rng.choice([None, *range(ncols)])
    lines = [",".join("label" if j == label_at else f"x{j}" for j in range(ncols))]
    for _ in range(rng.randint(0, 6)):
        kind = rng.choices(["row", "blank", "ragged"], [0.85, 0.08, 0.07])[0]
        width = ncols if kind == "row" else 0 if kind == "blank" else rng.randint(1, ncols + 1)
        lines.append(",".join(_plain_cell(rng, j == label_at) for j in range(width)))
    ends = rng.choices(["\n", "\r\n", "\r"], k=len(lines))
    if rng.random() < 0.5:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), rng.choice([None, "label"])


def test_read_csv_bulk_path_matches_the_per_line_reader(tmp_path, monkeypatch):
    bulk = []

    def counted(*args):
        X = read_plain_body(*args)
        bulk.append(X is not None)
        return X

    read_plain_body = data._read_plain_body
    monkeypatch.setattr(data, "_read_plain_body", counted)
    rng = random.Random(0)
    p = tmp_path / "d.csv"
    parsed = 0
    for _ in range(600):
        text, label_col = _plain_csv_text(rng)
        p.write_bytes(text.encode())
        outcome = _csv_outcome(read_csv, p, label_col)
        assert outcome == _csv_outcome(_read_csv_per_line, p, label_col), text
        parsed += not isinstance(outcome[0], type)
    # the draws run both the bulk reader and its fall-back, and many parse
    assert sum(bulk) >= 150 and bulk.count(False) >= 150 and parsed >= 150


# np.loadtxt strips \x1c-\x1f as whitespace and reads the first two as 2.0; float() rejects them
@pytest.mark.parametrize("cell", ["\x1f2", "2\x1c", "1_0", "nan"])
def test_cells_outside_the_plain_alphabet_fail_as_in_the_line_loop(cell, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(f"x,label\n0.5,0\n{cell},1\n")
    outcome = _csv_outcome(read_csv, p, "label")
    assert outcome == _csv_outcome(_read_csv_per_line, p, "label")
    assert outcome[0] is FormatError and outcome[2] == len("x,label\n0.5,0\n")


def test_csv_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"\xef\xbb\xbflabel,x0\r\n1,0.5\r\n0,1.5\r\n")
    for D in (read_csv(p, label_col="label"), read_csv(p, label_col="label", label_optional=True)):
        assert D.y.tolist() == [1, 0] and D.X.tolist() == [[0.5], [1.5]]
    # offsets still count the file's bytes, the mark's three included
    p.write_bytes(b"\xef\xbb\xbfx,label\n0.5,0\n1.5,abc\n")
    with pytest.raises(FormatError, match="line 3") as e:
        read_csv(p, label_col="label")
    assert e.value.offset == 3 + len("x,label\n0.5,0\n")
    p.write_bytes(b"\xef\xbb\xbfx,label\n\xe9,0\n")
    with pytest.raises(FormatError, match="not UTF-8") as e:
        read_csv(p, label_col="label")
    assert e.value.offset == 3 + len("x,label\n")
    p.write_bytes(b"\xef\xbb\xbf")
    with pytest.raises(FormatError, match="empty CSV file") as e:
        read_csv(p)
    assert e.value.offset == 0


# --- split -----------------------------------------------------------------


def test_split_half_half_sizes():
    D, _ = gen_gaussian_pair(10, 2, seed=0)
    parts = split(D, (0.5, 0.5), seed=1)
    assert [p.n for p in parts] == [5, 5]


def test_split_same_seed_identical():
    D, _ = gen_gaussian_pair(20, 2, seed=0)
    a = split(D, (0.3, 0.7), seed=4)
    b = split(D, (0.3, 0.7), seed=4)
    for x, y in zip(a, b):
        assert np.array_equal(x.X, y.X)


def test_split_union_recovers_everything():
    D, _ = gen_gaussian_pair(23, 2, seed=0)
    parts = split(D, (0.4, 0.6), seed=2)
    rows = np.vstack([p.X for p in parts])
    assert rows.shape[0] == D.n
    # every original row appears exactly once
    orig = {tuple(r) for r in D.X}
    got = [tuple(r) for r in rows]
    assert len(got) == len(set(got)) and set(got) == orig


def test_split_empty_subset_rejected():
    D, _ = gen_gaussian_pair(4, 2, seed=0)
    with pytest.raises(ConfigError):
        split(D, (0.01, 0.99), seed=0)


@given(st.integers(6, 60), st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_split_disjoint_property(n, seed):
    D = Dataset(np.arange(n, dtype=float).reshape(-1, 1))
    parts = split(D, (0.25, 0.25, 0.5), seed=seed)
    seen = [v for p in parts for v in p.X[:, 0]]
    assert len(seen) == len(set(seen)) == n


def test_dataset_validation():
    with pytest.raises(ContractError):
        Dataset(np.zeros((2, 2)), y=np.array([0, 5]), k=2)
    with pytest.raises(ContractError):
        Dataset(np.array([[np.inf, 0.0]]))
    with pytest.raises(DegenerateInputError):
        split(Dataset(np.zeros((0, 2))), (0.5, 0.5), seed=0)
