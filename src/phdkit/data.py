"""Datasets, synthetic two-domain generators, and file ingestion.

A :class:`Dataset` is a feature matrix plus optional integer labels and
their class count. Generators produce source/target pairs where the target
is the source distribution pushed through a shift plus an in-plane
rotation, so ``shift=0, rotate=0`` yields two independent draws from the
same distribution. IDX (MNIST layout) and CSV readers let the same estimators
run on external files.
"""

from __future__ import annotations

import csv as _csv
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractError, DegenerateInputError, FormatError
from .numkit import child_rng

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

LABEL_RULES = ("linear", "xor", "moons")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional labels.

    ``y`` holds integers in {0..k-1} when present (None for unlabeled
    target data).
    """

    X: np.ndarray
    y: np.ndarray | None = None
    k: int = 2

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ContractError(f"features must be 2-D, got ndim={X.ndim}")
        if X.size and not np.all(np.isfinite(X)):
            raise ContractError("features contain non-finite values")
        object.__setattr__(self, "X", X)
        if self.y is not None:
            y = np.asarray(self.y, dtype=np.int64)
            if y.shape != (X.shape[0],):
                raise ContractError(f"label length {y.shape} does not match n={X.shape[0]}")
            if y.size and (y.min() < 0 or y.max() >= self.k):
                raise ContractError(f"labels must lie in [0, {self.k}), got range [{y.min()}, {y.max()}]")
            object.__setattr__(self, "y", y)
        if self.k < 1:
            raise ContractError(f"class count must be >= 1, got {self.k}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def labeled(self) -> bool:
        return self.y is not None

    def without_labels(self) -> "Dataset":
        return replace(self, y=None)

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.X[idx], None if self.y is None else self.y[idx], self.k)


def _mixture_centers(k: int, d: int, radius: float, layout_seed: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Blob centers and label assignment for the k-component mixture.

    The canonical layout places components on a circle in the first two
    coordinates (a line if d == 1). A layout seed randomizes both the
    directions and the component-to-label assignment, which is how an
    independent labeling rule for an unrelated domain is produced.
    """
    centers = np.zeros((k, d))
    if d == 1:
        centers[:, 0] = (np.arange(k) - (k - 1) / 2.0) * radius
    else:
        angles = 2.0 * math.pi * np.arange(k) / k
        centers[:, 0] = radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles)
    labels = np.arange(k)
    if layout_seed is not None:
        rng = child_rng(layout_seed, 71)
        theta = rng.uniform(0, 2 * math.pi)
        if d >= 2:
            rot = np.eye(d)
            rot[0, 0] = rot[1, 1] = math.cos(theta)
            rot[0, 1] = -math.sin(theta)
            rot[1, 0] = math.sin(theta)
            centers = centers @ rot.T
        labels = rng.permutation(k)
    return centers, labels


def _sample_mixture(
    n: int,
    d: int,
    k: int,
    rule: str,
    rng: np.random.Generator,
    centers: np.ndarray,
    label_of: np.ndarray,
    blob_std: float,
) -> tuple[np.ndarray, np.ndarray]:
    if rule == "linear":
        comp = rng.integers(0, k, size=n)
        X = centers[comp] + blob_std * rng.standard_normal((n, d))
        return X, label_of[comp]
    if rule == "xor":
        a = 1.5
        corners = np.array([[a, a], [-a, -a], [a, -a], [-a, a]])
        quad = rng.integers(0, 4, size=n)
        X = blob_std * rng.standard_normal((n, d))
        X[:, :2] += corners[quad]
        return X, (quad >= 2).astype(np.int64)
    if rule == "moons":
        cls = rng.integers(0, 2, size=n)
        t = rng.uniform(0.0, math.pi, size=n)
        X = blob_std * rng.standard_normal((n, d))
        X[:, 0] += np.where(cls == 0, np.cos(t), 1.0 - np.cos(t))
        X[:, 1] += np.where(cls == 0, np.sin(t), 0.5 - np.sin(t))
        return X, cls.astype(np.int64)
    raise ConfigError(f"unknown label rule {rule!r}; expected one of {LABEL_RULES}")


def gen_gaussian_pair(
    n: int,
    d: int,
    shift=0.0,
    rotate: float = 0.0,
    label_rule: str = "linear",
    seed: int = 0,
    k: int = 2,
    blob_std: float = 0.6,
    radius: float = 2.5,
    layout_seed: int | None = None,
) -> tuple[Dataset, Dataset]:
    """Draw a labeled source and a transformed labeled target.

    Both domains are i.i.d. draws from the same mixture; target features are
    then rotated by ``rotate`` radians in the (0, 1) plane and shifted by
    ``shift``. Labels are assigned before the transform, so target labels
    are oracle labels of the pre-image (estimators never read them).
    """
    if n < 4:
        raise ContractError(f"n must be >= 4, got {n}")
    if d < 1 or k < 1:
        raise ContractError(f"d and k must be >= 1, got d={d}, k={k}")
    if label_rule not in LABEL_RULES:
        raise ConfigError(f"unknown label rule {label_rule!r}; expected one of {LABEL_RULES}")
    if label_rule in ("xor", "moons"):
        if d < 2:
            raise ContractError(f"label rule {label_rule!r} needs d >= 2")
        if k != 2:
            raise ConfigError(f"label rule {label_rule!r} is binary, got k={k}")
    shift_vec = np.broadcast_to(np.atleast_1d(np.asarray(shift, dtype=np.float64)), (d,)).copy() \
        if np.ndim(shift) == 0 else np.asarray(shift, dtype=np.float64)
    if shift_vec.shape != (d,):
        raise ContractError(f"shift must be scalar or length {d}, got shape {shift_vec.shape}")
    if not math.isfinite(rotate):
        raise ConfigError(f"rotation must be a finite angle, got {rotate}")
    if rotate != 0.0 and d < 2:
        raise ContractError("rotation needs d >= 2")

    if label_rule == "moons":
        blob_std = min(blob_std, 0.15)
    centers, label_of = _mixture_centers(k, d, radius, layout_seed)
    Xs, ys = _sample_mixture(n, d, k, label_rule, child_rng(seed, 0), centers, label_of, blob_std)
    Xt, yt = _sample_mixture(n, d, k, label_rule, child_rng(seed, 1), centers, label_of, blob_std)

    if rotate != 0.0:
        c, s = math.cos(rotate), math.sin(rotate)
        rot2 = np.array([[c, -s], [s, c]])
        Xt = Xt.copy()
        Xt[:, :2] = Xt[:, :2] @ rot2.T
    Xt = Xt + shift_vec

    kk = 2 if label_rule in ("xor", "moons") else k
    return Dataset(Xs, ys, kk), Dataset(Xt, yt, kk)


def add_feature_noise(D: Dataset, sigma: float, seed: int = 0) -> Dataset:
    """Add i.i.d. N(0, sigma^2) noise per feature; labels untouched."""
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return D
    rng = child_rng(seed, 2)
    return replace(D, X=D.X + sigma * rng.standard_normal(D.X.shape))


# ---------------------------------------------------------------------------
# IDX (big-endian MNIST layout) and CSV ingestion
# ---------------------------------------------------------------------------


def _read_be32(buf: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(buf):
        raise FormatError(f"truncated while reading {what}", offset=offset)
    return struct.unpack_from(">I", buf, offset)[0]


def _read_idx_images(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    magic = _read_be32(buf, 0, "image magic")
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"bad image magic {magic} (expected {IDX_IMAGE_MAGIC}) in {path}", offset=0)
    n = _read_be32(buf, 4, "image count")
    rows = _read_be32(buf, 8, "row count")
    cols = _read_be32(buf, 12, "column count")
    if n == 0:
        raise FormatError(f"IDX image file {path} holds no images", offset=4)
    need = 16 + n * rows * cols
    if len(buf) < need:
        raise FormatError(f"truncated image payload in {path}: have {len(buf)} bytes, need {need}", offset=len(buf))
    pixels = np.frombuffer(buf, dtype=np.uint8, count=n * rows * cols, offset=16)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0


def _read_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    magic = _read_be32(buf, 0, "label magic")
    if magic != IDX_LABEL_MAGIC:
        raise FormatError(f"bad label magic {magic} (expected {IDX_LABEL_MAGIC}) in {path}", offset=0)
    n = _read_be32(buf, 4, "label count")
    if len(buf) < 8 + n:
        raise FormatError(f"truncated label payload in {path}: have {len(buf)} bytes, need {8 + n}", offset=len(buf))
    return np.frombuffer(buf, dtype=np.uint8, count=n, offset=8).astype(np.int64)


def read_idx(images_path, labels_path=None) -> Dataset:
    """Read an IDX image file (pixels scaled to b/255) plus optional labels."""
    X = _read_idx_images(images_path)
    y = None
    k = 2
    if labels_path is not None:
        y = _read_idx_labels(labels_path)
        if y.shape[0] != X.shape[0]:
            raise FormatError(
                f"label count {y.shape[0]} does not match image count {X.shape[0]}",
                offset=4,
            )
        k = max(2, int(y.max()) + 1)  # y is not empty: an image file holds an image
    return Dataset(X, y, k)


def read_csv(path, label_col: str | None = None, *, label_optional: bool = False) -> Dataset:
    """Parse a header-row CSV into a Dataset.

    ``label_col`` names the label column in the header; a header without it
    is a ``FormatError``, unless ``label_optional`` is set, in which case the
    file reads as unlabeled. Label values must be integers within int64
    (``1`` and ``1.0`` alike); the class count is one more than the largest
    label, and at least 2.

    The header and any line that holds a ``"`` are parsed by ``csv``; every
    other line is split on commas, and each cell is read by ``float()``.
    A data cell that holds ``_`` or a non-ASCII character, which ``float()``
    would accept, is malformed, as is a non-finite feature. A malformed line
    raises a ``FormatError`` whose ``offset`` is the byte offset of the
    line's start, computed only when raising; a non-finite feature is
    reported after every line has parsed.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        lines = raw.decode("utf-8").splitlines(keepends=True)
    except UnicodeDecodeError as e:
        raise FormatError(f"CSV file {path} is not UTF-8 text", offset=e.start) from None
    if not lines:
        raise FormatError(f"empty CSV file {path}", offset=0)

    def fail(message: str, lineno: int) -> FormatError:
        return FormatError(message, offset=len("".join(lines[: lineno - 1]).encode("utf-8")))

    def parse(lineno: int) -> list[str]:
        line = lines[lineno - 1]
        if '"' not in line and lineno > 1:
            return line.rstrip("\r\n").split(",")
        try:
            return next(_csv.reader([line]))
        except _csv.Error as e:  # e.g. a field longer than csv.field_size_limit()
            raise fail(f"unparseable CSV line {lineno}: {e}", lineno) from None

    header = parse(1)
    ncols = len(header)
    label_idx = header.index(label_col) if label_col in header else None
    if label_idx is None and label_col is not None and not label_optional:
        raise FormatError(f"label column {label_col!r} not in header {header}")

    body = raw[len(lines[0].encode("utf-8")):]
    odd_body = not body.isascii() or b"_" in body  # only then are lines checked one by one
    flat: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = parse(lineno)
        if len(rec) != ncols:
            raise fail(f"ragged CSV row at line {lineno}: {len(rec)} fields, expected {ncols}", lineno)
        if odd_body and (not line.isascii() or "_" in line):
            for v in rec:
                if not v.isascii() or "_" in v:
                    raise fail(f"cell {v!r} at line {lineno} holds '_' or a non-ASCII character", lineno)
        try:
            flat += map(float, rec)
        except ValueError:
            try:  # name the first bad cell in reading order: features, then the label
                [float(v) for i, v in enumerate(rec) if i != label_idx]
                float(rec[label_idx])
            except ValueError as e:
                raise fail(f"non-numeric value at line {lineno}: {e}", lineno) from None
        if label_idx is not None:
            label = flat[label_idx - ncols]
            if not (label.is_integer() and -2**63 <= label < 2**63):  # NaN and inf fail is_integer
                raise fail(f"label {rec[label_idx]!r} at line {lineno} is not an int64 integer", lineno)
    if not flat:
        raise FormatError(f"CSV file {path} has a header but no data rows", offset=len(raw))
    X = np.array(flat).reshape(-1, ncols)
    finite = np.isfinite(X)
    if not finite.all():  # labels are finite integers by now, so a feature is at fault
        r, c = np.argwhere(~finite)[0]
        lineno = [i for i, line in enumerate(lines[1:], start=2) if line.strip()][r]
        raise fail(f"feature {parse(lineno)[c]!r} at line {lineno} is not finite", lineno)
    if label_idx is None:
        return Dataset(X)
    y = X[:, label_idx].astype(np.int64)
    return Dataset(np.delete(X, label_idx, axis=1), y, max(2, int(y.max()) + 1))


def write_csv(D: Dataset, path) -> None:
    """Emit features (and labels, when present) with a header row.

    The bytes are those of ``csv.writer``: no field needs quoting, and
    every line ends in ``\\r\\n``.
    """
    header = [f"x{j}" for j in range(D.d)]
    rows = D.X.tolist()
    if D.y is not None:
        header.append("label")
        for row, label in zip(rows, D.y.tolist()):
            row.append(label)
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n" + "".join(",".join(map(repr, row)) + "\r\n" for row in rows))


def split(D: Dataset, fractions: tuple[float, ...], seed: int = 0) -> list[Dataset]:
    """Seeded disjoint split by positive fractions that sum to <= 1, sized by
    the floor-then-remainder rule."""
    fractions = tuple(map(float, fractions))
    if not fractions or any(f <= 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:
        raise ConfigError(f"split needs positive fractions that sum to <= 1, got {fractions}")
    n = D.n
    if n == 0:
        raise DegenerateInputError("cannot split an empty dataset")
    targets = [f * n for f in fractions]
    sizes = [int(math.floor(t + 1e-9)) for t in targets]
    total = int(math.floor(sum(targets) + 1e-9))
    leftovers = total - sum(sizes)
    if leftovers > 0:
        order = sorted(range(len(sizes)), key=lambda i: (-(targets[i] - sizes[i]), i))
        for i in order[:leftovers]:
            sizes[i] += 1
    if any(s == 0 for s in sizes):
        raise ConfigError(f"split fractions {fractions} yield an empty subset at n={n}")
    perm = child_rng(seed, 3).permutation(n)
    out, start = [], 0
    for s in sizes:
        out.append(D.take(np.sort(perm[start : start + s])))
        start += s
    return out
