"""Hypotheses, losses, and the empirical-risk-minimization trainer.

Hypotheses are linear models or small MLPs (leaky-ReLU slope 0.1, optional
batch normalization before each hidden activation) scored by a manual
forward pass; gradients come from hand-written backpropagation validated by
:func:`grad_check`. Training minimizes the logistic loss for a single score
and cross-entropy otherwise, with Adam and the AMSGrad correction (in
place), which keeps a per-parameter running maximum of the second-moment
estimate. In-place steps keep the operand order of the plain expressions,
so the bits do not depend on the buffers. The leaky ReLU max(x, slope * x)
and its derivative slope + (1 - slope) * [x > 0] are exact because the
slope must lie in [0, 1].

Every array of the passes and the optimizer carries a leading replica
axis: :func:`train_erm_many`, the one training loop, trains runs of one
architecture that share every setting but the seed, and the R runs of each
row count train in lockstep, one step of every run per step of the loop,
which saves R - 1 of each step's numpy calls on small networks. Each run
may carry its own per-epoch metric. :func:`train_erm` and
:func:`train_erm_traced` are its one-run cases, and scoring runs one
replica. Both passes read one layer table of views into the R x count
parameter and statistic arrays, built once per lockstep pass or scoring
call, and write hidden-layer arrays into a workspace of buffers reused for
one lockstep pass or one caller's run of scoring calls.

The layout lets numpy do each per-run, per-unit job as one inner loop
across the runs: each layer-table entry is one block across the runs
(``_layers``), and the layers' arrays hold the rows outermost
(``_Workspace.stack``). Each run's slice still gets the bits it gets alone
in the R = 1 layout, which is the one-run memory layout: per-run matmuls
read strided rows (BLAS gemm's bits do not depend on the leading
dimension), row sums of width 2 or more add rows in order either way,
width-1 arrays stay runs-first, where numpy sums each run's rows pairwise,
and a layer with a width-1 side reads per-run contiguous operands
(``_runs_contiguous``), since its matmuls run BLAS gemv, whose bits follow
the strides. The loss works runs-first, so its sums over rows are per-run
contiguous, and its class-axis sums stay reductions over a contiguous
class axis.

The workspace fixes the compute dtype. Training runs in ``TRAIN_DTYPE``
(float32): parameters, batch-norm statistics, optimizer state and batches,
with the loss and its gradient taken in float64. A frozen hypothesis holds
float64 vectors, which represent the float32 values exactly, and is scored
in float64 unless the caller passes a float32 workspace, as the adversarial
witness does for training snapshots. Exact constructions such as stumps, the
gradient check and model files stay float64.

Binary tasks use labels {0, 1} internally; the signed-score convention
(+1 at score >= 0) only appears at the loss boundary.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractError, DegenerateInputError, FormatError, TrainingError
from .numkit import child_rng

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
BLOB_MAGIC = b"PHYP"
BLOB_VERSION = 1
TRAIN_DTYPE = np.float32
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class Arch:
    """Network shape: empty ``hidden`` means a plain linear model."""

    in_dim: int
    hidden: tuple[int, ...] = ()
    out_dim: int = 1
    batch_norm: bool = False
    negative_slope: float = 0.1

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ContractError(f"bad arch dims in={self.in_dim} out={self.out_dim}")
        if any(w < 1 for w in self.hidden):
            raise ContractError(f"bad hidden widths {self.hidden}")
        if not (isinstance(self.negative_slope, (int, float)) and 0.0 <= self.negative_slope <= 1.0):
            raise ContractError(f"leaky-ReLU slope must be a number in [0, 1], got {self.negative_slope!r}")
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.in_dim, *self.hidden, self.out_dim)

    def param_count(self) -> int:
        """Weights and biases of every layer, plus a scale and a shift per batch-normalized unit."""
        ws = self.widths
        return sum(ws[i] * ws[i + 1] + ws[i + 1] for i in range(len(ws) - 1)) + self.bn_stat_count()

    def bn_stat_count(self) -> int:
        return 2 * sum(self.hidden) if self.batch_norm else 0


def linear_arch(in_dim: int, out_dim: int = 1) -> Arch:
    return Arch(in_dim, (), out_dim)


def mlp_arch(in_dim: int, hidden=(64, 64, 64, 64), out_dim: int = 1, batch_norm: bool = True) -> Arch:
    """Desk-scale default mirroring a five-layer fully connected net."""
    return Arch(in_dim, tuple(hidden), out_dim, batch_norm=batch_norm)


@dataclass(frozen=True)
class Hypothesis:
    """A deterministic scoring function: architecture + flat parameters."""

    arch: Arch
    params: np.ndarray
    bn_stats: np.ndarray = field(default_factory=lambda: np.zeros(0))
    seed: int | None = None
    note: str = ""

    def __post_init__(self):
        p = np.asarray(self.params, dtype=np.float64).ravel()
        if p.shape[0] != self.arch.param_count():
            raise ContractError(
                f"parameter count {p.shape[0]} does not match architecture ({self.arch.param_count()})"
            )
        s = np.asarray(self.bn_stats, dtype=np.float64).ravel()
        if s.shape[0] != self.arch.bn_stat_count():
            raise ContractError("batch-norm statistics do not match architecture")
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "bn_stats", s)

    @property
    def k(self) -> int:
        """Number of classes this hypothesis distinguishes."""
        return 2 if self.arch.out_dim == 1 else self.arch.out_dim


def _layers(arch: Arch, params: np.ndarray, bn_stats: np.ndarray | None = None):
    """The layer table: views (W, b, gamma, beta, mean, var) into the
    R x param_count parameter and R x bn_stat_count statistic arrays of R
    runs, one tuple per layer.

    The arrays hold the runs blocked by table entry: every run's W of the
    first layer, then every run's b, gamma and beta, then the next layer's
    entries; the statistics likewise every run's mean, then var. So each
    entry is one contiguous block across the runs, and with R = 1 the one
    row is a hypothesis's vector. W is R x fan_in x fan_out; b, gamma, beta,
    mean and var are R x 1 x fan_out, so they broadcast over the rows of
    each run's batch. gamma/beta are None without batch norm, mean/var also
    without statistics. The views stay valid while the arrays are updated
    in place.
    """
    R = params.shape[0]
    p, s = params.reshape(-1), None if bn_stats is None else bn_stats.reshape(-1)
    out, off, soff = [], 0, 0

    def block(a, start, *shape):
        return a[start : start + R * math.prod(shape)].reshape(R, *shape)

    for i, (fan_in, fan_out) in enumerate(zip(arch.widths, arch.widths[1:])):
        W, b = block(p, off, fan_in, fan_out), block(p, off + R * fan_in * fan_out, 1, fan_out)
        off += R * (fan_in + 1) * fan_out
        gamma = beta = mean = var = None
        if arch.batch_norm and i < len(arch.hidden):
            gamma, beta = block(p, off, 1, fan_out), block(p, off + R * fan_out, 1, fan_out)
            off += 2 * R * fan_out
            if s is not None:
                mean, var = block(s, soff, 1, fan_out), block(s, soff + R * fan_out, 1, fan_out)
                soff += 2 * R * fan_out
        out.append((W, b, gamma, beta, mean, var))
    return out


def _copy_run(dst: list, i: int, src: list, j: int) -> None:
    """Copy run j of the layer table ``src`` into run i of ``dst`` (tables of
    one architecture, both with or without statistics), in ``dst``'s dtype."""
    for dst_entry, src_entry in zip(dst, src):
        for x, v in zip(dst_entry, src_entry):
            if x is not None:
                x[i] = v[j]


def init_params(arch: Arch, seed: int = 0) -> np.ndarray:
    """He-style hidden initialization (adjusted for the leaky-ReLU slope)
    with a zero output layer, so small trainings converge in few epochs."""
    rng = child_rng(seed, 4)
    params = np.zeros(arch.param_count())
    gain = math.sqrt(2.0 / (1.0 + arch.negative_slope**2))
    for i, (W, b, gamma, beta, _, _) in enumerate(_layers(arch, params[None])):
        if i < len(arch.hidden):
            W[0] = gain / math.sqrt(W.shape[1]) * rng.standard_normal(W.shape[1:])
        b[...] = 0.0
        if gamma is not None:
            gamma[...] = 1.0
            beta[...] = 0.0
    return params


def init_bn_stats(arch: Arch) -> np.ndarray:
    """Running mean 0 and variance 1 for every batch-normalized unit."""
    return np.concatenate([np.r_[np.zeros(w), np.ones(w)] for w in arch.hidden if arch.batch_norm] or [np.zeros(0)])


class _Workspace:
    """Buffers in the compute ``dtype``, keyed by (role, layer), of which
    ``get`` returns the first elements in a given shape, growing only when
    needed, and ``stack`` an R x n x width stack with the rows outermost;
    plus the R x param_count gradient array and its layer table of the one
    architecture and run count the workspace serves. The forward and
    backward passes compute in ``dtype``. Views are kept per shape, since a
    training call asks for the same few shapes at every step."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._bufs: dict = {}
        self._views: dict = {}
        self._grad: tuple | None = None

    def get(self, role: str, layer: int, shape: tuple[int, ...]) -> np.ndarray:
        view = self._views.get((role, layer, shape))
        if view is None:
            size = math.prod(shape)
            buf = self._bufs.get((role, layer))
            if buf is None or buf.size < size:
                buf = self._bufs[(role, layer)] = np.empty(size, self.dtype)
                # kept views of the smaller buffer would keep it alive
                self._views = {k: v for k, v in self._views.items() if k[:2] != (role, layer)}
            view = self._views[(role, layer, shape)] = buf[:size].reshape(shape)
        return view

    def stack(self, role: str, layer: int, runs: int, rows: int, width: int) -> np.ndarray:
        """An R x n x width view of an n x R x width buffer (rows outermost);
        of width 1, an R x n x 1 buffer (runs first)."""
        key = (role, layer, runs, rows, width)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = (self.get(role, layer, (runs, rows, 1)) if width == 1 else
                                       self.get(role, layer, (rows, runs, width)).transpose(1, 0, 2))
        return view

    def grad(self, arch: Arch, runs: int) -> tuple[np.ndarray, list]:
        if self._grad is None:
            g = np.empty((runs, arch.param_count()), self.dtype)
            self._grad = (g, _layers(arch, g))
        return self._grad


def _runs_contiguous(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The R x n x width stack ``x``, or a runs-first copy of it where the
    layer of weights ``W`` has a width-1 side and one run's matrix of ``x``
    is not contiguous (a ``_Workspace.stack`` of R > 1 runs)."""
    return np.ascontiguousarray(x) if 1 in W.shape[1:] and not x[0].flags.c_contiguous else x


def _forward(arch: Arch, layers: list, X: np.ndarray, training: bool, ws: _Workspace,
             cache: list | None = None) -> np.ndarray:
    """Scores of the R x n x in_dim stack X (one batch per run) as an
    R x n x out_dim ``ws`` stack. Batch norm uses each run's batch
    statistics in training mode, folding them into the running
    ``mean``/``var`` when the table has them, and the running statistics
    otherwise. Hidden layers are computed in ``ws`` stacks: in one each plus
    a shared temporary, or with a ``cache`` in separate stacks for what the
    backward pass reads. A layer with a width-1 side reads its input
    through ``_runs_contiguous``."""
    a, (R, n) = X, X.shape[:2]
    for i, (W, b, gamma, beta, mean, var) in enumerate(layers[:-1]):
        width = W.shape[2]
        tmp = ws.stack("tmp", -1, R, n, width)
        a = _runs_contiguous(a, W)
        z = np.matmul(a, W, out=ws.stack("z", i, R, n, width))
        z += b
        zhat = inv_std = None
        if gamma is not None:
            if training:
                # the batch mean and z.var over rows in numpy's own order: sums of rows, then / n
                mu = np.add.reduce(z, axis=1, keepdims=True, out=ws.get("mu", i, (R, 1, width)))
                mu /= n
                z -= mu
                sig2 = np.add.reduce(np.square(z, out=tmp), axis=1, keepdims=True, out=ws.get("sig2", i, (R, 1, width)))
                sig2 /= n
                if mean is not None:  # BN_MOMENTUM * mean + (1 - BN_MOMENTUM) * mu, in place
                    mean *= BN_MOMENTUM
                    mean += (1 - BN_MOMENTUM) * mu
                    var *= BN_MOMENTUM
                    var += (1 - BN_MOMENTUM) * sig2
            else:
                z -= mean
                sig2 = var
            inv_std = 1.0 / np.sqrt(sig2 + BN_EPS)
            zhat = np.multiply(z, inv_std, out=z)
            out = np.multiply(gamma, zhat, out=ws.stack("out", i, R, n, width) if cache is not None else z)
            out += beta
        else:
            out = z
        if cache is not None:
            cache.append((a, zhat, inv_std, out))
        a = np.multiply(out, arch.negative_slope, out=ws.stack("a", i, R, n, width) if cache is not None else tmp)
        a = np.maximum(out, a, out=a if cache is not None else out)
    W, b = layers[-1][:2]
    a = _runs_contiguous(a, W)
    s = np.matmul(a, W, out=ws.stack("s", -1, R, n, W.shape[2]))
    s += b
    if cache is not None:
        cache.append((a, None, None, s))
    return s


def scores(h: Hypothesis, X, ws: _Workspace | None = None) -> np.ndarray:
    """Fresh float64 n x k score matrix (k = 1 signed score for binary
    hypotheses), computed in the dtype of ``ws``, which a run of calls may
    share; without one, in float64.

    Float64 scores that are not finite (past float64, or an MLP's NaN from
    inf - inf) raise ContractError, unless the caller has numpy ignore
    overflow (as training does, or a caller reading only the signs of a
    stump's infinite scores); such callers and float32 get them as computed."""
    ws = ws or _Workspace()
    X = np.asarray(X, dtype=ws.dtype)
    if X.ndim != 2 or X.shape[1] != h.arch.in_dim:
        raise ContractError(f"feature dim {X.shape} does not match arch in_dim={h.arch.in_dim}")
    dt = ws.dtype
    layers = _layers(h.arch, h.params.astype(dt, copy=False)[None], h.bn_stats.astype(dt, copy=False)[None])
    if dt != np.float64 or np.geterr()["over"] == "ignore":
        return _forward(h.arch, layers, X[None], False, ws)[0].astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = _forward(h.arch, layers, X[None], False, ws)[0].copy()
    if not np.isfinite(s).all():
        raise ContractError(f"the hypothesis's scores on {X.shape[0]} rows are not finite: "
                            "they overflow float64 on this data")
    return s


def predict(h: Hypothesis, X) -> np.ndarray:
    """Per-row label: argmax of scores; binary tie at score 0 goes to class 1."""
    s = scores(h, X)
    if h.arch.out_dim == 1:
        return (s[:, 0] >= 0).astype(np.int64)
    return np.argmax(s, axis=1).astype(np.int64)


def _backward(arch: Arch, layers: list, cache: list, dscores: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Gradient w.r.t. each run's parameters, overwriting ``ws``'s R x
    param_count gradient array; ``dscores`` is copied into a ``ws`` stack
    in ``ws``'s dtype, and the passes keep the layouts of ``_forward``.

    A layer of fan-out 1 takes ``delta`` as the outer product of ``dz`` and
    its weights, where the matmul sums one product per element from +0:
    the same bits, but for the sign of a zero product (as from the zero
    output layer of ``init_params``). The AMSGrad moments add the gradient
    to +0 or to a nonzero value, which drops that sign, so training keeps
    its bits."""
    grad, glayers = ws.grad(arch, dscores.shape[0])
    delta = ws.stack("dscores", -1, *dscores.shape)
    delta[...] = dscores
    for i in reversed(range(len(layers))):
        W, _, gamma, _, _, _ = layers[i]
        gW, gb, ggamma, gbeta, _, _ = glayers[i]
        a_in, zhat, inv_std, out = cache[i]
        R, n, width = delta.shape
        if i < len(arch.hidden):
            # leaky-ReLU derivative: 1 above zero, the slope elsewhere
            dout = np.greater(out, 0, out=ws.stack("dout", i, R, n, width))
            dout *= 1 - arch.negative_slope
            dout += arch.negative_slope
            dout *= delta
        else:
            dout = delta
        if gamma is not None:
            # Batch-norm backward with batch statistics.
            tmp = ws.stack("tmp", -1, R, n, width)
            np.add.reduce(np.multiply(dout, zhat, out=tmp), axis=1, keepdims=True, out=ggamma)
            np.add.reduce(dout, axis=1, keepdims=True, out=gbeta)
            dzhat = np.multiply(dout, gamma, out=dout)
            sum_dzhat = np.add.reduce(dzhat, axis=1, keepdims=True)
            sum_dzhat_zhat = np.add.reduce(np.multiply(dzhat, zhat, out=tmp), axis=1, keepdims=True)
            # (inv_std / n) * (n * dzhat - sum_dzhat - zhat * sum_dzhat_zhat)
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
            delta = (np.multiply if width == 1 else np.matmul)(
                dz, W.transpose(0, 2, 1), out=ws.stack("delta", i - 1, R, n, W.shape[1]))
    return grad


def _loss_and_dscores(s: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-run weighted training-surrogate losses of the R x n x k score
    stack and their gradient w.r.t. it, in float64 and laid out runs-first,
    so that each run's sums over rows are over contiguous rows; y and w are
    R x n. The surrogate is logistic for a single score and cross-entropy
    otherwise."""
    s = np.asarray(s, dtype=np.float64, order="C")
    wsum = np.add.reduce(w, axis=1)
    if s.shape[-1] == 1:
        t = 2.0 * y - 1.0
        margin = t * s[..., 0]
        loss = np.add.reduce(w * np.logaddexp(0.0, -margin), axis=1) / wsum
        # d/ds log(1+exp(-t s)) = -t * sigmoid(-t s)
        sig = 1.0 / (1.0 + np.exp(np.clip(margin, -500, 500)))
        ds = np.zeros_like(s)
        ds[..., 0] = -t * sig * w / wsum[:, None]
        return loss, ds
    k = s.shape[2]
    picked = y + np.arange(0, s.size, k).reshape(y.shape)  # each row's label in the flat R x n x k order
    # the class maximum as a chain over class slices, R x n elements per call
    top = s[..., :1].copy()
    for j in range(1, k):
        np.maximum(top, s[..., j : j + 1], out=top)
    shifted = s - top
    logz = np.log(np.add.reduce(np.exp(shifted), axis=2))
    logp = shifted.reshape(-1)[picked] - logz
    loss = np.add.reduce(-w * logp, axis=1) / wsum
    p = np.exp(shifted - logz[..., None])
    p.reshape(-1)[picked] -= 1.0
    return loss, p * (w / wsum[:, None])[..., None]


@dataclass(frozen=True)
class LossSpec:
    """Evaluation loss: zero-one, or the margin loss with margin ``rho``."""

    kind: str
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero_one", "margin"):
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.kind == "margin" and not self.rho > 0:
            raise ContractError(f"margin loss needs rho > 0, got {self.rho}")


def zero_one() -> LossSpec:
    return LossSpec("zero_one")


def margin(rho: float) -> LossSpec:
    return LossSpec("margin", rho=rho)


def _reference_labels(labeler, D: Dataset) -> np.ndarray:
    if labeler is None:
        if D.y is None:
            raise ContractError("dataset is unlabeled and no labeler hypothesis was given")
        return D.y
    if isinstance(labeler, Hypothesis):
        return predict(labeler, D.X)
    return np.asarray(labeler, dtype=np.int64)


def empirical_risk(h: Hypothesis, labeler, D: Dataset, loss: LossSpec) -> float:
    """Mean loss of h against a labeler (labels, an array, or a hypothesis)."""
    if D.n == 0:
        raise DegenerateInputError("cannot evaluate risk on an empty dataset")
    ref = _reference_labels(labeler, D)
    if loss.kind == "zero_one":
        return float(np.mean(predict(h, D.X) != ref))
    s = scores(h, D.X)
    if s.shape[1] < 2:
        raise ContractError("margin loss needs a multiclass score matrix (out_dim >= 2)")
    if ref.max() >= s.shape[1]:
        raise ContractError(f"reference label {ref.max()} has no score among h's {s.shape[1]}")
    picked = s[np.arange(D.n), ref]
    masked = s.copy()
    masked[np.arange(D.n), ref] = -np.inf
    with np.errstate(over="ignore"):  # a gap past float64 is an infinity of its sign, beyond any rho
        gap = picked - masked.max(axis=1)
    return float(np.mean(gap <= loss.rho))


def accuracy(h: Hypothesis, D: Dataset) -> float:
    if D.y is None:
        raise ContractError("accuracy needs labels")
    return float(np.mean(predict(h, D.X) == D.y))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"learning rate must be finite and > 0, got {self.lr}")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ConfigError(f"weight decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")


class AmsGrad:
    """Adam with the AMSGrad max-of-second-moment correction.

    The state has the ``shape`` of the parameters it steps (R x
    param_count in training). ``vmax`` is monotone non-decreasing per
    parameter across steps.
    """

    def __init__(self, shape, lr: float = 1e-3, dtype=np.float64):
        self.lr = lr
        self.m = np.zeros(shape, dtype)
        self.v = np.zeros(shape, dtype)
        self.vmax = np.zeros(shape, dtype)
        self.t = 0
        self._tmp = np.empty(shape, dtype), np.empty(shape, dtype)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, params -= (lr mhat) / (sqrt(vhat) + eps)
        self.t += 1
        upd, den = self._tmp
        self.m *= ADAM_BETA1
        self.m += np.multiply(grad, 1 - ADAM_BETA1, out=upd)
        self.v *= ADAM_BETA2
        self.v += np.multiply(np.multiply(grad, 1 - ADAM_BETA2, out=upd), grad, out=upd)
        np.maximum(self.vmax, self.v, out=self.vmax)
        den = np.sqrt(np.divide(self.vmax, 1 - ADAM_BETA2**self.t, out=den), out=den)
        den += ADAM_EPS
        upd = np.multiply(np.divide(self.m, 1 - ADAM_BETA1**self.t, out=upd), self.lr, out=upd)
        params -= np.divide(upd, den, out=upd)


def _weight_mask(arch: Arch, runs: int = 1) -> np.ndarray:
    """True on weight-matrix entries of ``runs`` runs' (flattened) parameter
    array; weight decay skips biases and BN."""
    mask = np.zeros((runs, arch.param_count()), dtype=bool)
    for W, *_ in _layers(arch, mask):
        W[...] = True
    return mask.reshape(-1)


def train_erm(D: Dataset, arch: Arch, cfg: TrainConfig, sample_weight=None) -> Hypothesis:
    """Seeded minibatch ERM with Adam-AMSGrad; returns a frozen hypothesis."""
    return train_erm_many([(D, cfg, sample_weight)], arch)[0][0]


def train_erm_traced(D: Dataset, arch: Arch, cfg: TrainConfig, sample_weight=None, metric=None
                     ) -> tuple[Hypothesis, tuple[float, ...]]:
    """ERM with an optional per-epoch metric trace.

    ``metric`` is called with a snapshot hypothesis after every epoch; the
    returned hypothesis is then the best-metric checkpoint and the recorded
    trace is the running minimum (hence non-increasing). It is the one-run
    case of ``train_erm_many``.
    """
    return train_erm_many([(D, cfg, sample_weight)], arch, [metric])[0]


def train_erm_many(runs, arch: Arch, metrics=None) -> list[tuple[Hypothesis, tuple[float, ...]]]:
    """The one training loop: train runs of ``arch``, those of one row count
    in lockstep; one (hypothesis, trace) pair per run, in run order.

    Each run is a ``(Dataset, TrainConfig, sample_weight | None)`` tuple.
    The runs must share the feature count and every ``TrainConfig`` field
    but ``seed``, and every run is checked before any run trains.
    ``metrics`` holds each run's metric (or None), called after every epoch
    in run order; an untraced run returns its last parameters and an empty
    trace. Each run's pair holds the same bits as that run gives alone.

    The surrogate follows the score width (see ``_loss_and_dscores``), so
    labels must lie below ``max(2, out_dim)``. The runs of each row count
    train as one lockstep pass, in ascending row count. A pass stacks its R
    runs on a leading axis of every array: each keeps its own
    ``init_params(seed)``, permutation stream ``child_rng(seed, 5)``,
    batch-norm statistics, optimizer moments, sample weights and
    best-metric checkpoint, and every per-run slice is computed as one run
    alone would compute it. Each run's vectors go in and out of the blocked
    arrays through the layer tables; the batches are runs-first. Training
    computes in ``TRAIN_DTYPE``; the snapshots and the returned hypotheses
    hold the trained values widened to float64.
    """
    runs = list(runs)
    metrics = [None] * len(runs) if metrics is None else list(metrics)
    if len(metrics) != len(runs):
        raise ContractError(f"got {len(metrics)} metrics for {len(runs)} runs")
    weights = []
    for D, run_cfg, sample_weight in runs:
        if D.n == 0:
            raise DegenerateInputError("cannot train on an empty dataset")
        if not D.labeled:
            raise ContractError("train_erm needs a labeled dataset")
        if arch.in_dim != D.d:
            raise ContractError(f"arch in_dim={arch.in_dim} does not match data d={D.d}")
        if D.y.size and D.y.max() >= max(2, arch.out_dim):
            raise ContractError(f"labels must lie below {max(2, arch.out_dim)} for out_dim={arch.out_dim}, "
                                f"got {D.y.max()}")
        w = np.ones(D.n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
        if w.shape != (D.n,):
            raise ContractError("sample_weight length does not match n")
        if not (np.all(np.isfinite(w)) and np.all(w >= 0) and w.sum() > 0):
            raise ContractError("sample_weight must be finite and non-negative with a positive sum")
        weights.append(w)
    if any(replace(run_cfg, seed=runs[0][1].seed) != runs[0][1] for _, run_cfg, _ in runs):
        raise ContractError("runs trained together must share every training setting but the seed")

    results: list = [None] * len(runs)
    for n in sorted({D.n for D, _, _ in runs}):
        group = [r for r, (D, _, _) in enumerate(runs) if D.n == n]
        cfg, seeds, R = runs[group[0]][1], [runs[r][1].seed for r in group], len(group)
        rngs = [child_rng(seed, 5) for seed in seeds]
        params = np.empty((R, arch.param_count()), TRAIN_DTYPE)
        bn_stats = np.empty((R, arch.bn_stat_count()), TRAIN_DTYPE)
        layers = _layers(arch, params, bn_stats)
        for i, seed in enumerate(seeds):
            _copy_run(layers, i, _layers(arch, init_params(arch, seed)[None], init_bn_stats(arch)[None]), 0)
        ws = _Workspace(TRAIN_DTYPE)
        opt = AmsGrad(params.shape, lr=cfg.lr, dtype=TRAIN_DTYPE)
        wd_mask = _weight_mask(arch, R).reshape(R, -1) if cfg.weight_decay > 0 else None

        def snapshot(i: int, note: str = "") -> Hypothesis:
            p, stats = np.empty((1, params.shape[1])), np.empty((1, bn_stats.shape[1]))
            _copy_run(_layers(arch, p, stats), 0, layers, i)
            return Hypothesis(arch, p[0], stats[0], seed=seeds[i], note=note)

        y = np.stack([runs[r][0].y for r in group])
        w = np.stack([weights[r] for r in group])
        y_e, w_e = np.empty_like(y), np.empty_like(w)
        offsets = np.arange(R)[:, None] * n  # of each run's rows in the flattened stacks

        traces: list[list[float]] = [[] for _ in group]
        best: list = [(math.inf, None)] * R
        # Overflow and NaN end in a TrainingError below; numpy's warnings would only precede it.
        with np.errstate(over="ignore", invalid="ignore"):
            X = np.stack([runs[r][0].X.astype(TRAIN_DTYPE) for r in group])
            X_e = np.empty_like(X)
            for epoch in range(cfg.epochs):
                # each epoch's permuted rows, gathered once; "clip" (the indices are valid)
                # writes straight into the buffers, where "raise" would copy through a temporary
                order = np.stack([rng.permutation(n) for rng in rngs])
                order += offsets
                np.take(X.reshape(R * n, -1), order, axis=0, out=X_e, mode="clip")
                np.take(y, order, out=y_e, mode="clip")
                np.take(w, order, out=w_e, mode="clip")
                for start in range(0, n, cfg.batch_size):
                    batch = slice(start, start + cfg.batch_size)
                    cache: list = []
                    s = _forward(arch, layers, X_e[:, batch], True, ws, cache)
                    loss, ds = _loss_and_dscores(s, y_e[:, batch], w_e[:, batch])
                    if not np.all(np.isfinite(loss)):
                        raise TrainingError("training loss diverged to a non-finite value", epoch=epoch)
                    grad = _backward(arch, layers, cache, ds, ws)
                    if wd_mask is not None:
                        grad[wd_mask] += cfg.weight_decay * params[wd_mask]
                    opt.step(params, grad)
                for i, r in enumerate(group):
                    if metrics[r] is not None:
                        h = snapshot(i)
                        val = float(metrics[r](h))
                        if val < best[i][0]:  # kept in TRAIN_DTYPE, which holds the values exactly
                            best[i] = (val, (h.params.astype(TRAIN_DTYPE), h.bn_stats.astype(TRAIN_DTYPE)))
                        traces[i].append(best[i][0])
        if not np.all(np.isfinite(params)):
            raise TrainingError("parameters diverged to non-finite values", epoch=cfg.epochs - 1)
        surrogate = "logistic" if arch.out_dim == 1 else "cross_entropy"
        meta = f"erm {surrogate} epochs={cfg.epochs} batch={cfg.batch_size} lr={cfg.lr} wd={cfg.weight_decay}"
        for i, r in enumerate(group):
            results[r] = (Hypothesis(arch, *best[i][1], seed=seeds[i], note=meta) if best[i][1]
                          else snapshot(i, meta), tuple(traces[i]))
    return results


def grad_check(arch: Arch, probe: Dataset, eps: float = 1e-5, seed: int = 0) -> float:
    """Central finite differences against the analytic gradient of the
    architecture's training surrogate.

    Returns the max over parameters of |analytic - numeric| scaled by
    max(1, |analytic| + |numeric|). The probe is evaluated as one batch in
    training mode so batch-norm paths are exercised too.
    """
    if probe.n > 8:
        raise ContractError(f"probe must be small (n <= 8), got n={probe.n}")
    if probe.y is None:
        raise ContractError("probe must be labeled")
    if not 0 < eps < math.inf:
        raise ContractError(f"eps must be finite and > 0, got {eps}")
    params = init_params(arch, seed)
    X, y, w = probe.X[None], probe.y[None], np.ones((1, probe.n))

    ws = _Workspace()

    def f(p: np.ndarray) -> float:
        s = _forward(arch, _layers(arch, p[None]), X, True, ws)
        return float(_loss_and_dscores(s, y, w)[0][0])

    cache: list = []
    layers = _layers(arch, params[None])
    s = _forward(arch, layers, X, True, ws, cache)
    _, ds = _loss_and_dscores(s, y, w)
    analytic = _backward(arch, layers, cache, ds, ws)[0]

    worst = 0.0
    for i in range(params.shape[0]):
        p = params.copy()
        p[i] += eps
        hi = f(p)
        p[i] -= 2 * eps
        lo = f(p)
        numeric = (hi - lo) / (2 * eps)
        denom = max(1.0, abs(analytic[i]) + abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Handy constructors for exactly specified hypotheses
# ---------------------------------------------------------------------------


def linear_hypothesis(w, b, note: str = "") -> Hypothesis:
    """Linear hypothesis with explicit weights and bias: a weight vector and
    a scalar bias give a binary one, a (d, k) matrix and k biases a k-class one."""
    W = np.asarray(w, dtype=np.float64)
    W = W.reshape(-1, 1) if W.ndim < 2 else W
    params = np.concatenate([W.ravel(), np.ravel(b)])
    return Hypothesis(linear_arch(W.shape[0], W.shape[1]), params, note=note)


def constant_hypothesis(d: int, label: int) -> Hypothesis:
    """Binary hypothesis that predicts one class everywhere."""
    return linear_hypothesis(np.zeros(d), 1.0 if label == 1 else -1.0, note=f"const {label}")


def stump_hypothesis(feature: int, threshold: float, polarity: int, d: int) -> Hypothesis:
    """Decision stump as an exact linear hypothesis.

    Predicts class 1 iff polarity * (x[feature] - threshold) >= 0.
    """
    if polarity not in (-1, 1):
        raise ContractError(f"polarity must be +1 or -1, got {polarity}")
    w = np.zeros(d)
    w[feature] = float(polarity)
    return linear_hypothesis(w, -float(polarity) * float(threshold),
                             note=f"stump f{feature} t={threshold:.6g} p={polarity:+d}")


# ---------------------------------------------------------------------------
# Serialization: binary blob + JSON sidecar
# ---------------------------------------------------------------------------


def save_hypothesis(h: Hypothesis, path) -> None:
    path = str(path)
    with open(path, "wb") as f:
        f.write(BLOB_MAGIC)
        f.write(struct.pack(">III", BLOB_VERSION, h.params.shape[0], h.bn_stats.shape[0]))
        f.write(h.params.astype(">f8").tobytes())
        f.write(h.bn_stats.astype(">f8").tobytes())
    sidecar = {
        "format": "phdkit-hypothesis",
        "version": BLOB_VERSION,
        "arch": asdict(h.arch),
        "seed": h.seed,
        "note": h.note,
        "k": h.k,
    }
    with open(path + ".json", "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


# Sidecar arch fields and their JSON types; the slope's range is Arch's check.
_SIDECAR_ARCH = {"in_dim": int, "hidden": list, "out_dim": int, "batch_norm": bool, "negative_slope": (int, float)}


def _is(value, types) -> bool:
    """isinstance for JSON values, where a bool does not count as an int."""
    return isinstance(value, types) and (isinstance(value, bool) == (types is bool))


def _sidecar_arch(sidecar, path: str) -> Arch:
    if not (isinstance(sidecar, dict) and sidecar.get("format") == "phdkit-hypothesis"):
        raise FormatError(f"{path}.json is not a hypothesis sidecar")
    a = sidecar.get("arch")
    if not (isinstance(a, dict) and all(_is(a.get(k), t) for k, t in _SIDECAR_ARCH.items())
            and all(_is(w, int) for w in a["hidden"])):
        raise FormatError(f"{path}.json: arch needs integer in_dim, out_dim and hidden widths, "
                          "a boolean batch_norm and a numeric negative_slope")
    seed = sidecar.get("seed")
    if not (seed is None or _is(seed, int)) or not _is(sidecar.get("note", ""), str):
        raise FormatError(f"{path}.json: seed must be an integer or null and note a string")
    return Arch(a["in_dim"], tuple(a["hidden"]), a["out_dim"], a["batch_norm"], a["negative_slope"])


def load_hypothesis(path) -> Hypothesis:
    path = str(path)
    with open(path + ".json", "rb") as f:
        try:
            sidecar = json.loads(f.read())
        except ValueError as e:  # also bad UTF-8
            raise FormatError(f"{path}.json is not JSON: {e}") from None
    arch = _sidecar_arch(sidecar, path)
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 16:
        raise FormatError(f"truncated hypothesis blob header in {path}", offset=len(buf))
    if buf[:4] != BLOB_MAGIC:
        raise FormatError(f"bad hypothesis blob magic in {path}", offset=0)
    version, n_params, n_bn = struct.unpack_from(">III", buf, 4)
    if version != BLOB_VERSION:
        raise FormatError(f"unsupported hypothesis blob version {version}")
    if (n_params, n_bn) != (arch.param_count(), arch.bn_stat_count()):
        raise FormatError(f"{path} holds {n_params} parameters and {n_bn} batch-norm statistics; "
                          f"its sidecar's arch needs {arch.param_count()} and {arch.bn_stat_count()}")
    need = 16 + 8 * (n_params + n_bn)
    if len(buf) != need:
        raise FormatError(f"hypothesis blob {path} holds {len(buf)} bytes, its header says {need}",
                          offset=min(len(buf), need))
    params = np.frombuffer(buf, dtype=">f8", count=n_params, offset=16).astype(np.float64)
    bn = np.frombuffer(buf, dtype=">f8", count=n_bn, offset=16 + 8 * n_params).astype(np.float64)
    return Hypothesis(arch, params, bn, seed=sidecar.get("seed"), note=sidecar.get("note", ""))
