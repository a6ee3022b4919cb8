#!/usr/bin/env python3
"""Per-call time and minor page faults of the MLP hot path, the exact
pair-enumeration discrepancy, the stump scans, CORAL and CSV reading and
writing, plus the start-up of a fresh interpreter, one seed of table1,
table2 and table3 and one fig2 (seed, sigma) end to end, appended to a BENCH
file.

Measures, for the adversarial estimators' network (16 -> 128 -> 128 -> 1
with batch norm):

- ``train_forward``: one training-mode forward pass of a 256-row batch,
  keeping the cache the backward pass reads
- ``train_backward``: one backward pass from that cache
- ``amsgrad_step``: one optimizer step on the full parameter vector
- ``eval_scores``: scoring 2,000 rows with a frozen hypothesis (float64)
- ``witness``: the adversarial witness statistic, i.e. scoring two
  2,000-row samples and scanning every decision threshold
- ``train_step_fig2_sources``: one lockstep training step (forward,
  loss, backward and AMSGrad step) of 40 runs of fig2's source network
  (8 -> 32 -> 4 with batch norm) on 64-row batches, the shape of a
  ``selection`` op's source training
- ``train_step_adversarial``: one such step of one run of the adversarial
  network on a 256-row batch, the shape of table1's training
- ``train_step_adversarial_pair``: one such step of two runs of it, the
  shape of table1's training with both directions of an estimator in
  lockstep
- ``train_fig2_sources``: training the 20 source models of one fig2
  (seed, sigma) at the default config (8 -> 32 -> 4 with batch norm, 400
  rows, 20 epochs of batch 64) in one ``train_erm_many`` call
- ``w1_fig2_pool``: the ten W1 values of that fig2 (seed, sigma), one
  after another: each source and the target's self-training part
  subsampled to 256 rows, the Euclidean cost matrix and the exact
  assignment (``discrepancy.w1_exact``), as ``adapt`` computes them
- ``disc_exact_pair_b``: ``discrepancy.disc_exact`` on the shape of the
  benchmark's ``exact-cli`` disc command (two 300-row Gaussian samples,
  d = 2: 2,398 stumps)
- ``disc_exact_binary_784``: ``disc_exact`` on two 2,000-row samples of
  784 binary features (1,570 stumps): many features of one threshold each,
  where pair b has few features of many thresholds

  Both ``disc_exact`` rows also record ``traced_peak_bytes``, the peak that
  ``tracemalloc`` (which numpy reports its buffers to) sees during one
  more call after the timed ones: the call's own working memory.
- ``stump_scans_pair_a``: the sorted prefix-sum stump scans on the shape
  of the benchmark's ``exact-cli`` pair a (two 2,000-row samples of 16
  Gaussian features): ``StumpClass.from_data`` of both samples,
  ``dh_exact`` and ``sdisc_exact`` over that class, and a 50-draw stump
  ``bounds.rademacher`` on the target
- ``rademacher_stumps_pair_a``: that 50-draw stump ``bounds.rademacher``
  alone (its scan plans, sign draws and blocked prefix-sum scan)
- ``coral_pair_a``: ``adapt.coral`` of the benchmark's ``exact-cli`` pair a
  (its source aligned to its unlabeled target, the ``coral`` command's call)
- ``read_csv_pair_a`` and ``write_csv_pair_a``: ``data.read_csv`` and
  ``data.write_csv`` of one file of the shape of the benchmark's
  ``exact-cli`` pair a (2,000 rows of 16 features and a label, written by
  ``write_csv``)
- ``cli_main_phd``: one in-process ``cli.main`` call of the benchmark's
  ``exact-cli`` phd command (two saved linear hypotheses on a target file
  of pair a's shape), stdout discarded: the fixed cost of a command, i.e.
  parsing argv, reading the CSV, scoring and writing the JSON report

The training kernels and the witness compute in the trainer's dtype
(``models.TRAIN_DTYPE``). Each kernel runs WARMUP untimed calls, then
REPEATS timed blocks of CALLS calls; the record holds every block's
microseconds per call, their median and quartiles, and the minor faults
(``ru_minflt``) per call over all timed calls. Calls reuse one workspace,
as a training run or a witness does. The forward and backward kernels run
one replica of the trainer's leading replica axis; the training-step rows
fill each run's parameters through the layer tables and hand the loss
float64 scores and the backward pass gradients in the training dtype, so
they run the same values on trees that lay the runs out differently.
``coral_pair_a`` runs like the kernels. ``train_fig2_sources`` runs one
untimed call, then E2E_REPEATS single calls; ``w1_fig2_pool`` W1_WARMUP
untimed calls, then REPEATS blocks of W1_CALLS; the ``disc_exact``
rows run DISC_WARMUP untimed calls, then REPEATS blocks of DISC_CALLS,
the two stump rows STUMP_WARMUP, then REPEATS blocks of STUMP_CALLS, and
the CSV rows and ``cli_main_phd`` CSV_WARMUP untimed calls, then REPEATS
blocks of CSV_CALLS.

Two rows time a fresh interpreter, COLD_WARMUP untimed runs, then REPEATS
single runs, each the wall time of the whole child process:

- ``import_phdkit_cold``: ``python -c "import phdkit"``
- ``cli_phd_cold``: ``python -m phdkit.cli phd`` of two saved linear
  hypotheses on one target file of pair a's shape, the benchmark's
  ``exact-cli`` phd command

Their minor faults are this process's, not the child's, and read about 0.

The end-to-end rows time, E2E_REPEATS times after the kernels,
``protocols.run_table1``, ``run_table2`` and ``run_table3`` at their default
configurations for seed 0 (``table1_seed0``, ``table2_seed0``,
``table3_seed0``) and ``protocols.run_fig2`` at its default configuration
for seed 0 and sigma 0.3 (``fig2_seed0_sigma0.3``), the unit of the
benchmark's ``selection`` workload, and for seeds 0 and 1 at sigma 0.3
(``fig2_seeds2_sigma0.3``), one of that workload's ops, whose trainings
run in lockstep across both seeds.

Each run is appended under its ``--label`` to the JSON file ``--out``, whose
``summary`` holds, per label, the median over runs of each median (``_us``)
with the quartiles of those per-run medians (``_us_q1``, ``_us_q3``), and the
median of each traced peak. Runs of one tree on a shared host differ by far
more than the blocks within a run, so compare trees by those quartiles over
five or more runs each, alternating the trees:

    python3 scripts/bench_layers.py --out BENCH_25.json --src ../parent/src --label parent
    python3 scripts/bench_layers.py --out BENCH_25.json --label change

``--src`` selects the source tree ``phdkit`` is imported from; it must have
``models.train_erm_many``.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import replace
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP, REPEATS, CALLS = 20, 9, 20
E2E_REPEATS = 3
W1_WARMUP, W1_CALLS = 3, 5
DISC_WARMUP, DISC_CALLS = 3, 3
STUMP_WARMUP, STUMP_CALLS = 3, 10
CSV_WARMUP, CSV_CALLS = 3, 10
COLD_WARMUP = 1


def _measure(fn, warmup: int = WARMUP, repeats: int = REPEATS, calls: int = CALLS) -> dict:
    for _ in range(warmup):
        fn()
    blocks = []
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - t0) / calls * 1e6)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
    q1, med, q3 = statistics.quantiles(blocks, n=4)
    return {"us_per_call": {"median": med, "q1": q1, "q3": q3, "blocks": blocks},
            "minflt_per_call": faults / (repeats * calls)}


def _traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` during one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _train_step(models, arch, runs: int, rows: int):
    """One lockstep training step of ``runs`` runs of ``arch`` on ``rows``-row batches."""
    import numpy as np

    rng = np.random.default_rng(1)
    dt = models.TRAIN_DTYPE
    params = np.empty((runs, arch.param_count()), dt)
    bn_stats = np.empty((runs, arch.bn_stat_count()), dt)
    layers = models._layers(arch, params, bn_stats)
    for r in range(runs):
        init = models._layers(arch, models.init_params(arch, r)[None], models.init_bn_stats(arch)[None])
        for entry, first in zip(layers, init):
            for x, v in zip(entry, first):
                if x is not None:
                    x[r] = v[0]
    X = rng.standard_normal((runs, rows, arch.in_dim)).astype(dt)
    y, w = rng.integers(0, max(2, arch.out_dim), (runs, rows)), np.ones((runs, rows))
    ws, opt = models._Workspace(dt), models.AmsGrad(params.shape, lr=1e-3, dtype=dt)

    def step():
        cache: list = []
        s = models._forward(arch, layers, X, True, ws, cache)
        _, ds = models._loss_and_dscores(s.astype(np.float64), y, w)
        opt.step(params, models._backward(arch, layers, cache, ds.astype(dt), ws))

    return step


def run() -> tuple[dict, dict, str]:
    import numpy as np
    from phdkit import cli, models, protocols
    from phdkit.adapt import EVAL_FRAC, _subsample, coral
    from phdkit.bounds import rademacher
    from phdkit.data import Dataset, gen_gaussian_pair, read_csv, split, write_csv
    from phdkit.discrepancy import StumpClass, _scan_threshold_gap, dh_exact, disc_exact, sdisc_exact, w1_exact
    from phdkit.numkit import child_rng

    dt = models.TRAIN_DTYPE
    rng = np.random.default_rng(0)
    arch = models.Arch(16, (128, 128), 1, batch_norm=True)
    params = models.init_params(arch, seed=0) + 0.01 * rng.standard_normal(arch.param_count())
    bn_stats = models.init_bn_stats(arch)
    layers = models._layers(arch, params.astype(dt)[None], bn_stats.astype(dt)[None])
    h = models.Hypothesis(arch, params, bn_stats)
    batch = rng.standard_normal((1, 256, 16)).astype(dt)
    XS, XT = rng.standard_normal((2000, 16)), rng.standard_normal((2000, 16)) + 0.1
    ref_s, ref_t = np.ones(2000, dtype=np.int64), np.ones(2000, dtype=np.int64)
    ds = (rng.standard_normal((1, 256, 1)) / 256).astype(dt)
    ws, eval_ws, witness_ws = models._Workspace(dt), models._Workspace(), models._Workspace(dt)

    cache: list = []
    models._forward(arch, layers, batch, True, ws, cache)

    def forward():
        models._forward(arch, layers, batch, True, ws, [])

    opt = models.AmsGrad(arch.param_count(), lr=1e-3, dtype=dt)
    p = params.astype(dt)
    grad = (1e-3 * rng.standard_normal(arch.param_count())).astype(dt)

    kernels = {
        "train_forward": forward,
        "train_backward": lambda: models._backward(arch, layers, cache, ds, ws),
        "amsgrad_step": lambda: opt.step(p, grad),
        "eval_scores": lambda: models.scores(h, XS, eval_ws),
        "witness": lambda: _scan_threshold_gap(models.scores(h, XS, witness_ws)[:, 0], ref_s,
                                               models.scores(h, XT, witness_ws)[:, 0], ref_t),
    }
    measured = {name: _measure(fn) for name, fn in kernels.items()}

    fig2 = protocols.Fig2Config(seeds=(0,), sigmas=(0.3,))
    src_arch = models.mlp_arch(fig2.d, fig2.hidden, out_dim=fig2.k, batch_norm=True)
    measured["train_step_fig2_sources"] = _measure(_train_step(models, src_arch, 40, fig2.batch_size))
    measured["train_step_adversarial"] = _measure(_train_step(models, arch, 1, 256))
    measured["train_step_adversarial_pair"] = _measure(_train_step(models, arch, 2, 256))
    sources, _, fig2_target = protocols._fig2_pool(fig2, 0, 0.3)
    runs = [(S, models.TrainConfig(epochs=fig2.epochs, batch_size=fig2.batch_size, seed=10 * i + j), None)
            for i, S in enumerate(sources) for j in (1, 2)]
    measured["train_fig2_sources"] = _measure(lambda: models.train_erm_many(runs, src_arch), 1, E2E_REPEATS, 1)
    T_fit = split(fig2_target.without_labels(), (1.0 - EVAL_FRAC, EVAL_FRAC), seed=0)[0]

    def w1_pool():
        for i, S in enumerate(sources):
            draws = child_rng(0, 12, i)
            w1_exact(_subsample(S, fig2.w1_subsample, draws), _subsample(T_fit, fig2.w1_subsample, draws), seed=i)

    measured["w1_fig2_pool"] = _measure(w1_pool, W1_WARMUP, REPEATS, W1_CALLS)

    pair_b = gen_gaussian_pair(300, 2, shift=0.25, rotate=0.3, seed=1)
    binary = (Dataset((rng.random((2000, 784)) < 0.5).astype(float)),
              Dataset((rng.random((2000, 784)) < 0.4).astype(float)))
    for name, (S, T) in (("disc_exact_pair_b", pair_b), ("disc_exact_binary_784", binary)):
        cls = StumpClass.from_data(S, T)
        call = partial(disc_exact, S, T, cls)
        measured[name] = _measure(call, DISC_WARMUP, REPEATS, DISC_CALLS) | {"traced_peak_bytes": _traced_peak(call)}

    pair_a, pair_a_target = gen_gaussian_pair(2000, 16, shift=0.25, rotate=0.3)
    hS = models.linear_hypothesis(rng.standard_normal(16), 0.1)

    def stump_scans():
        cls = StumpClass.from_data(pair_a, pair_a_target)
        dh_exact(pair_a, pair_a_target, cls)
        sdisc_exact(pair_a, pair_a_target, hS, cls)
        rademacher(pair_a_target, StumpClass.from_data(pair_a_target), draws=50, seed=0)

    measured["stump_scans_pair_a"] = _measure(stump_scans, STUMP_WARMUP, REPEATS, STUMP_CALLS)
    target_stumps = StumpClass.from_data(pair_a_target)
    measured["rademacher_stumps_pair_a"] = _measure(
        lambda: rademacher(pair_a_target, target_stumps, draws=50, seed=0), STUMP_WARMUP, REPEATS, STUMP_CALLS)
    unlabeled_target = pair_a_target.without_labels()
    measured["coral_pair_a"] = _measure(lambda: coral(pair_a, unlabeled_target))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a_source.csv"
        write_csv(pair_a, path)
        measured["read_csv_pair_a"] = _measure(lambda: read_csv(path, label_col="label"),
                                               CSV_WARMUP, REPEATS, CSV_CALLS)
        measured["write_csv_pair_a"] = _measure(lambda: write_csv(pair_a, path), CSV_WARMUP, REPEATS, CSV_CALLS)

        for name in ("h1.bin", "h2.bin"):
            models.save_hypothesis(models.linear_hypothesis(rng.standard_normal(16), 0.1), Path(tmp) / name)
        write_csv(pair_a_target, Path(tmp) / "a_target.csv")
        phd_argv = ["phd", "--h1", f"{tmp}/h1.bin", "--h2", f"{tmp}/h2.bin", "--target", f"{tmp}/a_target.csv"]

        def cli_phd():
            with redirect_stdout(io.StringIO()):
                if cli.main(phd_argv) != 0:
                    raise RuntimeError(f"phdkit {' '.join(phd_argv)} failed")

        measured["cli_main_phd"] = _measure(cli_phd, CSV_WARMUP, REPEATS, CSV_CALLS)
        env = dict(os.environ, PYTHONPATH=str(Path(models.__file__).resolve().parents[1]))
        cold = {"import_phdkit_cold": ["-c", "import phdkit"],
                "cli_phd_cold": ["-m", "phdkit.cli", "phd", "--h1", "h1.bin", "--h2", "h2.bin",
                                 "--target", "a_target.csv"]}
        e2e = {name: _measure(lambda: subprocess.run([sys.executable, *argv], env=env, cwd=tmp, check=True,
                                                     capture_output=True), COLD_WARMUP, REPEATS, 1)
               for name, argv in cold.items()}

    e2e |= {f"{name}_seed0": _measure(lambda: protocol(config(seeds=(0,))), 0, E2E_REPEATS, 1)
            for name, protocol, config in (("table1", protocols.run_table1, protocols.Table1Config),
                                           ("table2", protocols.run_table2, protocols.Table2Config),
                                           ("table3", protocols.run_table3, protocols.Table3Config))}
    e2e["fig2_seed0_sigma0.3"] = _measure(lambda: protocols.run_fig2(fig2), 0, E2E_REPEATS, 1)
    fig2_seeds2 = replace(fig2, seeds=(0, 1))
    e2e["fig2_seeds2_sigma0.3"] = _measure(lambda: protocols.run_fig2(fig2_seeds2), 0, E2E_REPEATS, 1)
    return measured, e2e, np.dtype(dt).name


def environment(train_dtype: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "warmup": WARMUP,
        "repeats": REPEATS,
        "calls_per_repeat": CALLS,
        "e2e_repeats": E2E_REPEATS,
        "w1_warmup": W1_WARMUP,
        "w1_calls_per_repeat": W1_CALLS,
        "disc_warmup": DISC_WARMUP,
        "disc_calls_per_repeat": DISC_CALLS,
        "stump_warmup": STUMP_WARMUP,
        "stump_calls_per_repeat": STUMP_CALLS,
        "csv_warmup": CSV_WARMUP,
        "csv_calls_per_repeat": CSV_CALLS,
        "cold_warmup": COLD_WARMUP,
        "train_dtype": train_dtype,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _summary(runs: list) -> dict:
    out: dict = {}
    for label in sorted({r["label"] for r in runs}):
        mine = [r for r in runs if r["label"] == label]
        out[label] = {"runs": len(mine)}
        for part in ("kernels", "end_to_end"):
            for name in mine[0][part]:
                meds = [r[part][name]["us_per_call"]["median"] for r in mine]
                q1, med, q3 = statistics.quantiles(meds, n=4) if len(meds) > 1 else meds * 3
                out[label] |= {name + "_us": med, name + "_us_q1": q1, name + "_us_q3": q3}
                if "traced_peak_bytes" in mine[0][part][name]:
                    out[label][name + "_traced_peak_bytes"] = statistics.median(
                        r[part][name]["traced_peak_bytes"] for r in mine)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="BENCH JSON file to append this run to")
    ap.add_argument("--src", default=str(ROOT / "src"), help="source tree to import phdkit from")
    ap.add_argument("--label", required=True, help="name of the measured tree in the BENCH file")
    args = ap.parse_args()
    src = Path(args.src).resolve()
    if not (src / "phdkit").is_dir():
        ap.error(f"{src} holds no phdkit package")
    sys.path.insert(0, str(src))

    kernels, e2e, train_dtype = run()
    record = {"label": args.label, "environment": environment(train_dtype), "kernels": kernels, "end_to_end": e2e}
    out = Path(args.out)
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    runs.append(record)
    out.write_text(json.dumps({"summary": _summary(runs), "runs": runs}, indent=2, sort_keys=True) + "\n")
    for name, r in {**kernels, **e2e}.items():
        peak = f", {r['traced_peak_bytes'] / 2**20:.1f} MiB traced peak" if "traced_peak_bytes" in r else ""
        print(f"{args.label} {name}: {r['us_per_call']['median']:.1f} us/call, "
              f"{r['minflt_per_call']:.1f} minor faults/call{peak}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
