#!/usr/bin/env python3
"""Per-call time and minor page faults of the MLP hot path, plus one table1
seed and one fig2 (seed, sigma) end to end, appended to a BENCH file.

Measures, for the adversarial estimators' network (16 -> 128 -> 128 -> 1
with batch norm):

- ``train_forward``: one training-mode forward pass of a 256-row batch,
  keeping the cache the backward pass reads
- ``train_backward``: one backward pass from that cache
- ``amsgrad_step``: one optimizer step on the full parameter vector
- ``eval_scores``: scoring 2,000 rows with a frozen hypothesis (float64)
- ``witness``: the adversarial witness statistic, i.e. scoring two
  2,000-row samples and scanning every decision threshold
- ``train_fig2_sources``: training the 20 source models of one fig2
  (seed, sigma) at the default config (8 -> 32 -> 4 with batch norm, 400
  rows, 20 epochs of batch 64): in one ``train_erm_many`` call in trees
  that have it, in 20 ``train_erm`` calls otherwise

The training kernels and the witness compute in the dtype the measured
tree's trainer uses (``models.TRAIN_DTYPE``; float64 in trees without it),
so one script measures trees on either side of the float32 change. Each
kernel runs WARMUP untimed calls, then REPEATS timed blocks of CALLS calls;
the record holds every block's microseconds per call, their median and
quartiles, and the minor faults (``ru_minflt``) per call over all timed
calls. Calls reuse one workspace, as a training run or a witness does.
In trees whose passes stack runs on a leading replica axis (those with
``models.train_erm_many``), the forward and backward kernels run one
replica. ``train_fig2_sources`` runs one untimed call, then E2E_REPEATS
single calls.

The end-to-end rows time, E2E_REPEATS times after the kernels,
``protocols.run_table1`` at its default configuration for seed 0
(``table1_seed0``) and ``protocols.run_fig2`` at its default configuration
for seed 0 and sigma 0.3 (``fig2_seed0_sigma0.3``), the unit of the
benchmark's ``selection`` workload.

Each run is appended under its ``--label`` to the JSON file ``--out``, whose
``summary`` holds, per label, the median over runs of each median. For a
comparison of two trees, alternate the runs:

    python3 scripts/bench_layers.py --out BENCH_9.json --src ../parent/src --label parent
    python3 scripts/bench_layers.py --out BENCH_9.json --label change

``--src`` selects the source tree ``phdkit`` is imported from; it must have
``models._Workspace``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP, REPEATS, CALLS = 20, 9, 20
E2E_REPEATS = 3


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


def run() -> tuple[dict, dict, str]:
    import numpy as np
    from phdkit import models, protocols
    from phdkit.discrepancy import _scan_threshold_gap

    # Trees before float32 training have no TRAIN_DTYPE and no dtype arguments.
    dt = getattr(models, "TRAIN_DTYPE", np.float64)
    kw = {"dtype": dt} if hasattr(models, "TRAIN_DTYPE") else {}
    stacked = hasattr(models, "train_erm_many")

    def one_replica(a):
        return a[None] if stacked else a

    rng = np.random.default_rng(0)
    arch = models.Arch(16, (128, 128), 1, batch_norm=True)
    params = models.init_params(arch, seed=0) + 0.01 * rng.standard_normal(arch.param_count())
    bn_stats = models.init_bn_stats(arch)
    layers = models._layers(arch, one_replica(params.astype(dt)), one_replica(bn_stats.astype(dt)))
    h = models.Hypothesis(arch, params, bn_stats)
    batch = one_replica(rng.standard_normal((256, 16)).astype(dt))
    XS, XT = rng.standard_normal((2000, 16)), rng.standard_normal((2000, 16)) + 0.1
    ref_s, ref_t = np.ones(2000, dtype=np.int64), np.ones(2000, dtype=np.int64)
    ds = one_replica((rng.standard_normal((256, 1)) / 256).astype(dt))
    ws, eval_ws, witness_ws = models._Workspace(**kw), models._Workspace(), models._Workspace(**kw)

    cache: list = []
    models._forward(arch, layers, batch, True, ws, cache)

    def forward():
        models._forward(arch, layers, batch, True, ws, [])

    opt = models.AmsGrad(arch.param_count(), lr=1e-3, **kw)
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
    sources, _, _ = protocols._fig2_pool(fig2, 0, 0.3)
    src_arch = models.mlp_arch(fig2.d, fig2.hidden, out_dim=fig2.k, batch_norm=True)
    runs = [(S, models.TrainConfig(epochs=fig2.epochs, batch_size=fig2.batch_size, seed=10 * i + j), None)
            for i, S in enumerate(sources) for j in (1, 2)]
    if stacked:
        def train_sources():
            models.train_erm_many(runs, src_arch)
    else:
        def train_sources():
            for D, cfg, _ in runs:
                models.train_erm(D, src_arch, cfg)
    measured["train_fig2_sources"] = _measure(train_sources, 1, E2E_REPEATS, 1)

    table1 = protocols.Table1Config(seeds=(0,))
    e2e = {"table1_seed0": _measure(lambda: protocols.run_table1(table1), 0, E2E_REPEATS, 1),
           "fig2_seed0_sigma0.3": _measure(lambda: protocols.run_fig2(fig2), 0, E2E_REPEATS, 1)}
    return measured, e2e, np.dtype(dt).name


def environment(train_dtype: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "warmup": WARMUP,
        "repeats": REPEATS,
        "calls_per_repeat": CALLS,
        "e2e_repeats": E2E_REPEATS,
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
                out[label][name + "_us"] = statistics.median(r[part][name]["us_per_call"]["median"] for r in mine)
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
        print(f"{args.label} {name}: {r['us_per_call']['median']:.1f} us/call, "
              f"{r['minflt_per_call']:.1f} minor faults/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
