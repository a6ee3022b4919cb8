#!/usr/bin/env python3
"""Per-call time and minor page faults of the MLP hot path, written to a BENCH file.

Measures, for the adversarial estimators' network (16 -> 128 -> 128 -> 1
with batch norm):

- ``train_forward``: one training-mode forward pass of a 256-row batch,
  keeping the cache the backward pass reads
- ``train_backward``: one backward pass from that cache
- ``amsgrad_step``: one optimizer step on the full parameter vector
- ``eval_scores``: scoring 2,000 rows
- ``witness``: the adversarial witness statistic, i.e. scoring two
  2,000-row samples and scanning every decision threshold

Each kernel runs WARMUP untimed calls, then REPEATS timed blocks of
CALLS calls; the record holds every block's microseconds per call, their
median and quartiles, and the minor faults (``ru_minflt``) per call over
all timed calls. Calls reuse one workspace, as a training run or a
witness does.

``--src`` selects the source tree ``phdkit`` is imported from, so
``BENCH_5.json`` can hold the runs of two commits side by side, each
under its ``--label``:

    python3 scripts/bench_layers.py --src /path/to/other/checkout/src --label other
    python3 scripts/bench_layers.py --label change

Only trees that have ``models._Workspace`` can be measured. The ``parent``
run in ``BENCH_5.json`` comes from the tree before it, measured by an
earlier form of this script that called the same kernels without one.
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
OUT = ROOT / "BENCH_5.json"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP, REPEATS, CALLS = 20, 9, 20


def _measure(fn) -> dict:
    for _ in range(WARMUP):
        fn()
    blocks = []
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            fn()
        blocks.append((time.perf_counter() - t0) / CALLS * 1e6)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
    q1, med, q3 = statistics.quantiles(blocks, n=4)
    return {"us_per_call": {"median": med, "q1": q1, "q3": q3, "blocks": blocks},
            "minflt_per_call": faults / (REPEATS * CALLS)}


def run() -> dict:
    import numpy as np
    from phdkit import models
    from phdkit.discrepancy import _scan_threshold_gap

    rng = np.random.default_rng(0)
    arch = models.Arch(16, (128, 128), 1, batch_norm=True)
    params = models.init_params(arch, seed=0) + 0.01 * rng.standard_normal(arch.param_count())
    bn_stats = models.init_bn_stats(arch)
    layers = models._layers(arch, params, bn_stats.copy())
    h = models.Hypothesis(arch, params, bn_stats)
    batch = rng.standard_normal((256, 16))
    XS, XT = rng.standard_normal((2000, 16)), rng.standard_normal((2000, 16)) + 0.1
    ref_s, ref_t = np.ones(2000, dtype=np.int64), np.ones(2000, dtype=np.int64)
    ds = rng.standard_normal((256, 1)) / 256
    ws, eval_ws = models._Workspace(), models._Workspace()

    cache: list = []
    models._forward(arch, layers, batch, True, ws, cache)

    def forward():
        models._forward(arch, layers, batch, True, ws, [])

    opt = models.AmsGrad(arch.param_count(), lr=1e-3)
    p = params.copy()
    grad = 1e-3 * rng.standard_normal(arch.param_count())

    kernels = {
        "train_forward": forward,
        "train_backward": lambda: models._backward(arch, layers, cache, ds, ws),
        "amsgrad_step": lambda: opt.step(p, grad),
        "eval_scores": lambda: models.scores(h, XS, eval_ws),
        "witness": lambda: _scan_threshold_gap(models.scores(h, XS, eval_ws)[:, 0], ref_s,
                                               models.scores(h, XT, eval_ws)[:, 0], ref_t),
    }
    return {name: _measure(fn) for name, fn in kernels.items()}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "warmup": WARMUP,
        "repeats": REPEATS,
        "calls_per_repeat": CALLS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=str(ROOT / "src"), help="source tree to import phdkit from")
    ap.add_argument("--label", required=True, help="name of this run in BENCH_5.json")
    args = ap.parse_args()
    src = Path(args.src).resolve()
    if not (src / "phdkit").is_dir():
        ap.error(f"{src} holds no phdkit package")
    sys.path.insert(0, str(src))

    record = {"environment": environment(), "kernels": run()}
    doc = json.loads(OUT.read_text()) if OUT.exists() else {"runs": {}}
    doc["runs"][args.label] = record
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, r in record["kernels"].items():
        print(f"{args.label} {name}: {r['us_per_call']['median']:.1f} us/call, "
              f"{r['minflt_per_call']:.1f} minor faults/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
