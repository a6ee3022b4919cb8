#!/usr/bin/env python3
"""phdkit benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload adversarial --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; ``phdkit`` is imported from its
``src/``. A run sets up the workload's inputs from ``--seed``, runs one
warm-up, then repeats passes over the workload's operations until
``--seconds`` have elapsed (at least one pass), checks every output, and
prints each metric by name and unit. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). A full record, with the environment, goes to
``perfbench/results/``.

The host this benchmark was defined on is shared and changes speed by up
to 50% over tens of seconds. Between chunks of a pass the run times a fixed
kernel that does not touch ``phdkit`` (``host_kernel``); each chunk's wall
time is scaled by ``KERNEL_REF_S`` over the kernel time measured around it,
so ``setup_s`` and, on workloads with ``host_scaled`` set, ``wall_s`` and
``units_per_s`` are times on a host where the kernel takes ``KERNEL_REF_S``.
The unscaled times are printed and kept in the record.

With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured within the run. BLAS thread variables are read and
recorded, never set: a program change that pins them must show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("adversarial", "selection", "exact-cli")
SETUP_PROBES = 5
WARMUPS = 1
# The kernel's time on the reference host speed. A scaled time is the wall
# time times KERNEL_REF_S over the kernel time measured around it.
KERNEL_REF_S = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def host_kernel() -> float:
    """Seconds per run of a fixed loop, the median of three runs. A run is
    1,000 small-matrix numpy steps (forward and backward pass of a 16-32-4
    ReLU network on 64 rows) and 100,000 steps of a pure-Python dict and
    integer loop. It measures the speed of the host, not of ``phdkit``:
    per-call overhead, interpreter work and small matmuls, like most of the
    workloads' time."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((64, 16))
    times = []
    for _ in range(3):
        W1, W2 = rng.standard_normal((16, 32)) * 0.1, rng.standard_normal((32, 4)) * 0.1
        t0 = time.perf_counter()
        for _ in range(1000):
            H = np.maximum(X @ W1, 0.0)
            G = H @ W2
            G -= G.mean(axis=0)
            gH = (G @ W2.T) * (H > 0.0)
            W2 -= 1e-4 * (H.T @ G)
            W1 -= 1e-4 * (X.T @ gH)
        acc, table = 0, {}
        for i in range(100_000):
            table[i & 1023] = acc
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(wall: float, kernel_before: float, kernel_after: float) -> float:
    """``wall`` scaled to the reference host speed."""
    return wall * KERNEL_REF_S / ((kernel_before + kernel_after) / 2.0)


def import_phdkit() -> float:
    """Import ``phdkit`` from this checkout's ``src/``; seconds taken."""
    if not (SRC / "phdkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no phdkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import phdkit  # noqa: F401

    return time.perf_counter() - t0


def workdir(workload: str, probe: bool) -> Path:
    # relative to the checkout root, so CLI reports do not depend on its location
    return Path("perfbench") / ".work" / (f"{workload}-probe" if probe else workload)


def setup(workload: str, seed: int, probe: bool = False):
    """Import phdkit and build the workload's inputs; (workload, seconds)."""
    t_import = import_phdkit()
    import workloads

    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](seed, workdir(workload, probe))
    return wl, t_import + time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, as a user starting a run pays it;
    (seconds, seconds scaled to the reference host speed)."""
    before = host_kernel()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    setup_s = float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return setup_s, scaled(setup_s, before, host_kernel())


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    import workloads

    files = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    return workloads.sha256(*(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes() for p in files))


def blas_info() -> dict | None:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return None


def environment(args, repeats: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "warmups": WARMUPS,
        "kernel_ref_s": KERNEL_REF_S,
        "repeats": repeats,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Runner:
    """Runs passes and checks their outputs; a failing operation is
    counted and recorded, never allowed to abort the pass."""

    def __init__(self, wl, stored: dict):
        self.wl = wl
        self.stored = stored
        self.attempted = self.failed = 0
        self.digest_mismatch = self.digest_unknown = 0
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}
        self.kernels = [host_kernel()]

    def run_pass(self, tracer=None) -> tuple[float, float, list]:
        """One pass; (wall seconds, seconds scaled to the reference host
        speed, outcomes). The host kernel runs after every chunk of
        operations the workload defines."""
        outcomes = []
        wall = wall_scaled = 0.0
        for chunk in self.wl.chunks():
            t0 = time.perf_counter()
            for op in chunk:
                try:
                    if tracer is None:
                        out = op.call()
                    else:
                        tracer.unit = op.name
                        out = tracer.timed(op.call, op.span)()
                    outcomes.append((op, out, None))
                except Exception:
                    outcomes.append((op, None, traceback.format_exc()))
            dt = time.perf_counter() - t0
            self.kernels.append(host_kernel())
            wall += dt
            wall_scaled += scaled(dt, self.kernels[-2], self.kernels[-1])
        return wall, wall_scaled, outcomes

    def check(self, outcomes) -> int:
        """Counts failures; returns the units completed correctly."""
        ok_units = 0
        for op, out, err in outcomes:
            self.attempted += op.units
            failed = op.units
            if err is None:
                try:
                    digest = op.digest(out)
                    self.digests[op.name] = digest
                    expected = self.stored.get(op.name)
                    if digest == expected:
                        failed = 0
                    else:
                        self.digest_unknown += expected is None
                        self.digest_mismatch += expected is not None
                        failed = min(op.units, int(op.failed_units(out)))
                        if failed:
                            err = f"semantic check failed on {failed} of {op.units} units"
                except Exception:
                    err = traceback.format_exc()
            if err is not None:
                self.failures.append({"op": op.name, "error": err})
            self.failed += failed
            ok_units += op.units - failed
        return ok_units


def measure(runner: Runner, seconds: float, trace: bool):
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
    untraced, traced, untraced_scaled = [], [], []
    ok_units = 0
    traced_cpu = 0.0
    start = time.perf_counter()
    while True:
        use_trace = trace and len(untraced) > len(traced)
        if use_trace:
            tracer.install()
            cpu0 = cpu_seconds()
            try:
                wall, _, outcomes = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_cpu += cpu_seconds() - cpu0
            traced.append(wall)
        else:
            wall, wall_scaled, outcomes = runner.run_pass()
            untraced.append(wall)
            untraced_scaled.append(wall_scaled)
        units = runner.check(outcomes)
        if not use_trace:
            ok_units += units
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break
    return untraced, untraced_scaled, traced, ok_units, traced_cpu, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)

    wl, setup_s = setup(args.workload, args.seed, probe=args.setup_probe)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads
    from layertrace import layer_metrics

    if hasattr(wl, "prepare_checks"):
        wl.prepare_checks()
    stored = json.loads((BENCH_DIR / "digests.json").read_text()).get(args.workload, {}).get(str(args.seed), {})
    for _ in range(WARMUPS):
        wl.warmup()

    runner = Runner(wl, stored)
    untraced, untraced_scaled, traced, ok_units, traced_cpu, tracer = measure(runner, args.seconds,
                                                                               bool(args.trace))
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setups = [setup_s] + [s for s, _ in probes]

    walls = untraced_scaled if wl.host_scaled else untraced
    end_to_end = {
        "wall_s": (statistics.median(walls), "s"),
        "units_per_s": (ok_units / sum(walls), "1/s"),
        "setup_s": (statistics.median(s for _, s in probes), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    info = {
        "wall_unscaled_s": (statistics.median(untraced), "s"),
        "wall_scaled_s": (statistics.median(untraced_scaled), "s"),
        "setup_unscaled_s": (statistics.median(setups), "s"),
        "host_slowdown": (statistics.median(runner.kernels) / KERNEL_REF_S, "x"),
        "failed_frac": (runner.failed / runner.attempted, "frac"),
        "digest_mismatches": (runner.digest_mismatch, "count"),
        "digest_unknown": (runner.digest_unknown, "count"),
    }
    per_layer = {}
    if tracer is not None:
        per_layer = layer_metrics(tracer, traced, untraced, traced_cpu, workloads.CLI_OPS)

    env = environment(args, len(untraced) + len(traced))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(untraced)} untraced + {len(traced)} traced passes, "
          f"unit = {wl.unit}, setups {[round(s, 4) for s in setups]}")
    for name, (value, unit) in {**end_to_end, **info, **per_layer}.items():
        print(f"{name:40s} {'missing' if value is None else f'{value:.6g}'} {unit}")
    if tracer is not None and tracer.missing:
        print("missing wrap targets: " + ", ".join(tracer.missing))
    for f in runner.failures:
        print(f"FAILED {f['op']}: {f['error'].strip().splitlines()[-1]}")

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "end_to_end": end_to_end, "info": info, "per_layer": per_layer,
              "untraced_walls": untraced, "untraced_walls_scaled": untraced_scaled, "traced_walls": traced,
              "setups": setups, "setups_scaled": [s for _, s in probes], "host_kernels": runner.kernels,
              "digests": runner.digests, "failures": runner.failures,
              "missing": [] if tracer is None else tracer.missing}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.jsonl")

    chosen = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
