#!/usr/bin/env python3
"""Each protocol's acceptance predicate over disjoint seed windows.

Runs table1, table2, table3 and fig2 at their default configs with only
``seeds`` changed, and judges every window with the predicate that
``tests/test_acceptance.py`` asserts for the protocol (criteria 1, 2, 3 and
8, wall-clock budget included), imported from that file. The JSON written
holds, per window, the seeds, the pass or fail of the predicate and of each
of its parts, the wall time and the protocol's report with its per-seed
rows, plus the commit of the tree and the environment. Nothing here changes
a default or a threshold; a window that fails is recorded as it is.

    PYTHONPATH=src python3 scripts/seed_windows.py --out SEEDS.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from phdkit.protocols import PROTOCOLS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from test_acceptance import ACCEPTANCE  # noqa: E402

WINDOWS = {
    "table1": (range(0, 10), range(10, 20)),
    "table2": (range(0, 10), range(10, 20)),
    "table3": (range(0, 5), range(5, 10), range(10, 15)),
    "fig2": (range(0, 10), range(10, 20), range(20, 30)),
}


def run_window(name: str, seeds: range) -> dict:
    config_cls, run = PROTOCOLS[name]
    cfg = replace(config_cls(), seeds=tuple(seeds))
    t0 = time.perf_counter()
    rep = run(cfg)
    elapsed = time.perf_counter() - t0
    parts = ACCEPTANCE[name](rep, elapsed)
    return {"seeds": list(cfg.seeds), "passed": all(parts.values()), "parts": parts,
            "wall_s": round(elapsed, 2), "report": rep}


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    doc = {
        "commit": _git("rev-parse", "HEAD"),
        "source_differs_from_commit": bool(_git("status", "--porcelain", "--", "src")),
        "environment": {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
                        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}},
        "protocols": {},
    }
    for name, seed_windows in WINDOWS.items():
        windows = []
        for seeds in seed_windows:
            w = run_window(name, seeds)
            windows.append(w)
            print(f"{name} seeds {seeds.start}-{seeds.stop - 1}: {'pass' if w['passed'] else 'FAIL'} "
                  f"{w['parts']} {w['wall_s']:.1f}s", flush=True)
        doc["protocols"][name] = windows
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
