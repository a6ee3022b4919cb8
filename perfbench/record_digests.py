#!/usr/bin/env python3
"""Record the report digests the benchmark checks outputs against.

    python3 perfbench/record_digests.py --workload exact-cli --seeds 0-23

Runs every operation of the workload once per workload seed, requires its
semantic check to pass, and stores the SHA-256 of its report in
``perfbench/digests.json`` (merged into what is there). Re-record only
together with a numeric change declared in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import BENCH_DIR, ROOT, WORKLOAD_NAMES, setup


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = ap.parse_args()
    os.chdir(ROOT)
    first, _, last = args.seeds.partition("-")
    recorded = {}
    for seed in range(int(first), int(last or first) + 1):
        wl, _ = setup(args.workload, seed)
        if hasattr(wl, "prepare_checks"):
            wl.prepare_checks()
        digests = {}
        for op in wl.ops():
            out = op.call()
            if op.failed_units(out):
                sys.exit(f"{args.workload} seed {seed}: {op.name} fails its semantic check; not recorded")
            digests[op.name] = op.digest(out)
        recorded[str(seed)] = digests
        print(f"{args.workload} seed {seed}: {digests}", flush=True)
    path = BENCH_DIR / "digests.json"
    stored = json.loads(path.read_text())
    stored.setdefault(args.workload, {}).update(recorded)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
