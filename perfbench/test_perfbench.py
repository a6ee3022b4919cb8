"""The benchmark's own checks: the workload seed reaches the program and
determines the reports.

    python3 -m pytest perfbench -q

The protocol workloads run here at reduced sizes with their seeds kept, so
the seed still travels through each protocol's ``seeds`` config field.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import BENCH_DIR, ROOT, import_phdkit, setup  # noqa: E402

REDUCED = {
    "adversarial": dict(n=200, epochs=2, adv_epochs=2, ssl_rounds=1),
    "selection": dict(sigmas=(0.5,), n_source=80, n_target=200, epochs=4, ssl_rounds=1),
}


@pytest.fixture(autouse=True)
def _at_root():
    cwd = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(cwd)


def digests(workload: str, seed: int) -> dict[str, str]:
    wl, _ = setup(workload, seed)
    if workload in REDUCED:
        wl.cfg = replace(wl.cfg, **REDUCED[workload])
    else:
        wl.prepare_checks()
    out = {}
    for op in wl.ops():
        result = op.call()
        # the protocols' pass predicates hold at full size only
        assert workload in REDUCED or op.failed_units(result) == 0, op.name
        out[op.name] = op.digest(result)
    return out


@pytest.mark.parametrize("workload", ["adversarial", "selection", "exact-cli"])
def test_seed_determines_reports(workload):
    first = digests(workload, 3)
    assert digests(workload, 3) == first
    other = digests(workload, 4)
    assert all(other[op] != first[op] for op in first)


def test_stored_digests_match_at_seed_0():
    stored = json.loads((BENCH_DIR / "digests.json").read_text())["exact-cli"]["0"]
    assert digests("exact-cli", 0) == stored


def test_missing_wrap_target_is_reported_missing_not_zero():
    import_phdkit()
    from layertrace import TARGETS, Tracer, layer_metrics

    renamed = [replace(t, attr=t.attr + "_gone") if t.attr in ("dh_adv", "sdisc_adv") else t for t in TARGETS]
    tracer = Tracer(renamed)
    tracer.install()
    tracer.uninstall()
    m = layer_metrics(tracer, [1.0], [1.0], 1.0, ())
    assert m["discrepancy.adv.calls"][0] is None and m["discrepancy.adv.s"][0] is None
    assert m["trace.missing"][0] == 4
    assert m["models.train.calls"][0] == 0
