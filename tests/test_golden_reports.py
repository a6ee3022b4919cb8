"""Golden SHA-256 digests of the four reduced ``repro`` reports and of one
trained model blob.

The determinism criterion only compares two runs of the same code, so a
refactor that shifts numbers would pass it. These digests pin the report
bytes themselves. The reports hold only zero-one rates and terms built from
them, which can stay put while the trained parameters move, so the ``train``
command's model blob is pinned too. An intended numeric change updates the
constants below (the failure message prints the new digest) and is declared
in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phdkit
from phdkit.cli import main as cli_main

# The reduced configurations of acceptance criterion 10, run with --seed 7.
REDUCED = {
    "table1": ["seeds=0", "n=200", "epochs=4", "adv_epochs=4", "ssl_rounds=1"],
    "table2": ["seeds=0", "n=200", "epochs=4", "adv_epochs=4", "ssl_rounds=1"],
    "table3": ["seeds=0", "n=150", "epochs=4", "ssl_rounds=1"],
    "fig2": ["seeds=0", "sigmas=0.5", "n_source=80", "n_target=200", "epochs=4", "ssl_rounds=1"],
}
GOLDEN = {
    "table1": "45b605bbb90e8791045fd8ae6492b67475d8c3bbd294a1881f2a9db2a7bcec47",
    "table2": "d14d2d86b7609fd2f507bd4a1886cbae521bab189018db9db4d7fb6893e0b704",
    "table3": "8e6b2f6860a7924a372a39ad5339aabcc4fd9a6ac661f00b94819749af661b58",
    "fig2": "cd954d7a33fb671c3d8ba07bba7a55143b01d605dd0b03c149e994b87ad18a81",
}
# `gen` then `train` a 16 -> 128 -> 128 -> 1 batch-norm MLP, large enough
# for multi-threaded BLAS, run with --seed 7 in one output directory.
TRAIN_STEPS = [
    ["gen", "--n", "400", "--d", "16"],
    ["train", "--data", "pair_source.csv", "--hidden", "128,128", "--epochs", "3", "--batch-size", "128"],
]
GOLDEN_TRAIN_BLOB = "8438679fd39e83dfdd5b6f0c15b288ce72f27e11aaa2edf09920001c8443ee74"


def _run_cli(argv: list[str], threads: str, cwd: Path) -> None:
    """Run the CLI in a subprocess with ``threads`` BLAS/OpenMP threads."""
    src = str(Path(phdkit.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "phdkit.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _argv(protocol: str, out: Path) -> list[str]:
    argv = ["--seed", "7", "--out", str(out), "repro", protocol]
    for ov in REDUCED[protocol]:
        argv += ["--set", ov]
    return argv


def _digest(protocol: str, out: Path) -> str:
    return hashlib.sha256((out / f"repro_{protocol}_report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("protocol", sorted(REDUCED))
def test_reduced_report_matches_golden_digest(protocol, tmp_path, capsys):
    assert cli_main(_argv(protocol, tmp_path)) == 0
    capsys.readouterr()
    got = _digest(protocol, tmp_path)
    assert got == GOLDEN[protocol], f"repro {protocol} report digest changed: new digest {got}"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_report_is_independent_of_blas_thread_count(threads, tmp_path):
    # table1 runs the big adversarial matmuls, fig2 the lockstep source trainings
    for protocol in ("table1", "fig2"):
        _run_cli(_argv(protocol, tmp_path), threads, tmp_path)
        got = _digest(protocol, tmp_path)
        assert got == GOLDEN[protocol], f"{protocol} with {threads} BLAS thread(s) gave digest {got}"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_trained_model_blob_matches_golden_digest(threads, tmp_path):
    for step in TRAIN_STEPS:
        _run_cli(["--seed", "7", "--out", ".", *step], threads, tmp_path)
    got = hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest()
    assert got == GOLDEN_TRAIN_BLOB, f"train with {threads} BLAS thread(s) gave model blob digest {got}"
