"""The benchmark's workloads: inputs built from the workload seed, the
operations one pass runs, and the checks on each operation's output.

Every operation has two checks. Its report's SHA-256 digest is compared with
the digest stored in ``digests.json`` for this workload and seed; a
byte-identical report passes. Otherwise a semantic check decides, so that a
numeric change declared in CHANGES.md still counts as correct: the
protocol's own pass predicate, or for a CLI command exit code 0 and a JSON
result equal to the library call on the same inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from phdkit import cli, protocols
from phdkit.adapt import coral
from phdkit.bounds import bound_ineq2, bound_thm4, rademacher
from phdkit.data import gen_gaussian_pair, read_csv, write_csv
from phdkit.discrepancy import StumpClass, dh_exact, disc_exact, l1_hist, phd, sdisc_exact, w1_exact
from phdkit.models import TrainConfig, linear_arch, linear_hypothesis, load_hypothesis, save_hypothesis, zero_one
from phdkit.tritrain import TriTrainConfig, tritrain_round

# Protocol seeds per pass: nproc of the 2-CPU reference machine, fixed so that
# the work per pass (and the stored digests) do not depend on the host.
SEEDS_PER_PASS = 2


def jsonable(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def canonical(obj) -> str:
    """The report bytes ``phdkit`` itself writes: sorted keys, indent 2."""
    return json.dumps(obj, sort_keys=True, indent=2, default=jsonable) + "\n"


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


@dataclass
class Op:
    """One operation of a pass: ``units`` units of work, a call whose output
    is digested, and a semantic check returning the number of failed units."""

    name: str
    span: str
    units: int
    call: Callable[[], object]
    digest: Callable[[object], str]
    failed_units: Callable[[object], int]


# ---------------------------------------------------------------------------
# adversarial: run_table1 at its default per-seed config
# ---------------------------------------------------------------------------


def table1_config(seed: int) -> protocols.Table1Config:
    # The workload seed reaches the program through the config's seeds field.
    return protocols.Table1Config(seeds=tuple(range(seed, seed + SEEDS_PER_PASS)))


def _table1_failed(cfg, report) -> int:
    rows = report["rows"]
    if [r["seed"] for r in rows] != list(cfg.seeds):
        return len(cfg.seeds)
    return sum(not r["success"] for r in rows)


class Adversarial:
    name = "adversarial"
    unit = "protocol seed"
    # Its pass is one 30 s chunk of mostly large matmuls, which the host
    # kernel sampled at the chunk's ends does not track: over ten seeds the
    # unscaled pass time spread 0.05 of its median, the scaled one 0.17.
    host_scaled = False

    def __init__(self, seed: int, workdir: Path):
        self.cfg = table1_config(seed)

    def warmup(self) -> None:
        protocols.run_table1(replace(self.cfg, seeds=self.cfg.seeds[:1], n=200, epochs=2, adv_epochs=2,
                                     ssl_rounds=1))

    def ops(self) -> list[Op]:
        cfg = self.cfg
        return [Op("table1", "protocols.run", len(cfg.seeds), lambda: protocols.run_table1(cfg),
                   lambda rep: sha256(canonical(rep).encode()), lambda rep: _table1_failed(cfg, rep))]

    def chunks(self) -> list[list[Op]]:
        """One pass as the chunks between which the host kernel runs."""
        return [self.ops()]


# ---------------------------------------------------------------------------
# selection: run_fig2 at its default per-pair config
# ---------------------------------------------------------------------------


def fig2_config(seed: int) -> protocols.Fig2Config:
    return protocols.Fig2Config(seeds=tuple(range(seed, seed + SEEDS_PER_PASS)))


def _fig2_failed(cfg, report) -> int:
    """fig2's acceptance predicate (criterion 8) is defined over ten seeds and
    fails for about half of all two-seed windows at this commit, so a pass is
    checked against the invariants every (sigma, seed) pair must satisfy."""
    n_src = cfg.n_clean + cfg.n_noisy
    pairs = [(sig, s) for sig in cfg.sigmas for s in cfg.seeds]
    by_pair: dict = {}
    for r in report["rows"]:
        by_pair.setdefault((r["sigma"], r["seed"]), []).append(r)
    failed = 0
    for pair in pairs:
        rows = by_pair.get(pair, [])
        ok = sorted(r["measure"] for r in rows) == ["phd", "w1"] and all(
            isinstance(r["score"], int) and 0 <= r["score"] <= min(cfg.top_k, cfg.n_clean)
            and 0.0 <= r["accuracy"] <= 1.0
            and len(r["values"]) == n_src and all(math.isfinite(v) and v >= 0.0 for v in r["values"])
            for r in rows)
        failed += not ok
    if len(by_pair) != len(pairs):
        failed = len(pairs)
    return failed


class Selection:
    name = "selection"
    unit = "(sigma, seed) pair"
    host_scaled = True

    def __init__(self, seed: int, workdir: Path):
        self.cfg = fig2_config(seed)

    def warmup(self) -> None:
        protocols.run_fig2(replace(self.cfg, seeds=self.cfg.seeds[:1], sigmas=(0.5,), n_source=80, n_target=200,
                                   epochs=4, ssl_rounds=1))

    def ops(self) -> list[Op]:
        """One ``run_fig2`` call per sigma, each over all the pass's seeds, so
        that the host kernel can run between sigmas."""
        ops = []
        for sigma in self.cfg.sigmas:
            cfg = replace(self.cfg, sigmas=(sigma,))
            ops.append(Op(f"fig2-sigma{sigma}", "protocols.run", len(cfg.seeds),
                          lambda cfg=cfg: protocols.run_fig2(cfg), lambda rep: sha256(canonical(rep).encode()),
                          lambda rep, cfg=cfg: _fig2_failed(cfg, rep)))
        return ops

    def chunks(self) -> list[list[Op]]:
        return [[op] for op in self.ops()]


# ---------------------------------------------------------------------------
# exact-cli: in-process phdkit.cli.main on CSV pairs written in setup
# ---------------------------------------------------------------------------

CLI_OPS = ("dh", "sdisc", "disc", "w1-bins", "w1-cap", "phd", "bounds-thm4", "bounds-ineq2", "coral",
           "tritrain")
HIST_BINS = 10
TRITRAIN_EPOCHS = 10
TRITRAIN_ROUNDS = 2


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``phdkit.cli.main`` in process; exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class ExactCli:
    name = "exact-cli"
    unit = "CLI command"
    host_scaled = True
    # One round of the ten commands takes about 1 s; the host kernel runs
    # after each of the five rounds of a pass.
    rounds = 5

    def __init__(self, seed: int, workdir: Path):
        """Writes the CSV pairs and saved hypotheses the commands read.

        Pair ``a`` (n=2000, d=16) feeds dh, sdisc, phd, the bounds and coral;
        pair ``b`` (n=300, d=2) the pair-enumeration disc, the binned w1 and
        tritrain; pair ``c`` (n=512, d=16) w1 at the 512-row assignment cap.
        """
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        for tag, n, d, k in (("a", 2000, 16, 0), ("b", 300, 2, 1), ("c", 512, 16, 2)):
            S, T = gen_gaussian_pair(n, d, shift=0.25, rotate=0.3, seed=3 * seed + k)
            write_csv(S, self.path(f"{tag}_source.csv"))
            write_csv(T, self.path(f"{tag}_target.csv"))
        for name in ("h", "h1", "h2"):
            save_hypothesis(linear_hypothesis(rng.standard_normal(16), rng.normal(0.0, 0.5)),
                            self.path(f"{name}.bin"))
        self.expected: dict[str, dict] = {}

    def path(self, name: str) -> Path:
        return self.dir / name

    def argv(self, op: str) -> list[str]:
        p = lambda name: str(self.path(name))  # noqa: E731
        a = ["--source", p("a_source.csv"), "--target", p("a_target.csv")]
        b = ["--source", p("b_source.csv"), "--target", p("b_target.csv")]
        return {
            "dh": ["dh", *a, "--method", "exact"],
            "sdisc": ["sdisc", *a, "--method", "exact", "--model", p("h1.bin")],
            "disc": ["disc", *b],
            "w1-bins": ["w1", *b, "--bins", str(HIST_BINS)],
            "w1-cap": ["w1", "--source", p("c_source.csv"), "--target", p("c_target.csv")],
            "phd": ["phd", "--h1", p("h1.bin"), "--h2", p("h2.bin"), "--target", p("a_target.csv")],
            "bounds-thm4": ["bounds", "--bound", "thm4", "--target", p("a_target.csv"), "--h", p("h.bin"),
                            "--h1", p("h1.bin"), "--h2", p("h2.bin")],
            "bounds-ineq2": ["bounds", "--bound", "ineq2", *a, "--h", p("h.bin"), "--h1", p("h1.bin")],
            "coral": ["--out", p("coral"), "coral", *a],
            "tritrain": ["tritrain", *b, "--hidden", "", "--epochs", str(TRITRAIN_EPOCHS),
                         "--rounds", str(TRITRAIN_ROUNDS)],
        }[op]

    def prepare_checks(self) -> None:
        """Library calls on the same inputs, computed outside the timed region."""
        load = lambda name: read_csv(self.path(name), label_col="label")  # noqa: E731
        hyp = lambda name: load_hypothesis(self.path(name))  # noqa: E731
        aS, aT = load("a_source.csv"), load("a_target.csv")
        bS, bT = load("b_source.csv"), load("b_target.csv")
        cS, cT = load("c_source.csv"), load("c_target.csv")
        h, h1, h2 = hyp("h.bin"), hyp("h1.bin"), hyp("h2.bin")
        a_cls = StumpClass.from_data(aS, aT)
        w1b = w1_exact(bS, bT).to_dict()
        w1b["l1_hist"] = l1_hist(bS, bT, HIST_BINS)
        rad = rademacher(aT, StumpClass.from_data(aT), draws=50, seed=0)
        sdisc_value = sdisc_exact(aS, aT, h1, a_cls).value
        adapted = coral(aS, aT.without_labels())
        write_csv(adapted, self.path("coral_expected.csv"))
        tri = tritrain_round(bS, bT, linear_arch(bS.d, 1),
                             TriTrainConfig(base=TrainConfig(epochs=TRITRAIN_EPOCHS, seed=0)),
                             rounds=TRITRAIN_ROUNDS, seed=0)
        expected = {
            "dh": dh_exact(aS, aT, a_cls).to_dict(),
            "sdisc": sdisc_exact(aS, aT, h1, a_cls).to_dict(),
            "disc": disc_exact(bS, bT, StumpClass.from_data(bS, bT)).to_dict(),
            "w1-bins": w1b,
            "w1-cap": w1_exact(cS, cT).to_dict(),
            "phd": phd(h1, h2, aT, zero_one()).to_dict(),
            "bounds-thm4": bound_thm4(h, h1, h2, aT, rad, 0.05, oracle_T=aT).to_dict(),
            "bounds-ineq2": bound_ineq2(h, h1, aS, aT, sdisc_value, oracle_T=aT).to_dict(),
            "coral": {"adapted": str(self.path("coral") / "adapted_coral.csv"), "n": adapted.n, "d": adapted.d},
            "tritrain": {"rounds": [
                {"round": r.round_index, "coverage": r.coverage, "tpl_size": r.tpl_size,
                 "bound_total": None if r.bound is None else r.bound.total,
                 "target_accuracy": r.target_accuracy, "skipped": r.skipped}
                for r in tri.rounds]},
        }
        # normalize through JSON exactly as the CLI serializes
        self.expected = {k: json.loads(json.dumps(v, default=jsonable)) for k, v in expected.items()}

    def warmup(self) -> None:
        for op in CLI_OPS:
            run_cli(self.argv(op))

    def _report(self, op: str, out) -> bytes:
        code, stdout, _ = out
        if op != "coral":
            return stdout.encode()
        report = self.path("coral") / "coral_report.json"
        return report.read_bytes() if code == 0 and report.exists() else b""

    def _digest(self, op: str, out) -> str:
        chunks = [self._report(op, out)]
        if op == "coral":
            adapted = self.path("coral") / "adapted_coral.csv"
            chunks.append(adapted.read_bytes() if adapted.exists() else b"")
        return sha256(*chunks)

    def _failed(self, op: str, out) -> int:
        code = out[0]
        if code != 0:
            return 1
        try:
            result = json.loads(self._report(op, out))["result"]
        except (ValueError, KeyError):
            return 1
        if op == "coral" and (self.path("coral") / "adapted_coral.csv").read_bytes() != \
                self.path("coral_expected.csv").read_bytes():
            return 1
        return int(result != self.expected[op])

    def ops(self) -> list[Op]:
        return [Op(op, "cli.main", 1, lambda op=op: run_cli(self.argv(op)),
                   lambda out, op=op: self._digest(op, out), lambda out, op=op: self._failed(op, out))
                for op in CLI_OPS]

    def chunks(self) -> list[list[Op]]:
        return [self.ops()] * self.rounds


WORKLOADS = {w.name: w for w in (Adversarial, Selection, ExactCli)}
