"""Command-line surface: one subcommand per operation plus repro protocols.

Reports are deterministic JSON (sorted keys, no timestamps); the resolved
run configuration and artifact version are embedded in every report for
provenance. Wall-clock metadata goes to a separate run_meta.json next to
the reports, so report bytes are identical across reruns with one seed.

Exit codes: 0 success, 2 contract/config/format errors (machine-readable
JSON on stderr), 3 divergence mid-run (partial trace preserved when an
output directory is set).
"""

from __future__ import annotations

import argparse
import configparser
import csv as _csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adapt import SelectConfig, coral, select_sources
from .bounds import (
    bound_ineq1,
    bound_ineq2,
    bound_ineq3,
    bound_thm1,
    bound_thm3,
    bound_thm4,
    bound_thm6_margin,
    lemma1_report,
    rademacher,
    thm2_dev_report,
)
from .data import Dataset, gen_gaussian_pair, read_csv, read_idx, write_csv
from .discrepancy import (
    StumpClass,
    dh_adv,
    dh_exact,
    disc_exact,
    l1_hist,
    phd,
    sdisc_adv,
    sdisc_exact,
    w1_exact,
)
from .errors import ConfigError, PhdkitError, TrainingError
from .models import (
    Arch,
    TrainConfig,
    accuracy,
    empirical_risk,
    grad_check,
    linear_arch,
    load_hypothesis,
    logistic,
    margin,
    mlp_arch,
    save_hypothesis,
    train_erm,
    zero_one,
)
from .protocols import PROTOCOLS
from .semisup import SelfTrainConfig
from .tritrain import TriTrainConfig, tritrain_round

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_NUMERIC = 3


def _parse_hidden(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


DEFAULT_LABEL_COL = "label"


def _load_dataset(path: str, label_col: str | None = DEFAULT_LABEL_COL, labels: str | None = None,
                  k: int | None = None) -> Dataset:
    p = Path(path)
    if p.suffix.lower() == ".csv":
        if label_col == DEFAULT_LABEL_COL:
            # conventional column name: fall back to unlabeled when absent
            header = p.read_text().splitlines()[0].split(",") if p.exists() else []
            if DEFAULT_LABEL_COL not in header:
                label_col = None
        return read_csv(p, label_col=label_col if label_col else None, k=k)
    return read_idx(p, labels_path=labels)


def _arch_from_args(args, in_dim: int) -> Arch:
    hidden = _parse_hidden(args.hidden)
    if not hidden:
        return linear_arch(in_dim, args.out_dim)
    return mlp_arch(in_dim, hidden, out_dim=args.out_dim, batch_norm=args.batch_norm)


def _train_cfg(args, seed: int) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                       seed=seed, weight_decay=args.weight_decay)


def _emit(args, name: str, payload: dict, csv_rows: tuple[list[str], list[list[str]]] | None = None) -> None:
    # output location and config-file path are plumbing, not configuration:
    # they go to the meta sidecar so report bytes match across reruns
    doc = {
        "artifact_version": __version__,
        "command": name,
        "run_config": {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out", "config")},
        "result": payload,
    }
    text = json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}_report.json").write_text(text)
        meta = {"written_at_unix": time.time(), "report": f"{name}_report.json",
                "out_dir": str(out), "config_file": args.config}
        (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
        if args.format == "csv" and csv_rows is not None:
            header, rows = csv_rows
            with open(out / f"{name}_report.csv", "w", newline="") as f:
                w = _csv.writer(f)
                w.writerow(header)
                w.writerows(rows)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_gen(args) -> None:
    shift = _parse_floats(args.shift)
    shift_arg = shift[0] if len(shift) == 1 else np.asarray(shift)
    S, T = gen_gaussian_pair(args.n, args.d, shift=shift_arg, rotate=args.rotate,
                             label_rule=args.rule, seed=args.seed, k=args.k,
                             layout_seed=args.layout_seed)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    src_path = out / f"{args.prefix}_source.csv"
    tgt_path = out / f"{args.prefix}_target.csv"
    write_csv(S, src_path)
    write_csv(T, tgt_path)
    _emit(args, "gen", {"source": str(src_path), "target": str(tgt_path),
                        "n": args.n, "d": args.d, "k": S.k})


def cmd_train(args) -> None:
    D = _load_dataset(args.data, args.label_col, args.labels)
    arch = _arch_from_args(args, D.d)
    h = train_erm(D, arch, _train_cfg(args, args.seed))
    model_path = Path(args.out or ".") / args.model_name
    model_path.parent.mkdir(parents=True, exist_ok=True)
    save_hypothesis(h, model_path)
    _emit(args, "train", {
        "model": str(model_path),
        "train_zero_one_risk": empirical_risk(h, None, D, zero_one()),
        "train_accuracy": accuracy(h, D),
        "params": int(h.params.shape[0]),
    })


def cmd_phd(args) -> None:
    h1 = load_hypothesis(args.h1)
    h2 = load_hypothesis(args.h2)
    T = _load_dataset(args.target, args.label_col, args.labels)
    loss = margin(args.rho) if args.loss == "margin" else zero_one()
    rep = phd(h1, h2, T, loss)
    _emit(args, "phd", rep.to_dict(), (rep.csv_header(), [rep.csv_row()]))


def _exact_or_adv(args, S: Dataset, T: Dataset, kind: str):
    if args.method == "exact":
        cls = StumpClass.from_data(S, T)
        if kind == "dh":
            return dh_exact(S, T, cls)
        hS = load_hypothesis(args.model)
        return sdisc_exact(S, T, hS, cls)
    arch = _arch_from_args(args, S.d)
    cfg = _train_cfg(args, args.seed)
    if kind == "dh":
        return dh_adv(S, T, arch, cfg, eval_mode=args.eval_mode)
    hS = load_hypothesis(args.model)
    return sdisc_adv(S, T, hS, arch, cfg, eval_mode=args.eval_mode)


def cmd_dh(args) -> None:
    S = _load_dataset(args.source, args.label_col)
    T = _load_dataset(args.target, args.label_col)
    rep = _exact_or_adv(args, S, T, "dh")
    _emit(args, "dh", rep.to_dict(), (rep.csv_header(), [rep.csv_row()]))


def cmd_sdisc(args) -> None:
    S = _load_dataset(args.source, args.label_col)
    T = _load_dataset(args.target, args.label_col)
    rep = _exact_or_adv(args, S, T, "sdisc")
    _emit(args, "sdisc", rep.to_dict(), (rep.csv_header(), [rep.csv_row()]))


def cmd_disc(args) -> None:
    S = _load_dataset(args.source, args.label_col)
    T = _load_dataset(args.target, args.label_col)
    rep = disc_exact(S, T, StumpClass.from_data(S, T))
    _emit(args, "disc", rep.to_dict(), (rep.csv_header(), [rep.csv_row()]))


def cmd_w1(args) -> None:
    S = _load_dataset(args.source, args.label_col)
    T = _load_dataset(args.target, args.label_col)
    rep = w1_exact(S, T, seed=args.seed, cap=args.cap)
    payload = rep.to_dict()
    if args.bins:
        payload["l1_hist"] = l1_hist(S, T, args.bins)
    _emit(args, "w1", payload, (rep.csv_header(), [rep.csv_row()]))


def cmd_bounds(args) -> None:
    T = _load_dataset(args.target, args.label_col, args.labels)
    h = load_hypothesis(args.h) if args.h else None
    h1 = load_hypothesis(args.h1) if args.h1 else None
    h2 = load_hypothesis(args.h2) if args.h2 else None
    h_t_star = load_hypothesis(args.ht_star) if args.ht_star else None
    diag = {"h_t_star": h_t_star, "oracle_T": T if T.labeled else None}

    rad = None
    if args.bound in ("thm2", "thm3", "thm4", "thm6"):
        cls = StumpClass.from_data(T)
        rad = rademacher(T, cls, draws=args.rad_draws, seed=args.seed)

    def stars():
        return load_hypothesis(args.h1_star), load_hypothesis(args.h2_star)

    def supremum(bound, measure):
        S = _load_dataset(args.source, args.label_col)
        value = args.disc_value
        if value is None:
            value = measure(S, T, StumpClass.from_data(S, T)).value
        return bound(h, h1, S, T, value, **diag)

    # The lambdas resolve each bound function by name when called, so a wrapper
    # installed on this module after import (perfbench's layer tracer) still runs.
    calls = {
        "lemma1": lambda: lemma1_report(args.bound_m, T.n, args.delta),
        "ineq1": lambda: bound_ineq1(h, h1, T, **diag),
        "thm1": lambda: bound_thm1(h, h1, h2, T, zero_one(), **diag),
        "ineq2": lambda: supremum(bound_ineq2, lambda S, T, cls: sdisc_exact(S, T, h1, cls)),
        "ineq3": lambda: supremum(bound_ineq3, disc_exact),
        "thm2": lambda: thm2_dev_report(h1, h2, *stars(), T, rad, args.delta),
        "thm3": lambda: bound_thm3(h, h1, h2, *stars(), T, rad, None, args.delta, **diag),
        "thm4": lambda: bound_thm4(h, h1, h2, T, rad, args.delta, **diag),
        "thm6": lambda: bound_thm6_margin(h, h1, h2, T, args.rho, args.k_classes, rad, args.delta, **diag),
    }
    if args.bound not in calls:
        raise ConfigError(f"unknown bound {args.bound!r}")
    rep = calls[args.bound]()
    header = rep.csv_header([rep])
    _emit(args, "bounds", rep.to_dict(), (header, [rep.csv_row(header)]))


def cmd_tritrain(args) -> None:
    S = _load_dataset(args.source, args.label_col)
    T = _load_dataset(args.target, args.label_col)
    arch = _arch_from_args(args, S.d)
    cfg = TriTrainConfig(base=_train_cfg(args, args.seed), holdout_frac=args.holdout_frac,
                         emit_bounds=not args.no_bounds)
    res = tritrain_round(S, T, arch, cfg, rounds=args.rounds, seed=args.seed)
    header, rows = res.csv_rows()
    payload = {
        "rounds": [
            {
                "round": r.round_index,
                "coverage": r.coverage,
                "tpl_size": r.tpl_size,
                "bound_total": None if r.bound is None else r.bound.total,
                "target_accuracy": r.target_accuracy,
                "skipped": r.skipped,
            }
            for r in res.rounds
        ],
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_hypothesis(res.h, out / "tritrain_h.bin")
        with open(out / "tritrain_trace.csv", "w", newline="") as f:
            w = _csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
        payload["model"] = str(out / "tritrain_h.bin")
    _emit(args, "tritrain", payload, (header, rows))


def cmd_select(args) -> None:
    sources = [_load_dataset(p, args.label_col) for p in args.sources.split(",")]
    T = _load_dataset(args.target).without_labels()
    oracle = _load_dataset(args.oracle, args.label_col) if args.oracle else None
    flags = None
    if args.clean_flags:
        flags = [bool(int(v)) for v in args.clean_flags.split(",")]
    arch = _arch_from_args(args, sources[0].d)
    base = _train_cfg(args, args.seed)
    cfg = SelectConfig(arch=arch, base=base,
                       selftrain=SelfTrainConfig(max_rounds=args.ssl_rounds, base=base))
    out = select_sources(sources, T, args.measure, args.top_k, cfg, seed=args.seed,
                         clean_flags=flags, oracle=oracle, jobs=args.jobs)
    _emit(args, "select", out.to_dict())


def cmd_coral(args) -> None:
    S = _load_dataset(args.source, args.label_col)
    T = _load_dataset(args.target).without_labels()
    A = coral(S, T, ridge=args.ridge)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.prefix}_coral.csv"
    write_csv(A, path)
    _emit(args, "coral", {"adapted": str(path), "n": A.n, "d": A.d})


def cmd_gradcheck(args) -> None:
    rng = np.random.default_rng(args.seed)
    X = rng.standard_normal((args.probe_n, args.d))
    if args.out_dim == 1:
        y = rng.integers(0, 2, size=args.probe_n)
        loss = logistic()
    else:
        from .models import cross_entropy

        y = rng.integers(0, args.out_dim, size=args.probe_n)
        loss = cross_entropy()
    probe = Dataset(X, y, max(2, args.out_dim))
    arch = _arch_from_args(args, args.d)
    err = grad_check(arch, loss, probe, eps=args.eps, seed=args.seed)
    _emit(args, "gradcheck", {"max_relative_error": err, "arch": str(arch.widths),
                              "batch_norm": arch.batch_norm})


def cmd_repro(args) -> None:
    if args.protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {args.protocol!r}; expected one of {sorted(PROTOCOLS)}")
    cfg_cls, runner = PROTOCOLS[args.protocol]
    cfg = cfg_cls()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    if overrides:
        cfg = _apply_overrides(cfg, overrides)
    report = runner(cfg)
    csv_rows = _protocol_csv(report)
    _emit(args, f"repro_{args.protocol}", report, csv_rows)


def _apply_overrides(cfg, overrides: dict):
    fields = {f.name: f for f in dataclasses.fields(cfg)}
    casted = {}
    for key, raw in overrides.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r} for {type(cfg).__name__}")
        current = getattr(cfg, key)
        if isinstance(current, bool):
            casted[key] = raw.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            casted[key] = int(raw)
        elif isinstance(current, float):
            casted[key] = float(raw)
        elif isinstance(current, tuple):
            elem = float if (current and isinstance(current[0], float)) else int
            casted[key] = tuple(elem(v) for v in str(raw).split(",")) if str(raw) else ()
        else:
            casted[key] = raw
    return dataclasses.replace(cfg, **casted)


def _protocol_csv(report: dict):
    if "rows" not in report:
        return None
    rows = report["rows"]
    if not rows:
        return None
    if report.get("protocol") == "fig2":
        sigmas = sorted({r["sigma"] for r in rows})
        header = ["sigma", "phd_score", "w1_score", "phd_accuracy", "w1_accuracy"]
        s = report["summary"]
        out = [[repr(sig),
                repr(s["phd"]["score_by_sigma"][repr(sig)]),
                repr(s["w1"]["score_by_sigma"][repr(sig)]),
                repr(s["phd"]["accuracy_by_sigma"][repr(sig)]),
                repr(s["w1"]["accuracy_by_sigma"][repr(sig)])]
               for sig in sigmas]
        return header, out
    header = list(rows[0].keys())
    return header, [[repr(r[k]) if isinstance(r[k], float) else str(r[k]) for k in header] for r in rows]


# ---------------------------------------------------------------------------
# Parser assembly and config-file handling
# ---------------------------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser, epochs: int = 50) -> None:
    p.add_argument("--hidden", default="64,64", help="comma widths; empty for linear")
    p.add_argument("--out-dim", type=int, default=1)
    p.add_argument("--batch-norm", action="store_true", default=True)
    p.add_argument("--no-batch-norm", dest="batch_norm", action="store_false")
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="phdkit", description=__doc__)
    root.add_argument("--seed", type=int, default=0)
    root.add_argument("--config", default=None, help="INI config file with sections per command")
    root.add_argument("--out", default=None, help="output directory (stdout if omitted)")
    root.add_argument("--format", choices=("json", "csv"), default="json")
    root.add_argument("--jobs", type=int, default=1)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic source/target pair")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--shift", default="0")
    p.add_argument("--rotate", type=float, default=0.0)
    p.add_argument("--rule", default="linear")
    p.add_argument("--layout-seed", type=int, default=None)
    p.add_argument("--prefix", default="pair")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train an ERM hypothesis")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--label-col", default="label")
    p.add_argument("--model-name", default="model.bin")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("phd", help="paired hypotheses discrepancy of two saved models")
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
    p.add_argument("--loss", choices=("zero_one", "margin"), default="zero_one")
    p.add_argument("--rho", type=float, default=1.0)
    p.set_defaults(func=cmd_phd)

    for name, fn in (("dh", cmd_dh), ("sdisc", cmd_sdisc)):
        p = sub.add_parser(name, help=f"{name} estimate (exact stumps or adversarial)")
        p.add_argument("--source", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
        p.add_argument("--method", choices=("exact", "adv"), default="exact")
        p.add_argument("--eval-mode", choices=("insample", "heldout"), default="insample")
        p.add_argument("--model", default=None, help="saved source hypothesis (sdisc)")
        _add_train_flags(p, epochs=40)
        p.set_defaults(func=fn)

    p = sub.add_parser("disc", help="exact discrepancy distance over the stump class")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("w1", help="exact empirical Wasserstein-1 (and optional L1 histogram)")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
    p.add_argument("--cap", type=int, default=512)
    p.add_argument("--bins", type=int, default=0)
    p.set_defaults(func=cmd_w1)

    p = sub.add_parser("bounds", help="evaluate one generalization-bound expression")
    p.add_argument("--bound", required=True,
                   choices=("ineq1", "ineq2", "ineq3", "thm1", "thm2", "thm3", "thm4", "thm6", "lemma1"))
    p.add_argument("--target", required=True)
    p.add_argument("--source", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
    p.add_argument("--h", default=None)
    p.add_argument("--h1", default=None)
    p.add_argument("--h2", default=None)
    p.add_argument("--h1-star", default=None)
    p.add_argument("--h2-star", default=None)
    p.add_argument("--ht-star", default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--disc-value", type=float, default=None)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--k-classes", type=int, default=2)
    p.add_argument("--bound-m", type=float, default=1.0)
    p.add_argument("--rad-draws", type=int, default=50)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("tritrain", help="agreement-set tri-training with per-round bounds")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--label-col", default="label")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--holdout-frac", type=float, default=0.25)
    p.add_argument("--no-bounds", action="store_true")
    _add_train_flags(p)
    p.set_defaults(func=cmd_tritrain)

    p = sub.add_parser("select", help="rank candidate sources against a target")
    p.add_argument("--sources", required=True, help="comma-separated dataset paths")
    p.add_argument("--target", required=True)
    p.add_argument("--label-col", default="label")
    p.add_argument("--measure", choices=("phd", "w1"), default="phd")
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--clean-flags", default=None)
    p.add_argument("--oracle", default=None)
    p.add_argument("--ssl-rounds", type=int, default=2)
    _add_train_flags(p, epochs=20)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("coral", help="correlation-align a source onto a target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--label-col", default="label")
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--prefix", default="adapted")
    p.set_defaults(func=cmd_coral)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backpropagation")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--probe-n", type=int, default=4)
    p.add_argument("--eps", type=float, default=1e-5)
    _add_train_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("repro", help="rerun a whole experiment protocol")
    p.add_argument("protocol", choices=sorted(PROTOCOLS))
    p.add_argument("--set", action="append", default=[],
                   help="override a protocol config field, key=value (repeatable)")
    p.set_defaults(func=cmd_repro)
    return root


def _apply_config_file(root: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Turn config-file entries into argument defaults; reject unknown keys."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    path = argv[idx + 1]
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    known_commands = set()
    for action in root._actions:
        if isinstance(action, argparse._SubParsersAction):
            known_commands = set(action.choices)
    command = next((a for a in argv if a in known_commands), None)
    extra: list[str] = []
    for section in parser.sections():
        if section not in ("global", command):
            continue
        for key, value in parser.items(section):
            flag = "--" + key.replace("_", "-")
            if flag in argv or (section == "global" and key == "seed" and "--seed" in argv):
                continue  # explicit flags win
            if not _flag_known(root, command, flag):
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            if section == "global":
                argv = [flag, value] + argv
            else:
                extra += [flag, value]
    return argv + extra


def _flag_known(root: argparse.ArgumentParser, command: str | None, flag: str) -> bool:
    for action in root._actions:  # root-level flags
        if flag in action.option_strings:
            return True
        if isinstance(action, argparse._SubParsersAction) and command in action.choices:
            for sub_action in action.choices[command]._actions:
                if flag in sub_action.option_strings:
                    return True
    return False


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    root = build_parser()
    try:
        argv = _apply_config_file(root, argv)
        args = root.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except TrainingError as e:
        sys.stderr.write(json.dumps({"error": type(e).__name__, "message": str(e),
                                     "epoch": e.epoch}) + "\n")
        return EXIT_NUMERIC
    except FileNotFoundError as e:
        sys.stderr.write(json.dumps({"error": "FileNotFoundError", "message": str(e)}) + "\n")
        return EXIT_CONTRACT
    except PhdkitError as e:
        payload = {"error": type(e).__name__, "message": str(e)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return EXIT_CONTRACT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
