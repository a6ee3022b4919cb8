"""Command-line surface: one subcommand per operation plus repro protocols.

Reports are deterministic JSON (sorted keys, no timestamps); the resolved
run configuration and artifact version are embedded in every report for
provenance. Wall-clock metadata goes to a separate <command>_meta.json next
to each report, so report bytes are identical across reruns with one seed.

Exit codes: 0 success, 2 usage/contract/config/format errors (machine-readable
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
    check_delta,
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
from .errors import ConfigError, ContractError, PhdkitError, TrainingError
from .models import (
    Arch,
    TrainConfig,
    accuracy,
    empirical_risk,
    grad_check,
    linear_arch,
    load_hypothesis,
    margin,
    mlp_arch,
    save_hypothesis,
    train_erm,
    zero_one,
)
from .numkit import child_rng
from .protocols import PROTOCOLS
from .tritrain import TriTrainConfig, tritrain_round

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_NUMERIC = 3


def _numbers(text, elem=float) -> tuple:
    """Comma-separated numbers; blank text is the empty tuple."""
    try:
        return tuple(elem(v) for v in str(text).split(",")) if str(text).strip() else ()
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


DEFAULT_LABEL_COL = "label"


def _load_dataset(path: str, label_col: str | None = DEFAULT_LABEL_COL, labels: str | None = None) -> Dataset:
    p = Path(path)
    if p.suffix.lower() == ".csv":
        # conventional column name: fall back to unlabeled when absent
        return read_csv(p, label_col=label_col or None, label_optional=label_col == DEFAULT_LABEL_COL)
    return read_idx(p, labels_path=labels)


def _arch_from_args(args, in_dim: int) -> Arch:
    hidden = _numbers(args.hidden, int)
    if not hidden:
        return linear_arch(in_dim, args.out_dim)
    return mlp_arch(in_dim, hidden, out_dim=args.out_dim, batch_norm=args.batch_norm)


def _train_cfg(args, seed: int) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                       seed=seed, weight_decay=args.weight_decay)


def _emit(args, name: str, payload: dict, csv_rows: tuple[list[str], list[list[str]]] | None = None) -> None:
    # output location and config-file path are plumbing, not configuration:
    # they go to the meta sidecar so report bytes match across reruns. The
    # retired --jobs stays as "jobs": 1 (serial) until stored digests drop it
    run_config = {k: v for k, v in vars(args).items() if k not in ("func", "out", "config")}
    doc = {
        "artifact_version": __version__,
        "command": name,
        "run_config": {"jobs": 1, **run_config},
        "result": payload,
    }
    text = json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}_report.json").write_text(text)
        meta = {"written_at_unix": time.time(), "report": f"{name}_report.json",
                "out_dir": str(out), "config_file": args.config}
        (out / f"{name}_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
        if args.format == "csv" and csv_rows is not None:
            _write_table(out / f"{name}_report.csv", *csv_rows)
    else:
        sys.stdout.write(text)


def _write_table(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as f:
        w = _csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


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
    shift = _numbers(args.shift)
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


def cmd_measure(args) -> None:
    """dh, sdisc or disc of --source against --target: exact stump scan or adversarial estimate."""
    kind = args.command
    if kind == "sdisc" and args.model is None:
        raise ConfigError("sdisc needs --model, the saved source hypothesis")
    S = _load_dataset(args.source, args.label_col)
    T = _load_dataset(args.target, args.label_col)
    hS = load_hypothesis(args.model) if kind == "sdisc" else None
    if kind == "disc" or args.method == "exact":
        cls = StumpClass.from_data(S, T)
        rep = (disc_exact(S, T, cls) if kind == "disc" else dh_exact(S, T, cls) if kind == "dh"
               else sdisc_exact(S, T, hS, cls))
    else:
        arch, cfg = _arch_from_args(args, S.d), _train_cfg(args, args.seed)
        rep = (dh_adv(S, T, arch, cfg, eval_mode=args.eval_mode) if kind == "dh"
               else sdisc_adv(S, T, hS, arch, cfg, eval_mode=args.eval_mode))
    _emit(args, kind, rep.to_dict(), (rep.csv_header(), [rep.csv_row()]))


def cmd_w1(args) -> None:
    S = _load_dataset(args.source, args.label_col)
    T = _load_dataset(args.target, args.label_col)
    rep = w1_exact(S, T, seed=args.seed, cap=args.cap)
    payload = rep.to_dict()
    if args.bins:
        payload["l1_hist"] = l1_hist(S, T, args.bins)
    _emit(args, "w1", payload, (rep.csv_header(), [rep.csv_row()]))


def _sup_value(v, measure) -> float:
    """--disc-value when given, else the exact supremum of ``measure`` over the stump class of (S, T)."""
    return v.disc_value if v.disc_value is not None else measure(v.S, v.T, StumpClass.from_data(v.S, v.T)).value


# Per bound: the flags it reads besides --target, whether it has a complexity
# and a confidence term, whether it has the diagnostic term that the optional
# --ht-star feeds, and its call on the loaded inputs. The calls resolve each
# bound function by name when they run, so a wrapper installed on this module
# after import (perfbench's layer tracer) still runs.
BOUNDS = {
    "ineq1": (("h", "h1"), False, True, lambda v: bound_ineq1(v.h, v.h1, v.T, **v.diag)),
    "ineq2": (("h", "h1", "source"), False, True, lambda v: bound_ineq2(
        v.h, v.h1, v.S, v.T, _sup_value(v, lambda S, T, cls: sdisc_exact(S, T, v.h1, cls)), **v.diag)),
    "ineq3": (("h", "h1", "source"), False, True,
              lambda v: bound_ineq3(v.h, v.h1, v.S, v.T, _sup_value(v, disc_exact), **v.diag)),
    "thm1": (("h", "h1", "h2"), False, True, lambda v: bound_thm1(v.h, v.h1, v.h2, v.T, **v.diag)),
    "thm2": (("h1", "h2", "h1_star", "h2_star"), True, False,
             lambda v: thm2_dev_report(v.h1, v.h2, v.h1_star, v.h2_star, v.T, v.rad, v.delta)),
    "thm3": (("h", "h1", "h2", "h1_star", "h2_star"), True, True,
             lambda v: bound_thm3(v.h, v.h1, v.h2, v.h1_star, v.h2_star, v.T, v.rad, v.delta, **v.diag)),
    "thm4": (("h", "h1", "h2"), True, True,
             lambda v: bound_thm4(v.h, v.h1, v.h2, v.T, v.rad, v.delta, **v.diag)),
    "thm6": (("h", "h1", "h2"), True, True,
             lambda v: bound_thm6_margin(v.h, v.h1, v.h2, v.T, v.rho, v.rad, v.delta, **v.diag)),
    "lemma1": ((), False, False, lambda v: lemma1_report(v.bound_m, v.T.n, v.delta)),
}


def cmd_bounds(args) -> None:
    flags, finite_sample, diagnostic, call = BOUNDS[args.bound]
    missing = ["--" + k.replace("_", "-") for k in flags if getattr(args, k) is None]
    if missing:
        raise ConfigError(f"bounds --bound {args.bound} needs {', '.join(missing)}")
    if finite_sample:
        check_delta(args.delta)
    # the parsed flags, with each input the bound reads loaded in place of its path
    v = argparse.Namespace(**vars(args), T=_load_dataset(args.target, args.label_col, args.labels))
    for k in flags:
        if k != "source":
            setattr(v, k, load_hypothesis(getattr(args, k)))
    if args.bound == "thm6" and {v.h.k, v.h1.k, v.h2.k} != {args.k_classes}:
        raise ConfigError(f"--k-classes {args.k_classes} must equal the class count of the model files "
                          f"(h {v.h.k}, h1 {v.h1.k}, h2 {v.h2.k})")
    if diagnostic:
        v.diag = {"h_t_star": load_hypothesis(args.ht_star) if args.ht_star else None,
                  "oracle_T": v.T if v.T.labeled else None}
    if "source" in flags:
        v.S = _load_dataset(args.source, args.label_col)
        if v.S.d != v.T.d:
            raise ContractError(f"--source has {v.S.d} features but --target has {v.T.d}")
    if finite_sample:
        v.rad = rademacher(v.T, StumpClass.from_data(v.T), draws=args.rad_draws, seed=args.seed)
    rep = call(v)
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
        _write_table(out / "tritrain_trace.csv", header, rows)
        payload["model"] = str(out / "tritrain_h.bin")
    _emit(args, "tritrain", payload, (header, rows))


def cmd_select(args) -> None:
    sources = [_load_dataset(p, args.label_col) for p in args.sources.split(",")]
    T = _load_dataset(args.target, args.label_col).without_labels()
    oracle = _load_dataset(args.oracle, args.label_col) if args.oracle else None
    flags = [bool(v) for v in _numbers(args.clean_flags, int)] if args.clean_flags else None
    cfg = SelectConfig(arch=_arch_from_args(args, sources[0].d), base=_train_cfg(args, args.seed),
                       ssl_rounds=args.ssl_rounds)
    out = select_sources(sources, T, args.measure, args.top_k, cfg, seed=args.seed,
                         clean_flags=flags, oracle=oracle)
    _emit(args, "select", dataclasses.asdict(out))


def cmd_coral(args) -> None:
    S = _load_dataset(args.source, args.label_col)
    T = _load_dataset(args.target, args.label_col).without_labels()
    A = coral(S, T, ridge=args.ridge)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.prefix}_coral.csv"
    write_csv(A, path)
    _emit(args, "coral", {"adapted": str(path), "n": A.n, "d": A.d})


def cmd_gradcheck(args) -> None:
    if min(args.d, args.probe_n, args.out_dim) < 1:
        raise ConfigError("gradcheck needs --d, --probe-n and --out-dim >= 1")
    rng = child_rng(args.seed)
    X = rng.standard_normal((args.probe_n, args.d))
    k = max(2, args.out_dim)
    probe = Dataset(X, rng.integers(0, k, size=args.probe_n), k)
    arch = _arch_from_args(args, args.d)
    err = grad_check(arch, probe, eps=args.eps, seed=args.seed)
    _emit(args, "gradcheck", {"max_relative_error": err, "arch": str(arch.widths),
                              "batch_norm": arch.batch_norm})


def cmd_repro(args) -> None:
    cfg_cls, runner = PROTOCOLS[args.protocol]
    overrides = {}
    for item in args.set:
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        overrides[key] = value
    cfg = _apply_overrides(cfg_cls(), overrides)
    if not cfg.seeds or (args.protocol == "fig2" and not cfg.sigmas):
        raise ConfigError("repro needs at least one seed (and, for fig2, one sigma)")
    # the global --seed offsets every protocol seed, so --seed 0 runs the configured seeds
    report = runner(dataclasses.replace(cfg, seeds=tuple(s + args.seed for s in cfg.seeds)))
    _emit(args, f"repro_{args.protocol}", report, _protocol_csv(report))


def _apply_overrides(cfg, overrides: dict):
    fields = {f.name for f in dataclasses.fields(cfg)}
    casted = {}
    for key, raw in overrides.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r} for {type(cfg).__name__}")
        current = getattr(cfg, key)
        try:
            if isinstance(current, tuple):
                casted[key] = _numbers(raw, float if (current and isinstance(current[0], float)) else int)
            else:
                casted[key] = type(current)(raw)
        except ValueError:
            raise ConfigError(f"bad value {raw!r} for config key {key!r}") from None
    return dataclasses.replace(cfg, **casted)


def _protocol_csv(report: dict):
    rows = report["rows"]
    if report["protocol"] == "fig2":
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors keep the exit-2 JSON contract
        raise ConfigError(message)


def _add_arch_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", default="64,64", help="comma widths; empty for linear")
    p.add_argument("--out-dim", type=int, default=1)
    p.add_argument("--no-batch-norm", dest="batch_norm", action="store_false")


def _add_train_flags(p: argparse.ArgumentParser, epochs: int = 50) -> None:
    """Architecture and optimizer flags of a command that trains."""
    _add_arch_flags(p)
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=0.0)


def _add_pair_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--label-col", default=DEFAULT_LABEL_COL)


COMMANDS = ("gen", "train", "phd", "dh", "sdisc", "disc", "w1", "bounds", "tritrain", "select", "coral",
            "gradcheck", "repro")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser, with the subcommand parser of ``command``.

    For one of ``COMMANDS`` only its parser is built: building the others
    costs each run more than its own. Otherwise (None or an unknown name)
    every command is registered, so root help and usage errors list them
    all, and every parser gets its flags when ``command`` is None.
    """
    # no abbreviated root flags: _with_config must see --config spelled out
    root = _Parser(prog="phdkit", description=__doc__, allow_abbrev=False)
    root.add_argument("--seed", type=int, default=0)
    root.add_argument("--config", default=None, help="INI config file with sections per command")
    root.add_argument("--out", default=None, help="output directory (stdout if omitted)")
    root.add_argument("--format", choices=("json", "csv"), default="json")
    sub = root.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser | None:
        if command in COMMANDS and name != command:
            return None
        p = sub.add_parser(name, help=summary)
        return p if command in (None, name) else None

    if p := add("gen", "generate a synthetic source/target pair"):
        p.add_argument("--n", type=int, default=500)
        p.add_argument("--d", type=int, default=2)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--shift", default="0")
        p.add_argument("--rotate", type=float, default=0.0)
        p.add_argument("--rule", default="linear")
        p.add_argument("--layout-seed", type=int, default=None)
        p.add_argument("--prefix", default="pair")
        p.set_defaults(func=cmd_gen)

    if p := add("train", "train an ERM hypothesis"):
        p.add_argument("--data", required=True)
        p.add_argument("--labels", default=None)
        p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
        p.add_argument("--model-name", default="model.bin")
        _add_train_flags(p)
        p.set_defaults(func=cmd_train)

    if p := add("phd", "paired hypotheses discrepancy of two saved models"):
        p.add_argument("--h1", required=True)
        p.add_argument("--h2", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--labels", default=None)
        p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
        p.add_argument("--loss", choices=("zero_one", "margin"), default="zero_one")
        p.add_argument("--rho", type=float, default=1.0)
        p.set_defaults(func=cmd_phd)

    for name in ("dh", "sdisc"):
        if p := add(name, f"{name} estimate (exact stumps or adversarial)"):
            _add_pair_flags(p)
            p.add_argument("--method", choices=("exact", "adv"), default="exact")
            p.add_argument("--eval-mode", choices=("insample", "heldout"), default="insample")
            p.add_argument("--model", default=None, help="saved source hypothesis (sdisc)")
            _add_train_flags(p, epochs=40)
            p.set_defaults(func=cmd_measure)

    if p := add("disc", "exact discrepancy distance over the stump class"):
        _add_pair_flags(p)
        p.set_defaults(func=cmd_measure)

    if p := add("w1", "exact empirical Wasserstein-1 (and optional L1 histogram)"):
        _add_pair_flags(p)
        p.add_argument("--cap", type=int, default=512)
        p.add_argument("--bins", type=int, default=0)
        p.set_defaults(func=cmd_w1)

    if p := add("bounds", "evaluate one generalization-bound expression"):
        p.add_argument("--bound", required=True, choices=tuple(BOUNDS))
        p.add_argument("--target", required=True)
        p.add_argument("--source", default=None)
        p.add_argument("--labels", default=None)
        p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
        for flag in ("--h", "--h1", "--h2", "--h1-star", "--h2-star", "--ht-star"):
            p.add_argument(flag, default=None)
        p.add_argument("--delta", type=float, default=0.05)
        p.add_argument("--disc-value", type=float, default=None)
        p.add_argument("--rho", type=float, default=1.0)
        p.add_argument("--k-classes", type=int, default=2)
        p.add_argument("--bound-m", type=float, default=1.0)
        p.add_argument("--rad-draws", type=int, default=50)
        p.set_defaults(func=cmd_bounds)

    if p := add("tritrain", "agreement-set tri-training with per-round bounds"):
        _add_pair_flags(p)
        p.add_argument("--rounds", type=int, default=3)
        p.add_argument("--holdout-frac", type=float, default=0.25)
        p.add_argument("--no-bounds", action="store_true")
        _add_train_flags(p)
        p.set_defaults(func=cmd_tritrain)

    if p := add("select", "rank candidate sources against a target"):
        p.add_argument("--sources", required=True, help="comma-separated dataset paths")
        p.add_argument("--target", required=True)
        p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
        p.add_argument("--measure", choices=("phd", "w1"), default="phd")
        p.add_argument("--top-k", type=int, default=5)
        p.add_argument("--clean-flags", default=None)
        p.add_argument("--oracle", default=None)
        p.add_argument("--ssl-rounds", type=int, default=2)
        _add_train_flags(p, epochs=20)
        p.set_defaults(func=cmd_select)

    if p := add("coral", "correlation-align a source onto a target"):
        _add_pair_flags(p)
        p.add_argument("--ridge", type=float, default=1e-6)
        p.add_argument("--prefix", default="adapted")
        p.set_defaults(func=cmd_coral)

    if p := add("gradcheck", "finite-difference check of the backpropagation"):
        p.add_argument("--d", type=int, default=3)
        p.add_argument("--probe-n", type=int, default=4)
        p.add_argument("--eps", type=float, default=1e-5)
        _add_arch_flags(p)
        p.set_defaults(func=cmd_gradcheck)

    if p := add("repro", "rerun a whole experiment protocol"):
        p.add_argument("protocol", choices=sorted(PROTOCOLS))
        p.add_argument("--set", action="append", default=[],
                       help="override a protocol config field, key=value (repeatable)")
        p.set_defaults(func=cmd_repro)
    return root


def _with_config(argv: list[str]) -> tuple[list[str], str | None]:
    """Splice the INI file named by --config into argv as --key=value flags,
    and name the command that argv runs.

    [global] entries go before argv, so explicit root flags after them win;
    the command's section goes after argv, minus the flags given explicitly.
    Unknown keys then fail in argparse like any unknown flag.
    """
    pre = _Parser(add_help=False, allow_abbrev=False)
    for flag in ("--seed", "--config", "--out", "--format"):  # the root flags: no value of theirs is the command
        pre.add_argument(flag)
    pre.add_argument("command", nargs="?")
    known = pre.parse_known_args(argv)[0]
    path, command = known.config, known.command
    if path is None:
        return argv, command
    ini = configparser.ConfigParser()
    try:
        if not ini.read(path, encoding="utf-8"):
            raise ConfigError(f"config file {path} not found or unreadable")
        head, tail = ([f"--{k.replace('_', '-')}={v}" for k, v in ini.items(s)] if ini.has_section(s) else []
                      for s in ("global", command))
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"bad config file {path}: {e}") from None
    explicit = {a.split("=", 1)[0] for a in argv}
    return head + argv + [t for t in tail if t.split("=", 1)[0] not in explicit], command


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, command = _with_config(argv)
        if any(a == "--help" or a.startswith("-h") for a in argv):  # root help lists every command
            command = None
        args = build_parser(command).parse_args(argv)
        args.func(args)
        return EXIT_OK
    except (PhdkitError, OSError) as e:
        payload = {"error": type(e).__name__, "message": str(e)}
        if isinstance(e, TrainingError):
            payload["epoch"] = e.epoch
        sys.stderr.write(json.dumps(payload) + "\n")
        return EXIT_NUMERIC if isinstance(e, TrainingError) else EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
