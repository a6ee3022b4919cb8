"""Outside-in layer tracing for the phdkit benchmark.

Wrappers go on the names in the module namespaces where callers look them
up (``phdkit.protocols.dh_adv``, ``phdkit.semisup.train_erm``, ...), so the
program's own source is never edited. Each wrapped call records a span:
name, start, end, parent span and the benchmark unit it ran for. Spans stay
in memory and are aggregated (or written out) when the run ends.

A layer's self time is the duration of its spans minus the time their child
spans cover. Every traced pass runs inside one top-level span opened by the
benchmark, so the self times of all layers plus ``trace.remainder_s`` add up
to the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


def _rows(a) -> dict:
    X = a.get("X")
    return {"rows": int(getattr(X, "shape", (len(X),))[0])} if X is not None else {}


def _dataset_rows(a) -> dict:
    return {"rows": int(a["D"].n)}


def _train_steps(a) -> dict:
    # epochs x ceil(n / batch): the optimizer steps the call will take
    cfg, D = a["cfg"], a["D"]
    return {"steps": int(cfg.epochs * math.ceil(D.n / cfg.batch_size))}


def _class_size(a) -> dict:
    return {"thresholds": int(a["cls"].size)}


def _csv_bytes(a) -> dict:
    return {"bytes": Path(a["path"]).stat().st_size}


def _csv_rows_out(a, out) -> dict:
    return {"rows": int(out.n)}


def _w1_matched(a, out) -> dict:
    return {"matched": int(out.details.get("matched", 0))}


def _draws(a, out) -> dict:
    return {"draws": int(out.draws)}


def _self_train(a, out) -> dict:
    offered = int(a["T"].n)
    return {"rounds": int(out.rounds_run), "pseudo": int(sum(out.added_per_round)), "offered": offered}


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``owner`` is a module path, optionally followed by a
    class name (``phdkit.discrepancy:StumpClass``)."""

    owner: str
    attr: str
    span: str
    before: object = None  # bound arguments -> counts
    after: object = None  # bound arguments and result -> counts
    witness: str | None = None  # wrap the ``metric`` callback in this span

    @property
    def label(self) -> str:
        return f"{self.owner.replace(':', '.')}.{self.attr}"


def _targets() -> list[Target]:
    t: list[Target] = []

    def add(owners, attr, span, **kw):
        t.extend(Target(f"phdkit.{o}", attr, span, **kw) for o in owners)

    # models: training and inference, wrapped in each calling module
    add(("protocols", "semisup", "adapt", "tritrain", "bounds", "cli"), "train_erm", "models.train",
        before=_train_steps)
    add(("discrepancy",), "train_erm_traced", "models.train", before=_train_steps,
        witness="discrepancy.witness")
    add(("tritrain",), "train_erm_traced", "models.train", before=_train_steps)
    add(("discrepancy", "semisup"), "scores", "models.scores", before=_rows)
    add(("discrepancy", "tritrain", "bounds"), "predict", "models.scores", before=_rows)
    add(("protocols", "adapt", "tritrain", "cli"), "accuracy", "models.scores", before=_dataset_rows)
    add(("protocols", "discrepancy", "tritrain", "bounds", "cli"), "empirical_risk", "models.scores",
        before=_dataset_rows)
    # discrepancy: exact suprema, adversarial estimators, W1, PHD
    add(("protocols", "cli"), "dh_exact", "discrepancy.exact", before=_class_size)
    add(("protocols", "cli"), "sdisc_exact", "discrepancy.exact", before=_class_size)
    add(("protocols",), "stump_erm", "discrepancy.exact", before=_class_size)
    add(("cli",), "disc_exact", "discrepancy.exact", before=_class_size)
    add(("discrepancy:StumpClass",), "from_data", "discrepancy.stump_class")
    add(("protocols", "cli"), "dh_adv", "discrepancy.adv")
    add(("protocols", "cli"), "sdisc_adv", "discrepancy.adv")
    add(("adapt", "cli"), "w1_exact", "discrepancy.w1", after=_w1_matched)
    add(("cli",), "l1_hist", "discrepancy.l1_hist")
    add(("protocols", "adapt", "bounds", "cli"), "phd", "discrepancy.phd")
    # semisup, adapt
    add(("protocols", "adapt"), "train_self", "semisup.self_train", after=_self_train)
    add(("protocols", "cli"), "select_sources", "adapt.select")
    add(("adapt", "cli"), "coral", "adapt.coral")
    # bounds
    add(("tritrain", "cli"), "rademacher", "bounds.rademacher", after=_draws)
    add(("protocols",), "bound_ineq2", "bounds.eval")
    add(("protocols",), "bound_thm1", "bounds.eval")
    add(("tritrain",), "bound_thm4", "bounds.eval")
    for name in ("bound_ineq1", "bound_ineq2", "bound_ineq3", "bound_thm1", "bound_thm3", "bound_thm4",
                 "bound_thm6_margin", "lemma1_report", "thm2_dev_report"):
        add(("cli",), name, "bounds.eval")
    # data
    add(("cli",), "read_csv", "data.read_csv", before=_csv_bytes, after=_csv_rows_out)
    add(("cli",), "write_csv", "data.write_csv", before=_dataset_rows)
    add(("protocols", "cli"), "gen_gaussian_pair", "data.gen")
    add(("protocols", "adapt"), "split", "data.gen")
    add(("protocols",), "add_feature_noise", "data.gen")
    # tritrain
    add(("cli",), "tritrain_round", "tritrain")
    return t


TARGETS = _targets()
LAYERS = ("models", "discrepancy", "semisup", "adapt", "bounds", "data", "tritrain", "protocols", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    unit: str | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrapped names in and out so untraced passes run the bare program."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.unit: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, counts: dict | None = None) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), math.nan, stack[-1] if stack else -1, self.unit, counts or {})
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def timed(self, fn, name: str):
        def call(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return call

    def _mark_missing(self, target: Target) -> None:
        # A name gone from the program, or a count hook that no longer fits
        # its signature or result, marks the target missing; a hook must
        # never fail the program's call.
        if target.label not in self.missing:
            self.missing.append(target.label)

    def _wrap(self, fn, target: Target):
        sig = inspect.signature(fn)

        def call(*args, **kwargs):
            counts, arguments = {}, None
            if target.before or target.after:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                    if target.before:
                        counts = target.before(arguments)
                except Exception:
                    self._mark_missing(target)
            if target.witness and kwargs.get("metric") is not None:
                kwargs["metric"] = self.timed(kwargs["metric"], target.witness)
            idx = self.open(target.span, counts)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if target.after and arguments is not None:
                try:
                    self.spans[idx].counts.update(target.after(arguments, out))
                except Exception:
                    self._mark_missing(target)
            return out
        return call

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            mod_name, _, cls_name = target.owner.partition(":")
            try:
                owner = importlib.import_module(mod_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                raw = owner.__dict__[target.attr] if cls_name else getattr(owner, target.attr)
            except (ImportError, AttributeError, KeyError):
                self._mark_missing(target)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._saved.append((owner, target.attr, raw))
            setattr(owner, target.attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "unit": s.unit, **s.counts}) + "\n")


def _missing_spans(tracer: Tracer) -> set[str]:
    """Span names all of whose wrap targets are missing."""
    by_span: dict[str, list[str]] = {}
    for t in tracer.targets:
        by_span.setdefault(t.span, []).append(t.label)
        if t.witness:
            by_span.setdefault(t.witness, []).append(t.label)
    return {span for span, labels in by_span.items() if all(lbl in tracer.missing for lbl in labels)}


# Per-layer metrics read straight off the spans, named <span>.<field>: the
# span's call count, inclusive time (s), self time (self_s) or a count that
# its hooks recorded.
SPAN_METRICS = (
    "models.train.calls", "models.train.steps", "models.train.self_s",
    "models.scores.calls", "models.scores.rows", "models.scores.s",
    "discrepancy.adv.calls", "discrepancy.adv.s", "discrepancy.witness.calls", "discrepancy.witness.s",
    "discrepancy.exact.calls", "discrepancy.exact.s", "discrepancy.exact.thresholds",
    "discrepancy.w1.calls", "discrepancy.w1.matched", "discrepancy.w1.s", "discrepancy.phd.s",
    "semisup.self_train.calls", "semisup.self_train.s", "semisup.self_train.rounds",
    "adapt.select.s", "adapt.coral.calls", "adapt.coral.s",
    "bounds.rademacher.draws", "bounds.rademacher.s", "bounds.eval.s",
    "data.read_csv.rows", "data.read_csv.bytes", "data.read_csv.s", "data.write_csv.rows", "data.write_csv.s",
    "tritrain.s",
)
UNITS = {"s": "s", "self_s": "s", "bytes": "B"}


def layer_metrics(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float],
                  cpu_s: float, cli_ops) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics, each per traced pass.

    ``cpu_s`` is the CPU time of the process and its children over the
    traced passes; ``trace.overhead_frac`` compares the median traced pass
    with the median untraced pass of the same run. A metric whose every
    wrapped name is gone from the program is reported with value ``None``
    (missing), never as zero.
    """
    selfs = tracer.self_times()
    agg: dict[str, dict[str, float]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    cli_durations: dict[str, list[float]] = {}
    for s, own in zip(tracer.spans, selfs):
        a = agg.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["s"] += s.end - s.start
        a["self_s"] += own
        for k, v in s.counts.items():
            a[k] = a.get(k, 0) + v
        layer_self[s.name.split(".", 1)[0]] += own
        if s.name == "cli.main":
            cli_durations.setdefault(s.unit, []).append(s.end - s.start)

    n = max(len(traced_walls), 1)
    gone = _missing_spans(tracer)

    def field(span: str, key: str) -> float:
        return agg.get(span, {}).get(key, 0)

    def ratio(span: str, num: float, den: float, scale: float = 1.0) -> float | None:
        return None if span in gone else (scale * num / den if den else 0.0)

    m: dict[str, tuple[float | None, str]] = {}
    for name in SPAN_METRICS:
        span, key = name.rsplit(".", 1)
        m[name] = (None if span in gone else field(span, key) / n, UNITS.get(key, "count"))
    m["models.train.step_us"] = (ratio("models.train", field("models.train", "self_s"),
                                       field("models.train", "steps"), 1e6), "us")
    m["discrepancy.witness.share"] = (ratio("discrepancy.witness", field("discrepancy.witness", "s"),
                                            field("discrepancy.adv", "s")), "frac")
    m["semisup.self_train.pseudo_yield"] = (ratio("semisup.self_train", field("semisup.self_train", "pseudo"),
                                                  field("semisup.self_train", "offered")), "frac")
    traced_wall = sum(traced_walls)
    m["protocols.cpu_util"] = (cpu_s / traced_wall if traced_wall else 0.0, "frac")
    for op in cli_ops:
        durs = cli_durations.get(op)
        m[f"cli.cmd.{op}.p50_s"] = (statistics.median(durs) if durs else 0.0, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] / n, "s")
    m["trace.wall_s"] = (traced_wall / n, "s")
    m["trace.remainder_s"] = ((traced_wall - sum(selfs)) / n, "s")
    m["trace.overhead_frac"] = (statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0, "frac")
    m["trace.spans"] = (len(tracer.spans) / n, "count")
    m["trace.missing"] = (len(tracer.missing), "count")
    return m
