"""Desk-scale experiment protocols behind the repro commands.

Each protocol reruns one experimental phenomenon on synthetic domain pairs:
overestimation of supremum-based measures under complex classes, bound
tightness of the paired-hypotheses route, behavior on unrelated domains,
and multi-source selection quality under feature noise. Functions return
plain dicts (deterministic for a fixed config) that the CLI serializes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .adapt import (
    SelectConfig,
    select_sources,  # noqa: F401  (uncalled; perfbench's layer tracer wraps this name)
    select_sources_many,
)
from .bounds import bound_ineq2, bound_thm1
from .data import Dataset, add_feature_noise, gen_gaussian_pair, split
from .discrepancy import StumpClass, dh_adv, dh_exact, phd, sdisc_adv, sdisc_exact, stump_erm
from .errors import ConfigError
from .models import TrainConfig, accuracy, empirical_risk, mlp_arch, train_erm, train_erm_many, zero_one
from .numkit import child_rng
from .semisup import train_self


def _row_mean(rows: list[dict], key: str) -> float:
    return float(np.mean([r[key] for r in rows]))


# ---------------------------------------------------------------------------
# Overestimation of supremum measures (identical domains)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Config:
    seeds: tuple[int, ...] = tuple(range(10))
    n: int = 2000
    d: int = 16
    hidden: tuple[int, ...] = (64, 64)
    epochs: int = 25
    batch_size: int = 128
    adv_hidden: tuple[int, ...] = (128, 128)
    adv_epochs: int = 40
    adv_lr: float = 3e-3
    adv_batch: int = 256
    ssl_rounds: int = 2
    simple_cap: float = 0.08
    complex_floor: float = 0.30


def run_table1(cfg: Table1Config = Table1Config()) -> dict:
    """Identical domains: exact stump-class measures stay small while the
    adversarial MLP estimates of the supremum measures blow up and the
    paired-hypotheses value does not."""
    rows = []
    for seed in cfg.seeds:
        S, T = gen_gaussian_pair(cfg.n, cfg.d, shift=0.0, rotate=0.0, label_rule="linear", seed=seed)
        cls = StumpClass.from_data(S, T)
        dh_stump = dh_exact(S, T, cls).value
        hS_stump = stump_erm(cls, S)
        sdisc_stump = sdisc_exact(S, T, hS_stump, cls).value
        S1, S2 = split(S, (0.5, 0.5), seed=seed)
        phd_stump = phd(stump_erm(cls, S1), stump_erm(cls, S2), T).value

        arch = mlp_arch(cfg.d, cfg.hidden, batch_norm=True)
        base = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, seed=seed)
        h_s = train_erm(S, arch, base)
        T_fit, T_eval = split(T.without_labels(), (0.5, 0.5), seed=seed + 1)
        ssl = train_self(S, T_fit, h_s, base, cfg.ssl_rounds)
        phd_mlp = phd(h_s, ssl.hypothesis, T_eval).value

        adv_arch = mlp_arch(cfg.d, cfg.adv_hidden, batch_norm=True)
        adv_cfg = TrainConfig(epochs=cfg.adv_epochs, batch_size=cfg.adv_batch, lr=cfg.adv_lr, seed=seed)
        dh_mlp = dh_adv(S, T, adv_arch, adv_cfg).value
        sdisc_mlp = sdisc_adv(S, T, h_s, adv_arch, adv_cfg).value

        ok = (
            dh_stump <= cfg.simple_cap
            and sdisc_stump <= cfg.simple_cap
            and phd_stump <= cfg.simple_cap
            and dh_mlp >= cfg.complex_floor
            and sdisc_mlp >= cfg.complex_floor
            and phd_mlp <= cfg.simple_cap
        )
        rows.append({
            "seed": seed,
            "h_s_acc": accuracy(h_s, S),
            "dh_stump": dh_stump,
            "sdisc_stump": sdisc_stump,
            "phd_stump": phd_stump,
            "dh_mlp_adv": dh_mlp,
            "sdisc_mlp_adv": sdisc_mlp,
            "phd_mlp": phd_mlp,
            "success": bool(ok),
        })
    return {
        "protocol": "table1",
        "config": asdict(cfg),
        "rows": rows,
        "successes": int(sum(r["success"] for r in rows)),
        "means": {k: _row_mean(rows, k) for k in
                  ("dh_stump", "sdisc_stump", "phd_stump", "dh_mlp_adv", "sdisc_mlp_adv", "phd_mlp")},
    }


# ---------------------------------------------------------------------------
# Bound tightness (identical domains, MLP hypotheses)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Config:
    seeds: tuple[int, ...] = tuple(range(10))
    n: int = 1200
    d: int = 8
    blob_radius: float = 1.5
    blob_std: float = 0.75
    hidden: tuple[int, ...] = (64, 64)
    epochs: int = 30
    batch_size: int = 128
    adv_hidden: tuple[int, ...] = (128, 128)
    adv_epochs: int = 40
    adv_lr: float = 3e-3
    adv_batch: int = 256
    ssl_rounds: int = 2


def run_table2(cfg: Table2Config = Table2Config()) -> dict:
    """Empirical bound comparison on identical domains.

    The classifier under evaluation is the source hypothesis itself, so the
    trainable first terms of both bounds vanish and the comparison isolates
    the discrepancy and infeasible terms.
    """
    rows = []
    for seed in cfg.seeds:
        S, T = gen_gaussian_pair(cfg.n, cfg.d, shift=0.0, rotate=0.0, label_rule="linear", seed=seed,
                                 blob_std=cfg.blob_std, radius=cfg.blob_radius)
        T_fit, T_eval, T_star = split(T, (0.4, 0.3, 0.3), seed=seed)
        arch = mlp_arch(cfg.d, cfg.hidden, batch_norm=True)
        base = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, seed=seed)
        h_s = train_erm(S, arch, base)
        h_ssl = train_self(S, T_fit.without_labels(), h_s, base, cfg.ssl_rounds).hypothesis
        h_t_star = train_erm(T_star, arch, replace(base, seed=seed + 7))

        thm1 = bound_thm1(h_s, h_s, h_ssl, T_eval.without_labels(), h_t_star=h_t_star, oracle_T=T_eval)
        adv_arch = mlp_arch(cfg.d, cfg.adv_hidden, batch_norm=True)
        adv_cfg = TrainConfig(epochs=cfg.adv_epochs, batch_size=cfg.adv_batch, lr=cfg.adv_lr, seed=seed)
        sdisc_rep = sdisc_adv(S, T, h_s, adv_arch, adv_cfg)
        ineq2 = bound_ineq2(h_s, h_s, S, T_eval.without_labels(), sdisc_rep.value,
                            h_t_star=h_t_star, oracle_T=T_eval)
        rows.append({
            "seed": seed,
            "h_s_acc": accuracy(h_s, S),
            "phd": thm1.term("phd"),
            "sdisc_adv": sdisc_rep.value,
            "infeasible_ssl": thm1.term("infeasible_h2_vs_target_star"),
            "infeasible_hs": ineq2.term("infeasible_hS_vs_target_star"),
            "thm1_total": thm1.total,
            "ineq2_total": ineq2.total,
            "success": bool(thm1.total < ineq2.total),
        })
    return {
        "protocol": "table2",
        "config": asdict(cfg),
        "rows": rows,
        "successes": int(sum(r["success"] for r in rows)),
        "means": {k: _row_mean(rows, k) for k in
                  ("phd", "sdisc_adv", "infeasible_ssl", "infeasible_hs", "thm1_total", "ineq2_total")},
    }


# ---------------------------------------------------------------------------
# Unrelated domains (multiclass)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table3Config:
    seeds: tuple[int, ...] = tuple(range(5))
    n: int = 1500
    d: int = 6
    k: int = 10
    hidden: tuple[int, ...] = (64, 64)
    epochs: int = 40
    batch_size: int = 128
    ssl_rounds: int = 2
    shift: float = 8.0
    shift_dims: tuple[int, ...] = (2, 3)
    rotate: float = 1.0
    tolerance: float = 0.15

    def __post_init__(self):
        if not all(0 <= j < self.d for j in self.shift_dims):
            raise ConfigError(f"shift_dims must lie in [0, d) = [0, {self.d}), got {self.shift_dims}")


def _table3_case(cfg: Table3Config, seed: int, unrelated: bool) -> dict:
    S, T_same = gen_gaussian_pair(cfg.n, cfg.d, shift=0.0, rotate=0.0, label_rule="linear",
                                  seed=seed, k=cfg.k, layout_seed=seed)
    if unrelated:
        # Shift along directions that carry no source label structure: there
        # the trained hypotheses extrapolate arbitrarily, which is the
        # desk-scale analogue of an unrelated domain.
        shift_vec = np.zeros(cfg.d)
        shift_vec[list(cfg.shift_dims)] = cfg.shift
        _, T = gen_gaussian_pair(cfg.n, cfg.d, shift=shift_vec, rotate=cfg.rotate,
                                 label_rule="linear", seed=seed + 1000, k=cfg.k,
                                 layout_seed=seed + 5000)
    else:
        T = T_same
    arch = mlp_arch(cfg.d, cfg.hidden, out_dim=cfg.k, batch_norm=True)
    base = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, seed=seed)
    T_fit, T_eval, T_star = split(T, (0.4, 0.3, 0.3), seed=seed)
    # self-training runs under its own seed, so it starts from its own source model
    ssl_cfg = replace(base, seed=seed + 1)
    (h_s, _), (h0, _) = train_erm_many([(S, base, None), (S, ssl_cfg, None)], arch)
    h_ssl = train_self(S, T_fit.without_labels(), h0, ssl_cfg, cfg.ssl_rounds).hypothesis
    h_t_star = train_erm(T_star, arch, replace(base, seed=seed + 7))
    return {
        "seed": seed,
        "pair": "unrelated" if unrelated else "identical",
        "h_s_acc": accuracy(h_s, S),
        "phd": phd(h_s, h_ssl, T_eval.without_labels()).value,
        "infeasible_ssl": empirical_risk(h_ssl, h_t_star, T_eval, zero_one()),
        "infeasible_hs": empirical_risk(h_s, h_t_star, T_eval, zero_one()),
    }


def run_table3(cfg: Table3Config = Table3Config()) -> dict:
    """Pair-discrepancy behavior when the target is unrelated to the source:
    the value climbs to the random-guess level 1 - 1/k."""
    rows = [_table3_case(cfg, seed, unrelated) for seed in cfg.seeds for unrelated in (False, True)]
    unrelated = [r for r in rows if r["pair"] == "unrelated"]
    identical = [r for r in rows if r["pair"] == "identical"]
    guess = 1.0 - 1.0 / cfg.k
    mean_unrelated = _row_mean(unrelated, "phd")
    return {
        "protocol": "table3",
        "config": asdict(cfg),
        "rows": rows,
        "random_guess_level": guess,
        "mean_phd_identical": _row_mean(identical, "phd"),
        "mean_phd_unrelated": mean_unrelated,
        "within_tolerance": bool(abs(mean_unrelated - guess) <= cfg.tolerance),
    }


# ---------------------------------------------------------------------------
# Source selection under feature noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig2Config:
    seeds: tuple[int, ...] = tuple(range(10))
    sigmas: tuple[float, ...] = (0.1, 0.3, 0.5)
    n_source: int = 400
    n_target: int = 900
    d: int = 8
    k: int = 4
    blob_radius: float = 1.6
    blob_std: float = 0.5
    pixel_span: float = 4.0
    hidden: tuple[int, ...] = (32,)
    epochs: int = 20
    batch_size: int = 64
    n_clean: int = 5
    n_noisy: int = 5
    top_k: int = 5
    style_rotate_range: tuple[float, float] = (0.02, 0.12)
    style_contrast_range: tuple[float, float] = (0.85, 1.15)
    style_brightness_std: float = 0.1
    style_heavy_prob: float = 0.3
    style_heavy_factor: float = 3.0
    ssl_rounds: int = 2
    w1_subsample: int = 256

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError(f"fig2 styles rotate the first two features and need d >= 2, got d={self.d}")
        for name in ("style_rotate_range", "style_contrast_range"):
            r = getattr(self, name)
            if not (len(r) == 2 and r[0] <= r[1]):
                raise ConfigError(f"{name} must be two values low <= high, got {r}")


def _pixelize(X: np.ndarray, span: float) -> np.ndarray:
    """Map latent features into the unit interval like grayscale pixels."""
    return np.clip(0.5 + X / span, 0.0, 1.0)


def _style_transform(D: Dataset, cfg: Fig2Config, rng) -> Dataset:
    """Per-source appearance: small latent rotation, then pixel-space
    contrast and (occasionally heavy) brightness offsets.

    Sources differ in appearance the way heterogeneous image sources do;
    appearance moves raw-feature geometry a lot relative to what it does to
    label structure, which is exactly the regime where a feature-space
    transport distance and a hypothesis-based measure disagree.
    """
    theta = rng.uniform(*cfg.style_rotate_range)
    c, s = math.cos(theta), math.sin(theta)
    X = D.X.copy()
    X[:, :2] = X[:, :2] @ np.array([[c, -s], [s, c]]).T
    P = _pixelize(X, cfg.pixel_span)
    contrast = rng.uniform(*cfg.style_contrast_range)
    brightness = cfg.style_brightness_std * rng.standard_normal(D.d)
    if rng.uniform() < cfg.style_heavy_prob:
        brightness = brightness * cfg.style_heavy_factor
    P = np.clip((P - 0.5) * contrast + 0.5 + brightness, 0.0, 1.0)
    return Dataset(P, D.y, D.k)


def _fig2_pool(cfg: Fig2Config, seed: int, sigma: float):
    def draw(tag: int, n: int) -> Dataset:
        src, _ = gen_gaussian_pair(n, cfg.d, shift=0.0, rotate=0.0, label_rule="linear",
                                   seed=int(child_rng(seed, 13, tag).integers(0, 2**31)), k=cfg.k,
                                   blob_std=cfg.blob_std, radius=cfg.blob_radius)
        return src

    raw_target = draw(0, cfg.n_target)
    target = Dataset(_pixelize(raw_target.X, cfg.pixel_span), raw_target.y, raw_target.k)
    sources, flags = [], []
    for i in range(cfg.n_clean):
        sources.append(_style_transform(draw(i + 1, cfg.n_source), cfg, child_rng(seed, 14, i)))
        flags.append(True)
    for j in range(cfg.n_noisy):
        clean = _style_transform(draw(cfg.n_clean + j + 1, cfg.n_source), cfg,
                                 child_rng(seed, 14, cfg.n_clean + j))
        noisy = add_feature_noise(clean, sigma, seed=seed * 97 + j)
        # Pixels saturate: values pushed outside the unit interval clip back.
        sources.append(Dataset(np.clip(noisy.X, 0.0, 1.0), noisy.y, noisy.k))
        flags.append(False)
    return sources, flags, target


def run_fig2(cfg: Fig2Config = Fig2Config()) -> dict:
    """Clean-vs-noisy source ranking by the pair discrepancy and by exact
    Wasserstein-1, plus downstream accuracy after correlation alignment."""
    arch = mlp_arch(cfg.d, cfg.hidden, out_dim=cfg.k, batch_norm=True)
    base = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size)
    sel_cfg = SelectConfig(arch=arch, base=base, ssl_rounds=cfg.ssl_rounds, w1_subsample=cfg.w1_subsample)
    rows = []
    for sigma in cfg.sigmas:
        # one lockstep batch per sigma, over every seed's pool ranked by both measures: memory
        # grows with the batch, and one batch over all sigmas peaked 55% higher on a default run
        tasks = []
        for seed in cfg.seeds:
            sources, flags, target = _fig2_pool(cfg, seed, sigma)
            tasks += [(sources, target.without_labels(), measure, seed, flags, target)
                      for measure in ("phd", "w1")]
        for out in select_sources_many(tasks, cfg.top_k, sel_cfg):
            rows.append({
                "sigma": sigma,
                "seed": out.seed,
                "measure": out.measure,
                "score": out.score,
                "accuracy": out.accuracy,
                "values": list(out.values),
            })
    summary = {}
    for measure in ("phd", "w1"):
        summary[measure] = {
            "score_by_sigma": {
                repr(sig): float(np.mean([r["score"] for r in rows
                                          if r["measure"] == measure and r["sigma"] == sig]))
                for sig in cfg.sigmas
            },
            "accuracy_by_sigma": {
                repr(sig): float(np.mean([r["accuracy"] for r in rows
                                          if r["measure"] == measure and r["sigma"] == sig]))
                for sig in cfg.sigmas
            },
        }
    return {"protocol": "fig2", "config": asdict(cfg), "rows": rows, "summary": summary}


PROTOCOLS = {
    "table1": (Table1Config, run_table1),
    "table2": (Table2Config, run_table2),
    "table3": (Table3Config, run_table3),
    "fig2": (Fig2Config, run_fig2),
}
