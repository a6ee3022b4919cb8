import csv
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phdkit
from phdkit.cli import main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _gen(tmp_path, capsys, n=200, seed=3):
    code, *_ = run(["--seed", str(seed), "--out", str(tmp_path), "gen", "--n", str(n), "--d", "2"], capsys)
    assert code == 0
    return tmp_path / "pair_source.csv", tmp_path / "pair_target.csv"


def _train(tmp_path, capsys, src, name, seed):
    code, *_ = run(["--seed", str(seed), "--out", str(tmp_path), "train", "--data", str(src),
                    "--hidden", "", "--epochs", "40", "--model-name", name], capsys)
    assert code == 0
    return tmp_path / name


def test_pipeline_gen_train_phd(tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys)
    m1 = _train(tmp_path, capsys, src, "h1.bin", 3)
    m2 = _train(tmp_path, capsys, src, "h2.bin", 4)
    code, out, _ = run(["phd", "--h1", str(m1), "--h2", str(m2), "--target", str(tgt),
                        "--label-col", "label"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "phd"
    assert doc["result"]["measure"] == "phd"
    assert 0.0 <= doc["result"]["value"] <= 0.1  # same blobs, both converge


def test_phd_same_model_is_zero(tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys)
    m1 = _train(tmp_path, capsys, src, "h1.bin", 3)
    code, out, _ = run(["phd", "--h1", str(m1), "--h2", str(m1), "--target", str(tgt)], capsys)
    assert code == 0
    assert json.loads(out)["result"]["value"] == 0.0


def test_bounds_thm4_terms_sum_to_total(tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys)
    m1 = _train(tmp_path, capsys, src, "h1.bin", 3)
    code, out, _ = run(["bounds", "--bound", "thm4", "--target", str(tgt), "--label-col", "label",
                        "--h", str(m1), "--h1", str(m1), "--h2", str(m1), "--rad-draws", "8",
                        "--ht-star", str(m1)], capsys)
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["total"] == pytest.approx(sum(t["value"] for t in doc["terms"]), abs=1e-12)


def _csv_and_json(out, name):
    with open(out / f"{name}_report.csv", newline="") as f:
        header, *rows = csv.reader(f)
    return header, rows, json.loads((out / f"{name}_report.json").read_text())["result"]


def test_csv_reports_agree_with_the_json_result(tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys)
    m1 = _train(tmp_path, capsys, src, "h1.bin", 3)
    m2 = _train(tmp_path, capsys, src, "h2.bin", 4)
    out = tmp_path / "csv"
    for argv in (["phd", "--h1", str(m1), "--h2", str(m2), "--target", str(tgt)],
                 ["bounds", "--bound", "thm4", "--target", str(tgt), "--h", str(m1), "--h1", str(m1),
                  "--h2", str(m2), "--rad-draws", "8"],
                 ["repro", "fig2", "--set", "seeds=0", "--set", "sigmas=0.1,0.5", "--set", "n_source=80",
                  "--set", "n_target=200", "--set", "epochs=4", "--set", "ssl_rounds=1"]):
        assert run(["--out", str(out), "--format", "csv", *argv], capsys)[0] == 0

    header, rows, res = _csv_and_json(out, "phd")
    assert header == ["measure", "value", "method", "n_source", "n_target", "seeds"]
    assert rows == [["phd", repr(res["value"]), res["method"], "", str(res["n_target"]), ""]]

    header, rows, res = _csv_and_json(out, "bounds")
    terms = {t["name"]: repr(t["value"]) for t in res["terms"]}
    assert header == ["bound_id", "delta", "n_target", *terms, "total"]
    assert rows == [[res["bound_id"], repr(res["delta"]), str(res["n_target"]), *terms.values(),
                     repr(res["total"])]]

    header, rows, res = _csv_and_json(out, "repro_fig2")
    assert header == ["sigma", "phd_score", "w1_score", "phd_accuracy", "w1_accuracy"]
    by_sigma = {m: res["summary"][m] for m in ("phd", "w1")}
    assert rows == [[sig, *(repr(by_sigma[m][f"{q}_by_sigma"][sig]) for q in ("score", "accuracy")
                            for m in ("phd", "w1"))] for sig in ("0.1", "0.5")]


@pytest.fixture(scope="module")
def bound_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bounds")
    assert main(["--seed", "3", "--out", str(out), "gen", "--n", "120", "--d", "2"]) == 0
    src = out / "pair_source.csv"
    # briefly trained small nets disagree on some rows, so the terms differ;
    # two scores per row, as the margin bound (thm6) needs
    for seed in range(5):
        assert main(["--seed", str(seed), "--out", str(out), "train", "--data", str(src), "--hidden", "4",
                     "--out-dim", "2", "--epochs", "3", "--model-name", f"m{seed}.bin"]) == 0
    return src, out / "pair_target.csv", [out / f"m{seed}.bin" for seed in range(5)]


def _library_bound(bound, src, tgt, models):
    from phdkit.bounds import (
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
    from phdkit.data import read_csv
    from phdkit.discrepancy import StumpClass, disc_exact, sdisc_exact
    from phdkit.models import load_hypothesis

    S, T = read_csv(src, label_col="label"), read_csv(tgt, label_col="label")
    h, h1, h2, h1_star, h2_star = (load_hypothesis(m) for m in models)
    diag = {"h_t_star": h1_star, "oracle_T": T}
    rad = rademacher(T, StumpClass.from_data(T), draws=8, seed=0)
    cls = StumpClass.from_data(S, T)
    return {
        "lemma1": lambda: lemma1_report(1.0, T.n, 0.05),
        "ineq1": lambda: bound_ineq1(h, h1, T, **diag),
        "thm1": lambda: bound_thm1(h, h1, h2, T, **diag),
        "ineq2": lambda: bound_ineq2(h, h1, S, T, sdisc_exact(S, T, h1, cls).value, **diag),
        "ineq3": lambda: bound_ineq3(h, h1, S, T, disc_exact(S, T, cls).value, **diag),
        "thm2": lambda: thm2_dev_report(h1, h2, h1_star, h2_star, T, rad, 0.05),
        "thm3": lambda: bound_thm3(h, h1, h2, h1_star, h2_star, T, rad, 0.05, **diag),
        "thm4": lambda: bound_thm4(h, h1, h2, T, rad, 0.05, **diag),
        "thm6": lambda: bound_thm6_margin(h, h1, h2, T, 1.0, rad, 0.05, **diag),
    }[bound]().to_dict()


@pytest.mark.parametrize("bound", ["ineq1", "ineq2", "ineq3", "thm1", "thm2", "thm3", "thm4", "thm6", "lemma1"])
def test_bounds_command_matches_library_call(bound, bound_inputs, capsys):
    src, tgt, models = bound_inputs
    h, h1, h2, h1_star, h2_star = map(str, models)
    code, out, err = run(["bounds", "--bound", bound, "--source", str(src), "--target", str(tgt),
                          "--h", h, "--h1", h1, "--h2", h2, "--h1-star", h1_star, "--h2-star", h2_star,
                          "--ht-star", h1_star, "--rad-draws", "8"], capsys)
    assert code == 0, err
    expected = json.loads(json.dumps(_library_bound(bound, src, tgt, models)))
    assert json.loads(out)["result"] == expected


@pytest.mark.parametrize("bound", ["thm2", "lemma1"])
def test_bounds_without_the_diagnostic_term_never_load_ht_star(bound, bound_inputs, tmp_path, capsys):
    _, tgt, models = bound_inputs
    argv = ["bounds", "--bound", bound, "--target", str(tgt), "--h1", str(models[1]), "--h2", str(models[2]),
            "--h1-star", str(models[3]), "--h2-star", str(models[4]), "--rad-draws", "8"]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    code, out_flag, err = run(argv + ["--ht-star", str(tmp_path / "missing.bin")], capsys)
    assert code == 0, err
    assert json.loads(out_flag)["result"] == json.loads(out)["result"]


@pytest.mark.parametrize("bound,dropped", [
    ("ineq1", "--h"), ("ineq2", "--source"), ("ineq3", "--h1"), ("thm1", "--h2"), ("thm2", "--h1-star"),
    ("thm3", "--h2-star"), ("thm4", "--h1"), ("thm6", "--h"),
])
def test_bounds_missing_input_is_config_error_before_any_work(bound, dropped, bound_inputs, capsys, monkeypatch):
    def no_estimate(*args, **kwargs):
        raise AssertionError("the Rademacher estimate ran before the input check")

    monkeypatch.setattr("phdkit.cli.rademacher", no_estimate)
    src, tgt, models = bound_inputs
    given_flags = dict(zip(("--h", "--h1", "--h2", "--h1-star", "--h2-star"), map(str, models)), **{"--source": str(src)})
    argv = ["bounds", "--bound", bound, "--target", str(tgt)]
    for flag, value in given_flags.items():
        argv += [] if flag == dropped else [flag, value]
    code, _, err = run(argv, capsys)
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "ConfigError" and doc["message"].endswith(f"needs {dropped}")


def test_thm6_k_classes_must_equal_the_models_class_count(bound_inputs, capsys, monkeypatch):
    def no_estimate(*args, **kwargs):
        raise AssertionError("the Rademacher estimate ran before the class-count check")

    monkeypatch.setattr("phdkit.cli.rademacher", no_estimate)
    _, tgt, models = bound_inputs
    code, out, err = run(["bounds", "--bound", "thm6", "--target", str(tgt), "--h", str(models[0]),
                          "--h1", str(models[1]), "--h2", str(models[2]), "--k-classes", "1000000000"], capsys)
    assert code == 2 and out == ""
    (line,) = err.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError" and "--k-classes" in doc["message"]


def test_bounds_nan_disc_value_is_contract_error(bound_inputs, capsys):
    src, tgt, models = bound_inputs
    code, _, err = run(["bounds", "--bound", "ineq3", "--source", str(src), "--target", str(tgt),
                        "--h", str(models[0]), "--h1", str(models[1]), "--disc-value", "nan"], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "ContractError"


def test_sdisc_without_model_is_config_error(tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys, n=40)
    code, _, err = run(["sdisc", "--source", str(src), "--target", str(tgt)], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_divergence_gives_exit_3(tmp_path, capsys):
    # finite features and a finite step that overflows float32 once the first epoch's updates land
    src, _ = _gen(tmp_path, capsys, n=200, seed=0)
    code, _, err = run(["train", "--data", str(src), "--hidden", "8", "--no-batch-norm", "--epochs", "3",
                        "--lr", "1e38"], capsys)
    assert code == 3
    doc = json.loads(err.strip())
    assert doc["error"] == "TrainingError" and doc["epoch"] >= 1


def _run_subprocess(argv, cwd, python=("-m", "phdkit.cli")):
    """The CLI (or other ``python`` arguments) in a fresh interpreter with warnings
    shown: pytest's warning capture keeps numpy's RuntimeWarnings out of capsys."""
    src = str(Path(phdkit.__file__).parents[1])
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *python, *argv],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_import_loads_the_library_modules_but_not_the_front_end(tmp_path):
    # the start-up work that `import phdkit` does, which perfbench's setup_s times
    probe = ("import sys, phdkit; phdkit.discrepancy.phd; "
             "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'phdkit'))")
    proc = _run_subprocess([], tmp_path, python=("-c", probe))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    library = ("adapt", "bounds", "data", "discrepancy", "errors", "models", "numkit", "semisup", "tritrain")
    assert proc.stdout.split() == ["phdkit", *(f"phdkit.{m}" for m in library)]


def test_features_beyond_float32_give_one_json_line_on_stderr(tmp_path):
    (tmp_path / "big.csv").write_text("x0,x1,label\n1e39,0,0\n1,2,1\n3,4,0\n5,6,1\n")
    proc = _run_subprocess(["train", "--data", "big.csv", "--hidden", ""], tmp_path)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "TrainingError"


@pytest.mark.parametrize("argv,named", [
    (["gradcheck", "--eps", "inf"], "eps"),
    (["coral", "--source", "pair_source.csv", "--target", "pair_target.csv", "--ridge", "inf"], "ridge"),
], ids=["gradcheck-eps-inf", "coral-ridge-inf"])
def test_infinite_step_or_ridge_exits_2_with_one_json_line(argv, named, tmp_path, capsys):
    _gen(tmp_path, capsys, n=40)
    proc = _run_subprocess(argv, tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    doc = json.loads(lines[0])
    assert doc["error"] == "ContractError" and named in doc["message"]


# The model files do not exist: the value checks come before any file is read.
@pytest.mark.parametrize("argv,error,named", [
    (["bounds", "--bound", "thm4", "--delta", "5"], "ContractError", "delta"),
    (["bounds", "--bound", "thm4", "--delta", "inf"], "ContractError", "delta"),
    (["bounds", "--bound", "thm6", "--delta", "nan"], "ContractError", "delta"),
    (["bounds", "--bound", "lemma1", "--bound-m", "inf"], "ContractError", "M must be finite"),
    (["gen", "--n", "10", "--rotate", "inf"], "ConfigError", "rotation"),
    (["gen", "--n", "10", "--rotate", "nan"], "ConfigError", "rotation"),
], ids=["thm4-delta-5", "thm4-delta-inf", "thm6-delta-nan", "lemma1-m-inf", "gen-rotate-inf", "gen-rotate-nan"])
def test_out_of_range_delta_m_or_rotation_exits_2_with_one_json_line(argv, error, named, tmp_path, capsys):
    _gen(tmp_path, capsys, n=40)
    if argv[0] == "bounds":
        argv = argv + ["--target", "pair_target.csv", "--h", "none.bin", "--h1", "none.bin", "--h2", "none.bin"]
    proc = _run_subprocess(argv, tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    doc = json.loads(lines[0])
    assert doc["error"] == error and named in doc["message"], doc


@pytest.fixture(scope="module")
def overflow_dir(tmp_path_factory):
    """A 40-row pair, one trained two-score model, a one-feature pair whose
    source spans +-1e308 (its neighbouring gaps, and so W1, stay finite), a
    sample {-1e308, 1e308}, a two-feature pair with one column scaled by 1e200,
    two one-point samples 1.8e308 apart and two two-feature samples 1e308
    apart row by row."""
    out = tmp_path_factory.mktemp("overflow")
    assert main(["--seed", "3", "--out", str(out), "gen", "--n", "40", "--d", "2"]) == 0
    assert main(["--out", str(out), "train", "--data", str(out / "pair_source.csv"), "--hidden", "",
                 "--out-dim", "2", "--epochs", "1", "--model-name", "model.bin"]) == 0
    (out / "wide_s.csv").write_text("x0,label\n1e308,0\n-1e308,1\n1,0\n")
    (out / "wide_t.csv").write_text("x0,label\n5,1\n0,0\n2,1\n")
    for name, seed in (("scaled_s", 1), ("scaled_t", 2)):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 2)) * [1.0, 1e200]
        rows = "".join(f"{a!r},{b!r},{i % 2}\n" for i, (a, b) in enumerate(X.tolist()))
        (out / f"{name}.csv").write_text("x0,x1,label\n" + rows)
    (out / "ends.csv").write_text("x0,label\n-1e308,0\n1e308,1\n")
    (out / "low.csv").write_text("x0,label\n-9e307,0\n")
    (out / "high.csv").write_text("x0,label\n9e307,0\n")
    (out / "far_s.csv").write_text("x0,x1,label\n1e308,0,0\n1e308,1,1\n")
    (out / "far_t.csv").write_text("x0,x1,label\n0,0,0\n0,1,1\n")
    return out


# Each input overflows float64 on the way to a report value.
@pytest.mark.parametrize("argv,error,named", [
    (["bounds", "--bound", "thm4", "--delta", "1e-320"], "ContractError", "confidence"),
    (["bounds", "--bound", "lemma1", "--bound-m", "1e308", "--delta", "1e-300"], "ContractError", "hoeffding"),
    (["bounds", "--bound", "thm6", "--rho", "1e-320"], "ContractError", "complexity_margin"),
    (["w1", "--source", "wide_s.csv", "--target", "wide_t.csv", "--bins", "4"], "CapacityError", "overflows"),
    (["coral", "--source", "wide_s.csv", "--target", "wide_t.csv"], "ContractError", "covariance"),
    (["w1", "--source", "scaled_s.csv", "--target", "scaled_t.csv"], "CapacityError", "transport cost"),
    (["w1", "--source", "scaled_s.csv", "--target", "scaled_t.csv", "--bins", "5"], "CapacityError",
     "transport cost"),
    (["w1", "--source", "far_s.csv", "--target", "far_t.csv"], "CapacityError", "transport cost"),
    (["w1", "--source", "low.csv", "--target", "high.csv"], "CapacityError", "1-D W1"),
    (["select", "--sources", "scaled_s.csv,scaled_s.csv", "--target", "scaled_t.csv", "--measure", "w1",
      "--top-k", "1"], "CapacityError", "transport cost"),
    (["select", "--sources", "scaled_s.csv,scaled_s.csv", "--target", "scaled_t.csv", "--measure", "phd",
      "--top-k", "1"], "ContractError", "feature 1's mean or standard deviation"),
], ids=["thm4-confidence", "lemma1-hoeffding", "thm6-complexity", "w1-bins-range", "coral-covariance",
        "w1-cost", "w1-bins-cost", "w1-cost-sum", "w1-1d", "select-w1-cost", "select-phd-zscore"])
def test_overflowing_values_exit_2_with_one_json_line(argv, error, named, overflow_dir):
    if argv[0] == "bounds":
        argv = argv + ["--target", "pair_target.csv", "--rad-draws", "2",
                       *(arg for flag in ("--h", "--h1", "--h2") for arg in (flag, "model.bin"))]
    proc = _run_subprocess(argv, overflow_dir)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    doc = json.loads(lines[0])
    assert doc["error"] == error and named in doc["message"], doc


def test_w1_of_two_equal_samples_spanning_float64_is_zero(overflow_dir):
    # the CDFs agree on the one gap wider than float64 holds, which adds 0, not 0 * inf
    proc = _run_subprocess(["w1", "--source", "ends.csv", "--target", "ends.csv"], overflow_dir)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout)["result"]["value"] == 0.0


def test_stumps_between_neighbours_beyond_half_of_float64_match_enumeration(tmp_path):
    # 1.5e308 + 1.6e308 overflows, so the midpoints between such neighbours are taken from their halves
    from phdkit.data import read_csv
    from phdkit.discrepancy import StumpClass
    from phdkit.models import linear_hypothesis, predict, save_hypothesis

    (tmp_path / "s.csv").write_text("x0,x1,label\n1.5e308,0,0\n1.7e308,1,1\n0,0,0\n1,1,1\n")
    (tmp_path / "t.csv").write_text("x0,x1,label\n1.6e308,0,0\n-1.7e308,1,1\n2,0,0\n3,1,1\n")
    hS = linear_hypothesis([1.0, 0.0], -0.5)
    save_hypothesis(hS, tmp_path / "h.bin")
    S, T = (read_csv(tmp_path / name, "label") for name in ("s.csv", "t.csv"))
    cls = StumpClass.from_data(S, T)
    assert all(np.isfinite(t).all() for t in cls.thresholds)
    with np.errstate(over="ignore"):  # a score x - t past float64 is an infinity of the right sign
        preds = [(predict(h, S.X), predict(h, T.X)) for h in cls.hypotheses()]
    ref_s, ref_t = predict(hS, S.X), predict(hS, T.X)

    def gap(ps, pt, qs, qt):
        return abs(float(np.mean(pt != qt)) - float(np.mean(ps != qs)))

    expected = {
        "dh": max(gap(ps, pt, 1, 1) for ps, pt in preds),
        "sdisc": max(gap(ps, pt, ref_s, ref_t) for ps, pt in preds),
        "disc": max(gap(ps, pt, qs, qt) for ps, pt in preds for qs, qt in preds),
    }
    for command, extra in (("dh", []), ("disc", []), ("sdisc", ["--model", "h.bin"])):
        proc = _run_subprocess([command, "--source", "s.csv", "--target", "t.csv", *extra], tmp_path)
        assert proc.returncode == 0 and proc.stderr == "", (command, proc.stderr)
        result = json.loads(proc.stdout)["result"]
        details = result["details"]
        thresholds = [details["threshold"]] if "threshold" in details else [m[1] for m in details["pair"]]
        assert np.isfinite(thresholds).all(), (command, details)
        assert result["value"] == pytest.approx(expected[command], abs=1e-12), command


@pytest.mark.parametrize("flag,value", [("--weight-decay", "-1"), ("--weight-decay", "nan"), ("--lr", "inf")])
def test_train_with_a_step_setting_that_does_nothing_or_overflows_exits_2(flag, value, tmp_path, capsys):
    src, _ = _gen(tmp_path, capsys, n=40)
    code, _, err = run(["train", "--data", str(src), "--hidden", "", "--epochs", "1", flag, value], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_missing_input_gives_exit_2_and_json_error(tmp_path, capsys):
    code, _, err = run(["phd", "--h1", "/nope.bin", "--h2", "/nope.bin",
                        "--target", str(tmp_path / "missing.csv")], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] in ("FileNotFoundError", "FormatError")


def test_phd_with_slope_outside_unit_interval_exits_2(tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys)
    m1 = _train(tmp_path, capsys, src, "h1.bin", 3)
    sidecar = tmp_path / "h1.bin.json"
    doc = json.loads(sidecar.read_text())
    doc["arch"]["negative_slope"] = 2.0
    sidecar.write_text(json.dumps(doc))
    code, _, err = run(["phd", "--h1", str(m1), "--h2", str(m1), "--target", str(tgt)], capsys)
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ContractError"


def _good_model(tmp_path) -> Path:
    from phdkit.models import linear_hypothesis, save_hypothesis

    path = tmp_path / "good.bin"
    save_hypothesis(linear_hypothesis([1.0, -1.0], 0.25), path)
    return path


def _edit_sidecar(change):
    def edit(model: Path):
        sidecar = Path(f"{model}.json")
        doc = json.loads(sidecar.read_text())
        change(doc)
        sidecar.write_text(json.dumps(doc))
    return edit


def _set_arch(key, value):
    return _edit_sidecar(lambda doc: doc["arch"].__setitem__(key, value))


def _write_sidecar(data: bytes):
    return lambda model: Path(f"{model}.json").write_bytes(data)


def _edit_blob(change):
    return lambda model: model.write_bytes(change(model.read_bytes()))


MODEL_EDITS = {
    "arch-without-in_dim": _edit_sidecar(lambda doc: doc["arch"].pop("in_dim")),
    "string-hidden": _set_arch("hidden", "x"),
    "string-width": _set_arch("hidden", [4, "8"]),
    "float-out_dim": _set_arch("out_dim", 1.5),
    "bool-in_dim": _set_arch("in_dim", True),
    "string-batch_norm": _set_arch("batch_norm", "yes"),
    "list-arch": _edit_sidecar(lambda doc: doc.update(arch=[2, [], 1])),
    "string-seed": _edit_sidecar(lambda doc: doc.update(seed="7")),
    "list-note": _edit_sidecar(lambda doc: doc.update(note=["x"])),
    "list-sidecar": _write_sidecar(b"[1, 2]"),
    "null-sidecar": _write_sidecar(b"null"),
    "cut-sidecar": _write_sidecar(b"{"),
    "non-utf8-sidecar": _write_sidecar(b"\xff\xfe"),
    "long-blob": _edit_blob(lambda b: b + b"\0" * 8),
    "short-blob": _edit_blob(lambda b: b[:-1]),
    "header-only-blob": _edit_blob(lambda b: b[:16]),
    "cut-header-blob": _edit_blob(lambda b: b[:10]),
    "bad-magic-blob": _edit_blob(lambda b: b"PHYQ" + b[4:]),
    "wrong-counts-blob": _edit_blob(lambda b: b[:8] + struct.pack(">II", 2, 1) + b[16:]),
}


@pytest.mark.parametrize("edit", MODEL_EDITS.values(), ids=MODEL_EDITS.keys())
def test_phd_with_malformed_model_file_exits_2_with_format_error(edit, tmp_path, capsys):
    model = _good_model(tmp_path)
    edit(model)
    code, _, err = run(["phd", "--h1", str(model), "--h2", str(model), "--target", "unread.csv"], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "FormatError"


def test_dh_exact_and_w1_commands(tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys, n=120)
    code, out, _ = run(["dh", "--source", str(src), "--target", str(tgt), "--label-col", "label"], capsys)
    assert code == 0 and json.loads(out)["result"]["method"] == "exact-enumeration"
    code, out, _ = run(["w1", "--source", str(src), "--target", str(tgt), "--label-col", "label",
                        "--bins", "6"], capsys)
    doc = json.loads(out)["result"]
    assert code == 0 and doc["value"] >= 0.0 and "l1_hist" in doc


def test_w1_bins_capacity_counts_outlier_bins(tmp_path, capsys):
    import numpy as np

    from phdkit.data import Dataset, write_csv

    # 2^16 inner cells pass a bins**d check, but histogramdd allocates 4^16
    rng = np.random.default_rng(0)
    paths = []
    for name in ("s", "t"):
        paths.append(tmp_path / f"{name}.csv")
        write_csv(Dataset(rng.standard_normal((8, 16))), paths[-1])
    code, _, err = run(["w1", "--source", str(paths[0]), "--target", str(paths[1]), "--bins", "2"], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "CapacityError"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_w1_cap_below_one_exits_2_with_config_error(cap, tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys, n=40)
    code, _, err = run(["w1", "--source", str(src), "--target", str(tgt), "--cap", cap], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_gradcheck_command(capsys):
    code, out, _ = run(["gradcheck", "--d", "3", "--hidden", "8,8", "--probe-n", "4"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["max_relative_error"] < 1e-4


def test_config_file_defaults_and_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gen]\nn = 64\nd = 3\n")
    code, out, _ = run(["--config", str(cfg), "--out", str(tmp_path / "o"), "gen"], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "o" / "gen_report.json").read_text())
    assert doc["result"]["n"] == 64 and doc["result"]["d"] == 3

    bad = tmp_path / "bad.ini"
    bad.write_text("[gen]\nnn_typo = 4\n")
    code, _, err = run(["--config", str(bad), "gen"], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_config_file_supplies_required_flags_and_explicit_flags_win(tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys, n=40)
    cfg = tmp_path / "d.ini"
    cfg.write_text(f"[global]\nseed = 5\n\n[dh]\nsource = {src}\ntarget = {tgt}\nmethod = adv\n")
    code, out, err = run(["--config", str(cfg), "dh", "--method=exact"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["run_config"]["source"] == str(src) and doc["run_config"]["seed"] == 5
    assert doc["result"]["method"] == "exact-enumeration"
    code, out, _ = run(["--config", str(cfg), "--seed", "6", "dh", "--method", "exact"], capsys)
    assert code == 0 and json.loads(out)["run_config"]["seed"] == 6


@pytest.mark.parametrize("argv", [
    [],
    ["--config"],
    ["no-such-command"],
    ["gen", "--n", "abc"],
    ["gen", "--shift", "1,x"],
    ["--seed", "-1", "gen"],
    ["repro", "table3", "--set", "n=abc"],
    ["repro", "table3", "--set", "n"],
    ["repro", "no-such-protocol"],
    ["--conf", "d.ini", "gen"],
    ["repro", "table3", "--set", "seeds="],
    ["repro", "fig2", "--set", "sigmas="],
    ["repro", "fig2", "--set", "top_k=0"],
    ["--jobs", "2", "gen"],
    ["gradcheck", "--epochs", "1"],
    ["train", "--data", "missing.csv", "--batch-norm"],
], ids=["no-command", "config-without-value", "unknown-command", "bad-int", "bad-shift", "negative-seed",
        "set-bad-int", "set-without-equals", "unknown-protocol", "abbreviated-root-flag", "set-no-seeds",
        "set-no-sigmas", "set-top-k-0", "removed-jobs-flag", "gradcheck-training-flag", "removed-batch-norm-flag"])
def test_usage_errors_exit_2_with_json(argv, tmp_path, capsys):
    code, _, err = run(["--out", str(tmp_path)] + argv, capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] in ("ConfigError", "ContractError")


@pytest.fixture(scope="module")
def mismatched_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("shapes")
    for prefix, d, k in (("d2", 2, 2), ("d3", 3, 2), ("k3", 2, 3)):
        assert main(["--out", str(out), "gen", "--n", "40", "--d", str(d), "--k", str(k), "--prefix", prefix]) == 0
    from phdkit.models import linear_hypothesis, save_hypothesis

    save_hypothesis(linear_hypothesis([1.0, 1.0], 0.0), out / "h.bin")
    for k in (3, 5):
        save_hypothesis(linear_hypothesis(np.eye(2, k), np.arange(k) / k), out / f"k{k}.bin")
    return out


@pytest.mark.parametrize("case", ["dh", "dh-adv", "disc", "bounds-ineq2", "bounds-ineq3", "train-three-class",
                                  "bounds-ineq2-disc-value", "bounds-ineq3-disc-value", "phd-two-vs-five-classes",
                                  "phd-margin-three-vs-five-classes", "sdisc-three-classes",
                                  "bounds-ineq2-three-classes", "bounds-thm1-two-vs-three-classes"])
def test_shape_and_label_faults_exit_2_with_json(case, mismatched_inputs, capsys):
    out = mismatched_inputs
    pair = ["--source", str(out / "d2_source.csv"), "--target", str(out / "d3_target.csv")]
    same = ["--source", str(out / "d2_source.csv"), "--target", str(out / "d2_target.csv")]
    h, k3, k5 = (str(out / name) for name in ("h.bin", "k3.bin", "k5.bin"))
    models = ["--h", h, "--h1", h]
    argv = {
        "dh": ["dh", *pair],
        "dh-adv": ["dh", *pair, "--method", "adv", "--epochs", "1", "--hidden", "4"],
        "disc": ["disc", *pair],
        "bounds-ineq2": ["bounds", "--bound", "ineq2", *pair, *models],
        "bounds-ineq3": ["bounds", "--bound", "ineq3", *pair, *models],
        "train-three-class": ["train", "--data", str(out / "k3_source.csv"), "--epochs", "1", "--hidden", "4"],
        "bounds-ineq2-disc-value": ["bounds", "--bound", "ineq2", *pair, *models, "--disc-value", "0.1"],
        "bounds-ineq3-disc-value": ["bounds", "--bound", "ineq3", *pair, *models, "--disc-value", "0.1"],
        "phd-two-vs-five-classes": ["phd", "--h1", h, "--h2", k5, "--target", same[3]],
        "phd-margin-three-vs-five-classes": ["phd", "--loss", "margin", "--h1", k3, "--h2", k5, "--target", same[3]],
        "sdisc-three-classes": ["sdisc", *same, "--model", k3],
        "bounds-ineq2-three-classes": ["bounds", "--bound", "ineq2", *same, "--h", k3, "--h1", k3],
        "bounds-thm1-two-vs-three-classes": ["bounds", "--bound", "thm1", "--target", same[3], *models, "--h2", k3],
    }[case]
    code, _, err = run(["--out", str(out / case)] + argv, capsys)
    assert code == 2
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == "ContractError"


def test_each_command_writes_its_own_meta_file(tmp_path, capsys):
    src, _ = _gen(tmp_path, capsys, n=40)
    _train(tmp_path, capsys, src, "h.bin", 3)
    for name in ("gen", "train"):
        meta = json.loads((tmp_path / f"{name}_meta.json").read_text())
        assert meta["report"] == f"{name}_report.json" and (tmp_path / meta["report"]).is_file()
    assert not (tmp_path / "run_meta.json").exists()


@pytest.mark.parametrize("argv", [
    ["table3", "--set", "shift_dims=9"],
    ["table3", "--set", "shift_dims=-1"],
    ["fig2", "--set", "d=1"],
    ["fig2", "--set", "style_rotate_range=0.1"],
    ["fig2", "--set", "style_contrast_range=1.2,0.8"],
], ids=["shift-dim-past-d", "negative-shift-dim", "fig2-d-1", "one-value-range", "reversed-range"])
def test_bad_repro_overrides_exit_2_before_training(argv, tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training ran before the config check")

    monkeypatch.setattr("phdkit.models._train_runs", no_training)
    small = {"table3": ["seeds=0", "n=60", "epochs=1"],
             "fig2": ["seeds=0", "sigmas=0.5", "n_source=40", "n_target=60", "epochs=1", "ssl_rounds=1"]}[argv[0]]
    code, _, err = run(["--out", str(tmp_path), "repro", *argv, *[a for s in small for a in ("--set", s)]], capsys)
    assert code == 2
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == "ConfigError"


@pytest.mark.parametrize("name,data,error", [
    ("latin1.csv", "x,label\n\xe9,0\n".encode("latin-1"), "FormatError"),
    ("empty.csv", b"", "FormatError"),
    *((f"label-{v}.csv", f"x,label\n0.5,0\n1.5,{v}\n".encode(), "FormatError")
      for v in ("1.7", "-0.5", "inf", "1e30")),
    ("nosection.ini", b"n = 5\n", "ConfigError"),
    ("duplicate.ini", b"[gen]\nn = 1\nn = 2\n", "ConfigError"),
    pytest.param("long-header.csv", b"x" * (csv.field_size_limit() + 1) + b",label\n0.5,0\n", "FormatError",
                 id="long-header.csv"),
    pytest.param("long-quoted.csv", b'x,label\n"' + b"1" * (csv.field_size_limit() + 1) + b'",0\n',
                 "FormatError", id="long-quoted.csv"),
])
def test_malformed_files_exit_2_with_json(name, data, error, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(data)
    argv = ["--config", str(path), "gen"] if name.endswith(".ini") else ["disc", "--source", str(path),
                                                                        "--target", str(path)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == error


@pytest.mark.parametrize("text", ['"label",x0\n1,0\n0,1\n', "x0,label\r0,1\r1,0\r"],
                         ids=["quoted-header", "cr-line-ends"])
def test_default_label_column_is_found_where_read_csv_finds_it(text, tmp_path, capsys):
    from phdkit.cli import _load_dataset

    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    D = _load_dataset(str(p))
    assert D.y.tolist() == [1, 0] and D.X.tolist() == [[0.0], [1.0]]
    code, _, err = run(["--out", str(tmp_path), "train", "--data", str(p), "--hidden", "", "--epochs", "1"], capsys)
    assert code == 0, err
    assert json.loads((tmp_path / "train_report.json").read_text())["result"]["train_accuracy"] is not None
    # an explicit --label-col reads as before: that column, none, or a FormatError
    D = _load_dataset(str(p), "x0")
    assert D.y.tolist() == [0, 1] and D.X.tolist() == [[1.0], [0.0]]
    assert _load_dataset(str(p), "").y is None and _load_dataset(str(p), "").d == 2
    code, _, err = run(["disc", "--source", str(p), "--target", str(p), "--label-col", "missing"], capsys)
    assert code == 2 and json.loads(err.strip())["error"] == "FormatError"


@pytest.mark.parametrize("command", [["coral", "--source", "s.csv"],
                                     ["select", "--sources", "s.csv,s.csv", "--measure", "w1", "--top-k", "1"]])
def test_label_col_names_the_target_label_too(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    for name in ("s.csv", "t.csv"):
        rows = [f"{a!r},{b!r},{int(a > 0)}" for a, b in rng.standard_normal((40, 2)).tolist()]
        (tmp_path / name).write_text("\n".join(["x0,x1,y", *rows]) + "\n")
    code, _, err = run(["--out", "out", *command, "--target", "t.csv", "--label-col", "y"], capsys)
    assert code == 0, err


def test_report_embeds_config_and_version(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # bare gen writes its CSVs to the cwd
    _, out, _ = run(["gen", "--n", "32", "--d", "2"], capsys)
    doc = json.loads(out)
    assert doc["artifact_version"]
    assert doc["run_config"]["n"] == 32


def test_repro_tiny_is_byte_identical_across_runs(tmp_path, capsys):
    args = ["repro", "table3", "--set", "seeds=0", "--set", "n=120", "--set", "epochs=5",
            "--set", "ssl_rounds=1"]
    code, *_ = run(["--seed", "1", "--out", str(tmp_path / "a")] + args, capsys)
    assert code == 0
    code, *_ = run(["--seed", "1", "--out", str(tmp_path / "b")] + args, capsys)
    assert code == 0
    ra = (tmp_path / "a" / "repro_table3_report.json").read_bytes()
    rb = (tmp_path / "b" / "repro_table3_report.json").read_bytes()
    assert ra == rb


REDUCED_TABLE3 = ["seeds=0", "n=120", "epochs=5", "ssl_rounds=1"]


def _repro_table3_result(capsys, seed: int) -> dict:
    argv = ["--seed", str(seed), "repro", "table3"]
    for item in REDUCED_TABLE3:
        argv += ["--set", item]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)["result"]


def test_repro_honours_the_global_seed(capsys):
    # the rows' measured values move, not just the seeds they record
    measured = [[{k: v for k, v in row.items() if k != "seed"} for row in _repro_table3_result(capsys, seed)["rows"]]
                for seed in (7, 8)]
    assert json.dumps(measured[0]) != json.dumps(measured[1])


def test_repro_seed_zero_equals_the_direct_protocol_call(capsys):
    from phdkit.protocols import Table3Config, run_table3

    report = run_table3(Table3Config(seeds=(0,), n=120, epochs=5, ssl_rounds=1))
    assert json.dumps(_repro_table3_result(capsys, 0), sort_keys=True) == json.dumps(report, sort_keys=True)


def test_select_command(tmp_path, capsys):
    paths = []
    for s in range(3):
        code, *_ = run(["--seed", str(s), "--out", str(tmp_path), "gen", "--n", "100", "--d", "2",
                        "--prefix", f"src{s}"], capsys)
        assert code == 0
        paths.append(str(tmp_path / f"src{s}_source.csv"))
    code, out, _ = run(["select", "--sources", ",".join(paths), "--target", paths[0],
                        "--measure", "w1", "--top-k", "2", "--hidden", "8",
                        "--clean-flags", "1,1,0"], capsys)
    assert code == 0
    doc = json.loads(out)["result"]
    assert len(doc["ranking"]) == 3 and len(doc["chosen"]) == 2


def test_tritrain_command_writes_trace(tmp_path, capsys):
    src, tgt = _gen(tmp_path, capsys, n=160)
    code, out, _ = run(["--out", str(tmp_path / "tri"), "tritrain", "--source", str(src),
                        "--target", str(tgt), "--rounds", "2", "--hidden", "", "--epochs", "25",
                        "--no-bounds"], capsys)
    assert code == 0
    assert (tmp_path / "tri" / "tritrain_trace.csv").exists()
    doc = json.loads((tmp_path / "tri" / "tritrain_report.json").read_text())
    assert len(doc["result"]["rounds"]) == 2


# --- the exit-code contract under malformed input ------------------------------

MALFORMED_FILES = {
    "empty.csv": b"",
    "ragged.csv": b"a,b,label\n1,2,0\n3\n",
    "latin1.csv": "x,label\n\xe9,0\n".encode("latin-1"),
    "header-only.csv": b"x,label\n",
    "nosection.ini": b"n = 5\n",
    "duplicate.ini": b"[gen]\nn = 1\nn = 2\n",
    "unknown-key.ini": b"[gen]\nbogus = 1\n",
    "latin1.ini": "[gen]\nn = \xe9\n".encode("latin-1"),
    "model.bin": b"garbage",
}
# Values are all malformed (no positive integer among them), so no example
# trains a model, generates more than the default pair, or runs a protocol.
BAD_VALUES = ("abc", "", "-1", "0", "nan", "1,x", "=", "missing.csv", ".") + tuple(MALFORMED_FILES)
BAD_SETS = ("n=abc", "seeds=x", "bogus=1", "noequals", "n=", "seeds=-1")
COMMAND_FLAGS = {
    "gen": ("--n", "--d", "--k", "--shift", "--rotate", "--rule", "--layout-seed"),
    "train": ("--data", "--hidden", "--epochs", "--lr"),
    "phd": ("--h1", "--h2", "--target", "--loss", "--rho"),
    "dh": ("--source", "--target", "--method", "--model"),
    "sdisc": ("--source", "--target", "--method", "--model"),
    "disc": ("--source", "--target", "--label-col"),
    "w1": ("--source", "--target", "--cap", "--bins"),
    "bounds": ("--bound", "--target", "--source", "--h", "--h1", "--h2", "--h1-star", "--h2-star", "--rad-draws"),
    "tritrain": ("--source", "--target", "--rounds", "--holdout-frac"),
    "select": ("--sources", "--target", "--top-k", "--clean-flags"),
    "coral": ("--source", "--target", "--ridge"),
    "gradcheck": ("--d", "--probe-n", "--eps", "--out-dim"),
    "repro": ("--set",),
    "no-such-command": ("--n",),
}
FIXED_ARGS = {"repro": ["table3"], "gradcheck": ["--hidden", ""]}


@st.composite
def malformed_argv(draw):
    values = st.sampled_from(BAD_VALUES)
    argv = ["--out", "out"]
    for flag in draw(st.lists(st.sampled_from(("--seed", "--config", "--format")), max_size=2)):
        argv += [flag, draw(values)]
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv += [command] + FIXED_ARGS.get(command, [])
    flags = draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), min_size=command == "repro", max_size=5))
    for flag in flags:
        argv += [flag, draw(st.sampled_from(BAD_SETS) if flag == "--set" else values)]
    return argv + (["--config"] if draw(st.integers(0, 9)) == 0 else [])


@pytest.fixture(scope="module")
def malformed_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("malformed")
    for name, data in MALFORMED_FILES.items():
        (d / name).write_bytes(data)
    return d


@settings(max_examples=150, deadline=None)
@given(argv=malformed_argv())
def test_malformed_input_never_escapes_the_exit_contract(malformed_dir, argv):
    cwd, err = os.getcwd(), io.StringIO()
    os.chdir(malformed_dir)  # the drawn file names are relative
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2)
    if code == 2:
        assert "error" in json.loads(err.getvalue().strip().splitlines()[-1])


# --- the exit-code contract under malformed model and IDX files ----------------

JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats() | st.text(max_size=3),
                           lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                      max_size=3), max_leaves=6)
# header fields: boundary values, where sizes multiply past what numpy can hold
U32 = st.sampled_from([0, 1, 2, 2**31, 2**32 - 1])


@st.composite
def malformed_sidecar(draw, doc: dict) -> bytes:
    kind = draw(st.sampled_from(["edit", "value", "bytes"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES)).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=24))
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        target = doc["arch"] if isinstance(doc.get("arch"), dict) and draw(st.booleans()) else doc
        if not target:
            break
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
    return json.dumps(doc).encode()


@st.composite
def malformed_blob(draw, blob: bytes) -> bytes:
    head = bytearray(blob[:16])
    if draw(st.booleans()):
        head[:4] = draw(st.binary(min_size=4, max_size=4))
    for field in draw(st.lists(st.sampled_from([4, 8, 12]), max_size=3)):
        head[field : field + 4] = struct.pack(">I", draw(U32))
    body = blob[16:]
    body = body[: draw(st.integers(0, len(body)))] if draw(st.booleans()) else body + draw(st.binary(max_size=16))
    if draw(st.booleans()):  # cut anywhere, the header included
        return (bytes(head) + body)[: draw(st.integers(0, 64))]
    return bytes(head) + body


@st.composite
def malformed_idx(draw, magic: int, dims: int) -> bytes:
    head = struct.pack(">I", draw(st.sampled_from([magic, magic, 2049 + 2051 - magic]) | U32))
    head += b"".join(struct.pack(">I", draw(U32)) for _ in range(dims))
    if draw(st.integers(0, 4)) == 0:  # cut inside the header
        return head[: draw(st.integers(0, len(head)))]
    return head + draw(st.binary(max_size=24))


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    """A valid model of in_dim 2 and a valid 2-column labeled IDX pair."""
    d = tmp_path_factory.mktemp("readers")
    _good_model(d)
    (d / "img.idx").write_bytes(struct.pack(">IIII", 2051, 2, 1, 2) + bytes([0, 255, 255, 0]))
    (d / "lab.idx").write_bytes(struct.pack(">II", 2049, 2) + bytes([0, 1]))
    return d


@settings(max_examples=200, deadline=None)
@given(data=st.data(), reader=st.sampled_from(["sidecar", "blob", "images", "labels"]))
def test_malformed_model_and_idx_files_never_escape_the_exit_contract(reader_dir, data, reader):
    good = reader_dir / "good.bin"
    files = {
        "sidecar": ("bad.bin.json", malformed_sidecar(json.loads(Path(f"{good}.json").read_text()))),
        "blob": ("bad.bin", malformed_blob(good.read_bytes())),
        "images": ("bad-img.idx", malformed_idx(2051, 3)),
        "labels": ("bad-lab.idx", malformed_idx(2049, 1)),
    }
    name, strategy = files[reader]
    (reader_dir / name).write_bytes(data.draw(strategy))
    model = reader_dir / ("bad.bin" if reader in ("sidecar", "blob") else "good.bin")
    if reader == "blob":
        (reader_dir / "bad.bin.json").write_bytes(Path(f"{good}.json").read_bytes())
    elif reader == "sidecar":
        (reader_dir / "bad.bin").write_bytes(good.read_bytes())
    images = reader_dir / ("bad-img.idx" if reader == "images" else "img.idx")
    labels = reader_dir / ("bad-lab.idx" if reader == "labels" else "lab.idx")
    argv = ["--out", str(reader_dir / "out"), "phd", "--h1", str(model), "--h2", str(good),
            "--target", str(images), "--labels", str(labels)]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert "error" in json.loads(err.getvalue().strip().splitlines()[-1])


# --- inputs that disagree across files -------------------------------------------

# Each command that reads two or more inputs, as (flag, kind) pairs and fixed
# flags. "model" is a binary model, "scores" a two-class model of two scores
# (the margin loss needs one score per class); every model input is one the
# command compares with another model or, for sdisc, with the binary stumps.
# Optional inputs end in "?". Repeated flags are joined by commas.
PAIR = (("--source", "csv"), ("--target", "csv"))
BOUND_READS = {
    "ineq1": ("h", "h1"), "ineq2": ("h", "h1", "source"), "ineq3": ("h", "h1", "source"),
    "thm1": ("h", "h1", "h2"), "thm2": ("h1", "h2", "h1_star", "h2_star"),
    "thm3": ("h", "h1", "h2", "h1_star", "h2_star"), "thm4": ("h", "h1", "h2"), "thm6": ("h", "h1", "h2"),
    "lemma1": (),
}


def _bound_inputs(bound, reads):
    model = "scores" if bound == "thm6" else "model"
    inputs = [("--target", "csv"), *((f"--{k.replace('_', '-')}", "csv" if k == "source" else model) for k in reads)]
    if bound not in ("thm2", "lemma1"):  # the bounds with a diagnostic term
        inputs.append(("--ht-star", model + "?"))
    fixed = ("--bound", bound, "--rad-draws", "2", *(("--disc-value?", "0.1") if bound in ("ineq2", "ineq3") else ()))
    return tuple(inputs), fixed


CROSS_FILE = {
    "phd": ((("--h1", "model"), ("--h2", "model"), ("--target", "csv")), ()),
    "phd-margin": ((("--h1", "scores"), ("--h2", "scores"), ("--target", "csv")), ("--loss", "margin")),
    "dh": (PAIR, ()),
    "sdisc": ((*PAIR, ("--model", "model")), ()),
    "disc": (PAIR, ()),
    "w1": (PAIR, ()),
    "coral": (PAIR, ()),
    "tritrain": (PAIR, ("--hidden", "", "--epochs", "1", "--rounds", "1")),
    "select": ((("--sources", "csv"), ("--sources", "csv"), ("--target", "csv")),
               ("--hidden", "", "--epochs", "1", "--ssl-rounds", "1", "--top-k", "1")),
    **{f"bounds-{b}": _bound_inputs(b, reads) for b, reads in BOUND_READS.items()},
}
# the malformed CSVs, each one cell or the whole file away from base.csv
CELL_FAULTS = ("nan-feature", "inf-feature", "label-1.7", "label-inf", "label-1e30", "ragged", "header-only")


@pytest.fixture(scope="module")
def cross_file_dir(tmp_path_factory):
    from phdkit.data import Dataset, write_csv
    from phdkit.models import linear_hypothesis, save_hypothesis

    d = tmp_path_factory.mktemp("cross")
    X = np.random.default_rng(0).standard_normal((24, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    write_csv(Dataset(X[:, :2], y), d / "base.csv")
    write_csv(Dataset(X, y), d / "features-3.csv")
    lines = (d / "base.csv").read_text().splitlines(keepends=True)
    row = lines[5].rstrip("\n").split(",")
    for fault, new in {"nan-feature": ["nan", *row[1:]], "inf-feature": [row[0], "-inf", row[2]],
                       "label-1.7": [*row[:2], "1.7"], "label-inf": [*row[:2], "inf"],
                       "label-1e30": [*row[:2], "1e30"], "ragged": row[:2]}.items():
        (d / f"{fault}.csv").write_text("".join(lines[:5]) + ",".join(new) + "\n" + "".join(lines[6:]))
    (d / "header-only.csv").write_text(lines[0])
    save_hypothesis(linear_hypothesis([1.0, 1.0], 0.0), d / "model.bin")
    save_hypothesis(linear_hypothesis([1.0, 1.0, 0.5], 0.0), d / "model-features-3.bin")
    save_hypothesis(linear_hypothesis([[1.0, -1.0], [0.5, 0.0]], [0.0, 0.1]), d / "scores.bin")
    save_hypothesis(linear_hypothesis([[1.0, -1.0], [0.5, 0.0], [0.0, 1.0]], [0.0, 0.1]),
                    d / "scores-features-3.bin")
    save_hypothesis(linear_hypothesis(np.eye(2, 3), [0.0, 0.1, 0.2]), d / "classes-3.bin")
    return d


@st.composite
def cross_file_base(draw):
    """A command with a valid base of inputs: its argv head, its (flag, kind) inputs and its flags."""
    command = draw(st.sampled_from(sorted(CROSS_FILE)))
    inputs, fixed = CROSS_FILE[command]
    inputs = [(flag, kind.rstrip("?")) for flag, kind in inputs if not kind.endswith("?") or draw(st.booleans())]
    fixed = [a for f, a in zip(fixed[::2], fixed[1::2]) if not f.endswith("?") or draw(st.booleans())
             for a in (f.rstrip("?"), a)]
    return [command.split("-")[0], *fixed], inputs


def _one_input_changed(inputs, change):
    """(input index, replacement file) for each way to change one input in the named way."""
    if change == "feature count":
        return [(i, "features-3.csv" if kind == "csv" else f"{kind}-features-3.bin")
                for i, (_, kind) in enumerate(inputs)] if len(inputs) > 1 else []
    if change == "class count":
        return [(i, "classes-3.bin") for i, (_, kind) in enumerate(inputs) if kind != "csv"]
    return [(i, f"{fault}.csv") for i, (_, kind) in enumerate(inputs) if kind == "csv" for fault in CELL_FAULTS]


def _input_argv(head, inputs, paths):
    joined: dict[str, list[str]] = {}
    for (flag, _), path in zip(inputs, paths):
        joined.setdefault(flag, []).append(path)
    return [*head, *(a for flag, ps in joined.items() for a in (flag, ",".join(ps)))]


def _run_with_inputs(head, inputs, paths):
    argv = ["--out", "out", *_input_argv(head, inputs, paths)]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue().strip().splitlines(), argv


@settings(max_examples=200, deadline=None)
@given(base=cross_file_base(), change=st.sampled_from(["feature count", "class count", "malformed cell"]))
def test_inputs_that_disagree_across_files_exit_2_and_a_valid_base_exits_0(cross_file_dir, base, change):
    head, inputs = base
    paths = [{"csv": "base.csv", "model": "model.bin", "scores": "scores.bin"}[kind] for _, kind in inputs]
    cwd = os.getcwd()
    os.chdir(cross_file_dir)  # the input names are relative
    try:
        code, lines, argv = _run_with_inputs(head, inputs, paths)
        assert code == 0, (argv, lines)
        for i, path in _one_input_changed(inputs, change):
            code, lines, argv = _run_with_inputs(head, inputs, [*paths[:i], path, *paths[i + 1:]])
            assert code == 2 and len(lines) == 1, (argv, code, lines)
            assert "error" in json.loads(lines[0])
    finally:
        os.chdir(cwd)


# --- inputs at extreme magnitudes ------------------------------------------------

# base.csv with one feature column scaled by s, set to +-1.7e308 by the sign of
# each value, or scaled to span +-1.7e308 (distinct neighbours beyond 9e307)
MAGNITUDES = ("1e150", "1e200", "1e307", "1.7e308", "span")


@pytest.fixture(scope="module")
def magnitude_dir(cross_file_dir):
    from phdkit.data import Dataset, read_csv, write_csv

    D = read_csv(cross_file_dir / "base.csv", "label")
    for j in range(D.d):
        col = D.X[:, j]
        columns = {"1.7e308": np.where(col < 0, -1.7e308, 1.7e308), "span": col * (1.7e308 / np.abs(col).max()),
                   **{s: col * float(s) for s in MAGNITUDES[:3]}}
        for name, new in columns.items():
            X = D.X.copy()
            X[:, j] = new
            write_csv(Dataset(X, D.y), cross_file_dir / f"x{j}-{name}.csv")
    return cross_file_dir


@settings(max_examples=60, deadline=None)
@given(base=cross_file_base(), data=st.data())
def test_inputs_at_extreme_magnitudes_never_escape_the_exit_contract(magnitude_dir, base, data):
    head, inputs = base
    paths = [{"csv": "base.csv", "model": "model.bin", "scores": "scores.bin"}[kind] for _, kind in inputs]
    csv_inputs = [i for i, (_, kind) in enumerate(inputs) if kind == "csv"]
    column, magnitude = data.draw(st.integers(0, 1)), data.draw(st.sampled_from(MAGNITUDES))
    for i in data.draw(st.sets(st.sampled_from(csv_inputs), min_size=1)):
        paths[i] = f"x{column}-{magnitude}.csv"
    argv = _input_argv(head, inputs, paths)
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(magnitude_dir)  # the input names are relative
    try:
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.chdir(cwd)
    # run as a program, each warning would be one more stderr line
    lines = err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]
    if code == 0:
        assert lines == [] and not re.search(r"NaN|Infinity", out.getvalue()), (argv, lines)
    else:
        assert code in (2, 3) and out.getvalue() == "" and len(lines) == 1, (argv, code, lines)
        assert "error" in json.loads(lines[0])
