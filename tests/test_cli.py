import json

import pytest

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
    from phdkit.models import load_hypothesis, zero_one

    S, T = read_csv(src, label_col="label"), read_csv(tgt, label_col="label")
    h, h1, h2, h1_star, h2_star = (load_hypothesis(m) for m in models)
    diag = {"h_t_star": h1_star, "oracle_T": T}
    rad = rademacher(T, StumpClass.from_data(T), draws=8, seed=0)
    cls = StumpClass.from_data(S, T)
    return {
        "lemma1": lambda: lemma1_report(1.0, T.n, 0.05),
        "ineq1": lambda: bound_ineq1(h, h1, T, **diag),
        "thm1": lambda: bound_thm1(h, h1, h2, T, zero_one(), **diag),
        "ineq2": lambda: bound_ineq2(h, h1, S, T, sdisc_exact(S, T, h1, cls).value, **diag),
        "ineq3": lambda: bound_ineq3(h, h1, S, T, disc_exact(S, T, cls).value, **diag),
        "thm2": lambda: thm2_dev_report(h1, h2, h1_star, h2_star, T, rad, 0.05),
        "thm3": lambda: bound_thm3(h, h1, h2, h1_star, h2_star, T, rad, None, 0.05, **diag),
        "thm4": lambda: bound_thm4(h, h1, h2, T, rad, 0.05, **diag),
        "thm6": lambda: bound_thm6_margin(h, h1, h2, T, 1.0, 2, rad, 0.05, **diag),
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


def test_divergence_gives_exit_3(tmp_path, capsys):
    import numpy as np

    from phdkit.data import Dataset, write_csv

    rng = np.random.default_rng(0)
    big = Dataset(rng.standard_normal((16, 2)) * 1e150, np.array([0, 1] * 8), 2)
    path = tmp_path / "big.csv"
    write_csv(big, path)
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(["train", "--data", str(path), "--hidden", "", "--epochs", "2",
                            "--lr", "1e280"], capsys)
    assert code == 3
    assert json.loads(err.strip())["error"] == "TrainingError"


def test_missing_input_gives_exit_2_and_json_error(tmp_path, capsys):
    code, _, err = run(["phd", "--h1", "/nope.bin", "--h2", "/nope.bin",
                        "--target", str(tmp_path / "missing.csv")], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] in ("FileNotFoundError", "FormatError")


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
