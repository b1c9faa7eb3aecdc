import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import usable_info
from usable_info import baselines, cli
from usable_info.baselines import (BatchSpec, fit_and_estimate_stack, gaussian_oracle_critic,
                                   nwj_estimate)
from usable_info.cli import main, ranked_auc
from usable_info.data import Dataset, read_dataset_csv, write_dataset_csv, write_rows_csv
from usable_info.errors import DataError
from usable_info.estimation import linear_pac_half_width
from usable_info.families import FitWarning, VariableSpec


# ------------------------------------------------------------------ #
# Dataset CSV round trips
# ------------------------------------------------------------------ #


def test_csv_round_trip_real(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(
        variables=[rng.normal(size=(20, 3)), rng.normal(size=(20, 1))],
        specs=[VariableSpec.real(3), VariableSpec.real(1)],
    )
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path, config={"seed": 1})
    back = read_dataset_csv(path)
    assert back.m == 2
    assert all(np.array_equal(a, b) for a, b in zip(back.variables, ds.variables))
    assert back.specs == ds.specs


def test_csv_round_trip_categorical(tmp_path):
    rng = np.random.default_rng(1)
    ds = Dataset(
        variables=[rng.normal(size=(15, 2)), rng.integers(0, 4, 15)],
        specs=[VariableSpec.real(2), VariableSpec.categorical(4)],
    )
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back.specs[1] == VariableSpec.categorical(4)
    assert np.array_equal(back.variables[1], ds.variables[1])
    header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
    assert "var1_0:cat4" in header


def test_csv_malformed_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("var0_0,var1_0\n1.0,2.0\n1.0\n")
    with pytest.raises(DataError, match="bad.csv:3"):
        read_dataset_csv(bad)
    bad.write_text("var0_0,wat\n1.0,2.0\n")
    with pytest.raises(DataError, match="malformed"):
        read_dataset_csv(bad)
    bad.write_text("var0_0,var1_0\n1.0,oops\n")
    with pytest.raises(DataError, match="bad.csv:2"):
        read_dataset_csv(bad)


# ------------------------------------------------------------------ #
# simulate
# ------------------------------------------------------------------ #


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--scenario", "sim1", "--m", "4", "--d", "2",
            "--n", "30", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # embedded config comment
    assert a.read_text().startswith("# config: ")


def test_simulate_records_stage_timings(tmp_path):
    truth = tmp_path / "truth.json"
    assert main(["simulate", "--scenario", "sim1", "--m", "4", "--d", "2", "--n", "30",
                 "--seed", "5", "--out", str(tmp_path / "d.csv"),
                 "--truth-out", str(truth)]) == 0
    timings = json.loads(truth.read_text())["results"]["timings"]
    assert set(timings) == {"simulate_s", "write_s"}
    assert all(value >= 0.0 for value in timings.values())


def test_simulate_missing_seed_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.delenv("USABLE_INFO_SEED", raising=False)
    rc = main(["simulate", "--scenario", "sim1", "--n", "5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_simulate_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("USABLE_INFO_SEED", "11")
    out_env = tmp_path / "env.csv"
    rc = main(["simulate", "--scenario", "sim1", "--m", "3", "--d", "1",
               "--n", "8", "--out", str(out_env)])
    assert rc == 0
    monkeypatch.delenv("USABLE_INFO_SEED")
    out_flag = tmp_path / "flag.csv"
    main(["simulate", "--scenario", "sim1", "--m", "3", "--d", "1",
          "--n", "8", "--seed", "11", "--out", str(out_flag)])
    assert out_env.read_bytes() == out_flag.read_bytes()


@pytest.mark.parametrize("parents", ['[1, 0]', '{"1": [0]}', '{"1": 0'])
def test_simulate_malformed_parents_is_usage_error(tmp_path, parents):
    rc = main(["simulate", "--scenario", "custom_tree", "--parents", parents, "--n", "5",
               "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert not (tmp_path / "x.csv").exists()


def test_simulate_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"scenario": "sim1", "m": 3, "d": 2, "n": 10,
                               "seed": 1}))
    out = tmp_path / "d.csv"
    rc = main(["simulate", "--config", str(cfg), "--n", "6", "--out", str(out)])
    assert rc == 0
    ds = read_dataset_csv(out)
    assert ds.n_samples == 6  # flag wins over the file's n=10
    assert ds.m == 3


# ------------------------------------------------------------------ #
# estimate
# ------------------------------------------------------------------ #


@pytest.fixture()
def correlated_csv(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 1))
    ds = Dataset(variables=[x, x.copy()],
                 specs=[VariableSpec.real(1), VariableSpec.real(1)])
    path = tmp_path / "corr.csv"
    write_dataset_csv(ds, path)
    return path, x


def test_estimate_perfect_correlation_gives_target_variance(correlated_csv,
                                                            tmp_path):
    path, x = correlated_csv
    out = tmp_path / "est.json"
    rc = main(["estimate", "--data", str(path), "--x-cols", "var0",
               "--y-cols", "var1", "--family", "linear_gaussian",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    var = float(((x - x.mean()) ** 2).mean())
    assert payload["results"]["point_estimate"] == pytest.approx(var, abs=1e-10)
    assert payload["command"] == "estimate"
    assert payload["config"]["family"] == "linear_gaussian"


def test_estimate_pac_flags_emit_half_width(correlated_csv, tmp_path):
    path, _ = correlated_csv
    out = tmp_path / "est.json"
    rc = main(["estimate", "--data", str(path), "--x-cols", "var0",
               "--y-cols", "var1", "--family", "linear_gaussian",
               "--norm-radius", "1.0", "--clip-b", "50", "--max-iters", "3000",
               "--pac", "--delta", "0.1", "--pac-b", "50",
               "--kx", "1", "--ky", "1", "--out", str(out)])
    assert rc == 0
    pac = json.loads(out.read_text())["results"]["pac"]
    assert pac["half_width"] == pytest.approx(
        linear_pac_half_width(1.0, 1.0, 0.1, 200))
    assert pac["bound_kind"] == "closed_form_linear"


def test_estimate_records_stage_timings(correlated_csv, tmp_path):
    path, _ = correlated_csv
    out = tmp_path / "est.json"
    assert main(["estimate", "--data", str(path), "--x-cols", "var0",
                 "--y-cols", "var1", "--family", "linear_gaussian",
                 "--out", str(out)]) == 0
    timings = json.loads(out.read_text())["results"]["timings"]
    assert set(timings) == {"read_s", "fit_s"}
    assert all(value >= 0.0 for value in timings.values())


def test_estimate_tabular_on_categorical_columns(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.integers(0, 2, 400)
    y = x.copy()  # deterministic relation
    ds = Dataset(variables=[x, y],
                 specs=[VariableSpec.categorical(2), VariableSpec.categorical(2)])
    path = tmp_path / "cat.csv"
    write_dataset_csv(ds, path)
    out = tmp_path / "est.json"
    rc = main(["estimate", "--data", str(path), "--x-cols", "var0",
               "--y-cols", "var1", "--family", "tabular", "--out", str(out)])
    assert rc == 0
    got = json.loads(out.read_text())["results"]["point_estimate"]
    counts = np.bincount(y, minlength=2) / len(y)
    entropy = -sum(p * math.log(p) for p in counts if p > 0)
    assert got == pytest.approx(entropy, abs=1e-12)


@pytest.fixture
def fits(monkeypatch):
    """Each ``(family, xs, ys)`` that ``estimate`` fits."""
    seen = []
    estimate = cli.empirical_information
    monkeypatch.setattr(cli, "empirical_information",
                        lambda family, xs, ys, **kwargs: seen.append((family, xs, ys))
                        or estimate(family, xs, ys, **kwargs))
    return seen


def test_estimate_categorical_keeps_the_header_cardinality(tmp_path, fits):
    path = tmp_path / "cat.csv"
    symbols = [0, 1, 2] * 20
    path.write_text("var0_0:cat5,var1_0:cat3\n"
                    + "".join(f"{s},{(s + 1) % 3}\n" for s in symbols))
    assert main(["estimate", "--data", str(path), "--x-cols", "var0", "--y-cols", "var1",
                 "--family", "tabular", "--out", str(tmp_path / "e.json")]) == 0
    [(family, _, _)] = fits
    assert family.x_spec == VariableSpec.categorical(5)
    assert family.y_spec == VariableSpec.categorical(3)


def test_estimate_softmax_with_a_declared_class_that_never_occurs(tmp_path):
    # y is declared cat6 but holds only 0..3, with every (x, y) cell observed.
    rng = np.random.default_rng(0)
    x = rng.integers(0, 3, 300)
    y = (x + rng.choice(4, 300, p=[0.55, 0.25, 0.12, 0.08])) % 4
    counts = np.zeros((3, 4))
    np.add.at(counts, (x, y), 1)
    assert counts.min() > 0
    path = tmp_path / "cat.csv"
    path.write_text("var0_0:cat3,var1_0:cat6\n"
                    + "".join(f"{a},{b}\n" for a, b in zip(x, y)))
    values = {}
    for family in ("tabular", "categorical_softmax"):
        out = tmp_path / f"{family}.json"
        assert main(["estimate", "--data", str(path), "--x-cols", "var0",
                     "--y-cols", "var1", "--family", family, "--out", str(out)]) == 0
        values[family] = json.loads(out.read_text())["results"]["point_estimate"]
    assert values["categorical_softmax"] == pytest.approx(values["tabular"], abs=1e-9)


def test_estimate_softmax_on_categorical_x_with_an_empty_cell_is_the_tabular_value(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, 2000)
    y = np.where(rng.random(2000) < 0.9, x, (x + 1) % 4)
    counts = np.zeros((4, 4))
    np.add.at(counts, (x, y), 1)
    assert (counts == 0).any()
    path = tmp_path / "cat.csv"
    path.write_text("var0_0:cat4,var1_0:cat4\n"
                    + "".join(f"{a},{b}\n" for a, b in zip(x, y)))
    values = {}
    for family in ("tabular", "categorical_softmax"):
        out = tmp_path / f"{family}.json"
        assert main(["estimate", "--data", str(path), "--x-cols", "var0",
                     "--y-cols", "var1", "--family", family, "--out", str(out)]) == 0
        values[family] = json.loads(out.read_text())["results"]["point_estimate"]
    assert values["categorical_softmax"] == values["tabular"]


@pytest.mark.parametrize("x_cols,y_cols,message", [
    ("var7", "var1", "x-cols: no variable var7"),
    ("var0", "var1,var9", "y-cols: no variable var9"),
    ("var0_0,var7", "var9", "x-cols: no variable var7"),
    ("var0", "vx", "y-cols: bad column token 'vx'"),
])
def test_estimate_bad_column_selection_exits_2(correlated_csv, tmp_path, capsys,
                                               x_cols, y_cols, message):
    path, _ = correlated_csv
    out = tmp_path / "e.json"
    assert main(["estimate", "--data", str(path), "--x-cols", x_cols, "--y-cols", y_cols,
                 "--family", "linear_gaussian", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Line 3 holds a cell that no read of var0_1 can convert.
TOKEN_CSV = "var0_0,var0_1,var1_0:cat3\n1,2,0\n2,oops,1\n3,1,2\n"


@pytest.mark.parametrize("x_cols,y_cols,message", [
    ("var1_1", "var0", "x-cols: var1 is categorical; select it whole"),
    ("var0_0", "var1,var0_0", "y-cols: a categorical variable must be selected alone"),
    ("var0_5", "var1", "x-cols: var0 has no coordinate 5"),
])
def test_estimate_reports_a_bad_selection_before_a_bad_cell(tmp_path, capsys, x_cols,
                                                             y_cols, message):
    path = tmp_path / "d.csv"
    path.write_text(TOKEN_CSV)
    out = tmp_path / "e.json"
    assert main(["estimate", "--data", str(path), "--x-cols", x_cols, "--y-cols", y_cols,
                 "--family", "linear_gaussian", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_estimate_ignores_a_bad_cell_in_a_coordinate_it_does_not_name(tmp_path, fits):
    path = tmp_path / "d.csv"
    path.write_text(TOKEN_CSV)
    assert main(["estimate", "--data", str(path), "--x-cols", "var0_0", "--y-cols", "var0_0",
                 "--family", "linear_gaussian", "--out", str(tmp_path / "e.json")]) == 0
    [(family, xs, ys)] = fits
    assert family.x_spec == family.y_spec == VariableSpec.real(1)
    assert xs.tolist() == ys.tolist() == [[1.0], [2.0], [3.0]]


def test_estimate_joins_a_mixed_group_in_token_order(tmp_path, fits):
    rng = np.random.default_rng(4)
    ds = Dataset(variables=[rng.normal(size=(30, 2)), rng.normal(size=(30, 3)),
                            rng.normal(size=(30, 1))],
                 specs=[VariableSpec.real(2), VariableSpec.real(3), VariableSpec.real(1)])
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    assert main(["estimate", "--data", str(path), "--x-cols", "var2,var0_1",
                 "--y-cols", "var1", "--family", "linear_gaussian",
                 "--out", str(tmp_path / "e.json")]) == 0
    [(family, xs, ys)] = fits
    assert family.x_spec == VariableSpec.real(2)
    assert xs.tobytes() == np.column_stack([ds.variables[2], ds.variables[0][:, 1]]).tobytes()
    assert ys.tobytes() == ds.variables[1].tobytes()


def test_estimate_malformed_csv_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("var0_0,var1_0\n1.0,2.0\noops,3.0\n")
    rc = main(["estimate", "--data", str(bad), "--x-cols", "var0",
               "--y-cols", "var1", "--family", "linear_gaussian"])
    assert rc == 3
    assert "bad.csv:3" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["tree", "--family", "linear_gaussian"],
    ["estimate", "--x-cols", "var1", "--y-cols", "var0", "--family", "tabular"],
])
def test_categorical_cardinality_below_two_exits_3(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_text("# a comment line\nvar0_0:cat1,var1_0\n0,1.5\n0,2.5\n")
    out = tmp_path / "out.json"
    assert main(command + ["--data", str(bad), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: {bad}:2: var0: categorical variable needs cardinality >= 2\n")
    assert not out.exists()


def test_estimate_nonconvergence_exits_4(tmp_path, capsys, monkeypatch):
    # One Newton step cannot certify this softmax fit's optimum.
    rng = np.random.default_rng(3)
    ds = Dataset(variables=[rng.normal(size=(40, 1)),
                            rng.integers(0, 2, 40)],
                 specs=[VariableSpec.real(1), VariableSpec.categorical(2)])
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    monkeypatch.setattr(baselines, "_NEWTON_ITERATIONS", 1)
    rc = main(["estimate", "--data", str(path), "--x-cols", "var0",
               "--y-cols", "var1", "--family", "categorical_softmax",
               "--out", str(tmp_path / "e.json")])
    assert rc == 4
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("flags,message", [
    (["--norm-radius", "1", "--tolerance=-inf"], "tolerance must be positive and finite"),
    (["--norm-radius", "1", "--tolerance", "nan"], "tolerance must be positive and finite"),
    (["--family", "laplace_mean", "--tolerance", "inf"],
     "tolerance must be positive and finite"),
    (["--clip-b", "nan"], "clip bound B must be positive"),
    (["--norm-radius", "nan"], "norm_radius must be positive"),
    (["--pac", "--delta", "0.1", "--pac-b", "nan", "--rademacher", "0.1", "--clip-b", "1"],
     "log-density bound b must be positive"),
    (["--pac", "--delta", "0.1", "--pac-b", "inf", "--rademacher", "0.1", "--clip-b", "1"],
     "log-density bound b must be positive"),
    (["--pac", "--delta", "0.1", "--pac-b", "1", "--rademacher", "nan", "--clip-b", "1"],
     "rademacher_bound must be non-negative"),
])
def test_estimate_non_finite_fit_settings_exit_2(correlated_csv, tmp_path, capsys, flags,
                                                 message):
    path, _ = correlated_csv
    rc = main(["estimate", "--data", str(path), "--x-cols", "var0", "--y-cols", "var1",
               "--family", "linear_gaussian", *flags, "--out", str(tmp_path / "e.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("args,message", [
    (["simulate", "--scenario", "sim1", "--n", "0", "--seed", "1"], "n and d must be positive"),
    (["estimate", "--pac", "--delta", "0", "--pac-b", "1"], "delta must lie in (0, 0.5)"),
    (["estimate", "--pac", "--delta", "0.1", "--pac-b", "0"],
     "log-density bound b must be positive"),
], ids=["n", "delta", "pac_b"])
def test_a_given_zero_is_checked_not_missing(correlated_csv, tmp_path, capsys, args, message):
    path, _ = correlated_csv
    if args[0] == "estimate":
        args = [*args, "--data", str(path), "--x-cols", "var0", "--y-cols", "var1",
                "--family", "linear_gaussian"]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_warnings_recorded_before_a_failure_are_printed_before_it(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("var0_0,var1_0,var2_0\n1e120,2,3\n2e120,1,5\n-1e120,4,2\n3e120,0.5,1\n")
    assert main(["tree", "--data", str(path), "--family", "polynomial_gaussian",
                 "--order", "3", "--out", str(tmp_path / "tree.json")]) == 4
    *warned, failure = capsys.readouterr().err.splitlines()
    assert warned and set(warned) == {"warning: overflow encountered in power"}
    assert failure == ("numerical failure: xs features overflow float64 "
                       "(polynomial expansion)")


# ------------------------------------------------------------------ #
# tree
# ------------------------------------------------------------------ #


def test_tree_two_variables_single_edge(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 1))
    y = 0.9 * x + 0.1 * rng.normal(size=(100, 1))
    ds = Dataset(variables=[x, y],
                 specs=[VariableSpec.real(1), VariableSpec.real(1)])
    data = tmp_path / "d.csv"
    write_dataset_csv(ds, data)
    out = tmp_path / "tree.json"
    rc = main(["tree", "--data", str(data), "--family", "linear_gaussian",
               "--out", str(out)])
    assert rc == 0
    results = json.loads(out.read_text())["results"]
    tree = results["tree"]
    assert sorted(p for p in tree["parents"] if p is not None) == [tree["root"]]
    assert "wrong_edges_ratio" not in results  # no truth given
    assert sorted(results["timings"]) == ["arborescence_s", "edge_weights_s", "read_s"]
    assert all(v >= 0.0 for v in results["timings"].values())


def test_tree_from_sim_config_scores_against_generative_truth(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"scenario": "sim1", "m": 6, "d": 4,
                               "n": 800, "seed": 3}))
    out = tmp_path / "tree.json"
    rc = main(["tree", "--sim-config", str(cfg), "--family", "linear_gaussian",
               "--out", str(out)])
    assert rc == 0
    results = json.loads(out.read_text())["results"]
    assert results["wrong_edges_ratio"] == 0.0
    assert results["ratio_mode"] == "undirected"
    assert sorted(results["timings"]) == ["arborescence_s", "edge_weights_s",
                                          "simulate_s"]
    assert all(v >= 0.0 for v in results["timings"].values())


def test_tree_with_external_truth_file(tmp_path):
    data = tmp_path / "d.csv"
    truth_path = tmp_path / "t.json"
    main(["simulate", "--scenario", "sim1", "--m", "5", "--d", "3",
          "--n", "600", "--seed", "9", "--out", str(data),
          "--truth-out", str(truth_path)])
    out = tmp_path / "tree.json"
    rc = main(["tree", "--data", str(data), "--family", "linear_gaussian",
               "--truth", str(truth_path), "--out", str(out)])
    assert rc == 0
    results = json.loads(out.read_text())["results"]
    assert results["wrong_edges_ratio"] == 0.0


@pytest.mark.parametrize("content, why", [
    ("{}", "truth needs a root and a parents list"),
    ("[1, 2]", "truth must be a JSON object"),
    ("{oops", "invalid JSON truth ("),
    ('{"root": 0, "parents": [null, 5]}', "bad truth tree (parent outside node range)"),
    ('{"root": 0, "parents": [null, 0, 0]}',
     "truth tree has 3 nodes but the data has 2 variables"),
])
def test_tree_bad_truth_file_is_a_data_error(correlated_csv, tmp_path, capsys, content, why):
    path, _ = correlated_csv
    truth = tmp_path / "t.json"
    truth.write_text(content)
    out = tmp_path / "tree.json"
    assert main(["tree", "--data", str(path), "--family", "linear_gaussian",
                 "--truth", str(truth), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {truth}: {why}")
    assert not out.exists()


def test_tree_sim_config_matches_simulate_then_tree_data(tmp_path):
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({"scenario": "custom_tree",
                               "parents": {"1": 0, "2": 0, "3": 1, "4": 1},
                               "noise_var": 0.5, "d": 2, "n": 300, "seed": 4}))
    direct = tmp_path / "direct.json"
    assert main(["tree", "--sim-config", str(cfg), "--family", "linear_gaussian",
                 "--out", str(direct)]) == 0
    data = tmp_path / "d.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    via_csv = tmp_path / "via_csv.json"
    assert main(["tree", "--data", str(data), "--family", "linear_gaussian",
                 "--out", str(via_csv)]) == 0
    direct_record = json.loads(direct.read_text())
    assert direct_record["results"]["tree"] == json.loads(via_csv.read_text())["results"]["tree"]
    sim = direct_record["config"]["sim_config"]
    assert (sim["parents"], sim["noise_var"], sim["d"]) == (
        {"1": 0, "2": 0, "3": 1, "4": 1}, 0.5, 2)
    assert direct_record["seed"] == 4


def test_tree_config_file_keys_match_flags(tmp_path):
    data = tmp_path / "d.csv"
    truth = tmp_path / "t.json"
    main(["simulate", "--scenario", "sim1", "--m", "5", "--d", "2", "--n", "300",
          "--seed", "2", "--out", str(data), "--truth-out", str(truth)])
    cfg = tmp_path / "tree.json"
    cfg.write_text(json.dumps({"data": str(data), "family": "linear_gaussian",
                               "truth": str(truth), "directed": True}))
    records = []
    for name, argv in (("via_config", ["--config", str(cfg)]),
                       ("via_flags", ["--data", str(data), "--family", "linear_gaussian",
                                      "--truth", str(truth), "--directed"])):
        out = tmp_path / f"{name}.json"
        assert main(["tree", *argv, "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        del record["duration_s"], record["results"]["timings"]
        records.append(record)
    assert records[0] == records[1]
    assert records[0]["results"]["ratio_mode"] == "directed"
    assert records[0]["config"]["data"] == str(data)


@pytest.mark.parametrize("form", ["flag", "config"])
def test_run_records_carry_the_fit_settings(correlated_csv, tmp_path, form):
    path, _ = correlated_csv
    truth = tmp_path / "t.json"
    truth.write_text(json.dumps({"root": 0, "parents": [None, 0]}))
    family = {"family": "linear_gaussian", "norm_radius": 1.0, "max_iters": 3000,
              "tolerance": 1e-4}
    inputs = {"tree": {"data": str(path), "truth": str(truth)},
              "estimate": {"data": str(path), "x_cols": "var0", "y_cols": "var1"}}
    records = {}
    for command, own in inputs.items():
        settings = {**own, **family}
        if form == "flag":
            argv = [a for k, v in settings.items()
                    for a in (f"--{k.replace('_', '-')}", str(v))]
        else:
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(settings))
            argv = ["--config", str(cfg)]
        out = tmp_path / f"{command}_record.json"
        assert main([command, *argv, "--out", str(out)]) == 0
        records[command] = json.loads(out.read_text())["config"]
    for config in records.values():
        assert (config["max_iters"], config["tolerance"]) == (3000, 1e-4)
        assert "step_size" not in config
    assert records["tree"] == {"data": str(path), "truth": str(truth), "clip_b": None,
                               "order": None, **family}


def test_tree_sim_config_from_config_file(tmp_path):
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"scenario": "sim1", "m": 4, "d": 2, "n": 300, "seed": 5}))
    cfg = tmp_path / "tree.json"
    cfg.write_text(json.dumps({"sim_config": str(sim), "family": "linear_gaussian"}))
    out = tmp_path / "out.json"
    assert main(["tree", "--config", str(cfg), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["seed"] == 5
    assert record["results"]["ratio_mode"] == "undirected"


def test_tree_nonconvergence_exits_4_and_writes_nothing(sim1_inputs, capsys):
    out = sim1_inputs / "tree.json"
    rc = main(["tree", "--data", str(sim1_inputs / "data.csv"), "--family", "linear_gaussian",
               "--norm-radius", "1", "--max-iters", "1", "--out", str(out)])
    assert rc == 4
    # The message names the family and the pair whose fit did not converge.
    assert capsys.readouterr().err.startswith(
        "numerical failure: linear_gaussian pair (0, 1): "
        "constrained linear fit stopped after 1 iterations")
    assert not out.exists()


def test_tree_requires_a_source(tmp_path):
    rc = main(["tree", "--family", "linear_gaussian",
               "--out", str(tmp_path / "t.json")])
    assert rc == 2


# ------------------------------------------------------------------ #
# sweep
# ------------------------------------------------------------------ #


def test_sweep_long_format_and_determinism(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--scenario", "sim1", "--sizes", "20,60", "--seeds",
            "0,1,2", "--families", "linear_gaussian,polynomial_gaussian:2",
            "--m", "4", "--d", "2", "--out", str(out)]
    assert main(args) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert header == "scenario,family,n,seed,wrong_edges_ratio,total_weight"
    assert len(rows) == 2 * 2 * 3  # families x sizes x seeds
    # canonical ordering and rerun determinism
    again = tmp_path / "sweep2.csv"
    assert main(args[:-1] + [str(again)]) == 0
    assert out.read_text() == again.read_text()


def test_sweep_parallel_jobs_match_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = ["sweep", "--scenario", "sim1", "--sizes", "30", "--seeds", "0,1",
            "--families", "linear_gaussian", "--m", "3", "--d", "2"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_text() == parallel.read_text()


@pytest.mark.parametrize("jobs,cells,workers", [
    (2, 1, 1), (4, 1, 1), (4, 2, 2), (3, 4, 3), (4, 4, 4), (2, 4, 2)])
def test_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch, jobs, cells,
                                                 workers):
    started = []
    real_pool = cli.ProcessPoolExecutor

    def recording_pool(max_workers=None, **kwargs):
        started.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
    seeds = ",".join(str(s) for s in range(cells))
    assert main(["sweep", "--scenario", "sim1", "--sizes", "30", "--seeds", seeds,
                 "--families", "linear_gaussian", "--m", "3", "--d", "1",
                 "--jobs", str(jobs), "--out", str(tmp_path / "sweep.csv")]) == 0
    assert started == [workers]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patched module only when forked")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_fit_warning_exits_4_for_any_job_count(tmp_path, monkeypatch, capsys, jobs):
    real_edge_weights = cli.edge_weights

    def warning_edge_weights(variables, family):
        warnings.warn("fit did not converge", FitWarning)
        return real_edge_weights(variables, family)

    monkeypatch.setattr(cli, "edge_weights", warning_edge_weights)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scenario", "sim1", "--sizes", "30", "--seeds", "0,1",
               "--families", "linear_gaussian", "--m", "3", "--d", "2",
               "--jobs", jobs, "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "scenario=sim1 family=linear_gaussian n=30 seed=0" in err
    assert "fit did not converge" in err
    assert not out.exists()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patched module only when forked")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_other_warnings_reach_stderr_for_any_job_count(tmp_path, monkeypatch, capsys,
                                                              jobs):
    real_edge_weights = cli.edge_weights

    def warning_edge_weights(variables, family):
        warnings.warn("injected runtime warning", RuntimeWarning)
        return real_edge_weights(variables, family)

    monkeypatch.setattr(cli, "edge_weights", warning_edge_weights)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scenario", "sim1", "--sizes", "30", "--seeds", "0,1",
               "--families", "linear_gaussian", "--m", "3", "--d", "2",
               "--jobs", jobs, "--out", str(out)])
    assert rc == 0
    # One warning per cell, printed once each whatever the job count.
    assert capsys.readouterr().err.count("warning: injected runtime warning") == 2
    assert out.exists()


@pytest.mark.parametrize("jobs", [
    "1",
    pytest.param("2", marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the patched module only when forked")),
])
def test_sweep_diverged_critic_fit_exits_4_naming_cell_and_pairs(tmp_path, monkeypatch,
                                                                 capsys, jobs):
    real_simulate = cli.simulate

    def overflowing_simulate(config):
        dataset, truth = real_simulate(config)
        variables = [1e200 * dataset.variables[0]] + dataset.variables[1:]
        return Dataset(variables=variables, specs=dataset.specs), truth

    monkeypatch.setattr(cli, "simulate", overflowing_simulate)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scenario", "sim1", "--sizes", "30", "--seeds", "0",
               "--families", "nwj", "--m", "3", "--d", "1", "--jobs", jobs,
               "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err == (
        "numerical failure: sweep cell scenario=sim1 family=nwj n=30 seed=0: nwj critic fit "
        "diverged to non-finite parameters for pairs (0, 1), (0, 2), (1, 0), (2, 0)\n")
    assert not out.exists()


def test_sweep_ratio_trend_is_nonincreasing_for_linear_family(tmp_path):
    out = tmp_path / "trend.csv"
    rc = main(["sweep", "--scenario", "sim1", "--sizes", "10,30,100,300,1000",
               "--seeds", "0,1,2,3,4,5", "--families", "linear_gaussian",
               "--m", "8", "--d", "4", "--out", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    by_n = {}
    for _, _, n, _, ratio, _ in rows:
        by_n.setdefault(int(n), []).append(float(ratio))
    sizes = sorted(by_n)
    means = [float(np.mean(by_n[n])) for n in sizes]
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a + 1e-12)
    assert inversions <= 1
    assert means[-1] <= means[0]


def test_sweep_unknown_scenario_and_family_fail(tmp_path):
    rc = main(["sweep", "--scenario", "simX", "--sizes", "10", "--seeds", "0",
               "--families", "linear_gaussian", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    rc = main(["sweep", "--scenario", "sim1", "--sizes", "10", "--seeds", "0",
               "--families", "mystery_family", "--m", "3", "--d", "1",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_non_positive_jobs(tmp_path, capsys, jobs):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--scenario", "sim1", "--sizes", "30", "--seeds", "0",
                 "--families", "linear_gaussian", "--m", "3", "--d", "1", "--jobs", jobs,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --jobs: expected a positive number of "
                                       f"worker processes, got {jobs}\n")
    assert not out.exists()


@pytest.mark.parametrize("sizes, got", [(",", "[]"), ("30,0", "[30, 0]"), ("-5", "[-5]")])
def test_sweep_rejects_empty_or_non_positive_sizes(tmp_path, capsys, sizes, got):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--scenario", "sim1", "--sizes", sizes, "--seeds", "0",
                 "--families", "linear_gaussian", "--m", "3", "--d", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --sizes: expected positive sample sizes, got {got}\n")
    assert not out.exists()


@pytest.mark.parametrize("token, why", [
    ("polynomial_gaussian:x", "invalid literal for int() with base 10: 'x'"),
    ("polynomial_gaussian:0", "polynomial_gaussian needs order >= 1"),
])
def test_sweep_family_errors_name_the_flag_and_token(tmp_path, capsys, token, why):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--scenario", "sim1", "--sizes", "30", "--seeds", "0",
                 "--families", f"linear_gaussian,{token}", "--m", "3", "--d", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --families: {token!r}: {why}\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_names_the_cell_whose_baseline_lacks_samples(tmp_path, capsys, jobs):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", "sim1", "--sizes", "5", "--seeds", "0",
                 "--families", "cpc", "--m", "3", "--d", "1", "--jobs", jobs,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: sweep cell scenario=sim1 family=cpc n=5 seed=0: "
                                       "not enough samples for one batch\n")
    assert not out.exists()


def test_sweep_with_baseline_families(tmp_path):
    out = tmp_path / "bl.csv"
    rc = main(["sweep", "--scenario", "sim1", "--sizes", "64", "--seeds", "0",
               "--families", "cpc,nwj", "--m", "3", "--d", "1",
               "--out", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert {r[1] for r in rows} == {"cpc", "nwj"}
    for row in rows:
        assert 0.0 <= float(row[4]) <= 1.0


# ------------------------------------------------------------------ #
# baselines command
# ------------------------------------------------------------------ #


def test_baselines_command_table(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["baselines", "--rhos", "0.5,0.9", "--seeds", "0,1",
               "--n", "512", "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "rho,seed,n,batch_size,estimator,value,true_information"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 2 * 2 * 3  # rhos x seeds x estimators
    cpc_rows = [r for r in rows if r[4] == "cpc"]
    assert all(float(r[5]) <= math.log(8.0) + 1e-9 for r in cpc_rows)
    truths = {r[0]: float(r[6]) for r in rows}
    assert truths["0.5"] == pytest.approx(-0.5 * math.log(1 - 0.25))


def _patch_fits(monkeypatch, objective, scale_ys=1.0, theta=None, iterations=None,
                below=None):
    """Make the ``objective`` fits of the baselines command fail: fit on
    ``scale_ys`` times its y rows, return a finite ``theta`` in every cell of
    Theta, or stop after ``iterations`` Newton steps.  With ``below``, only
    the problems whose fit rows correlate below it fail."""
    real = baselines._newton

    def newton(fitted, kind, xs, ys, seeds, batch_size):
        if fitted != objective:
            return real(fitted, kind, xs, ys, seeds, batch_size)
        fail = np.array([below is None or np.corrcoef(x[:, 0], y[:, 0])[0, 1] < below
                         for x, y in zip(xs, ys)])
        with monkeypatch.context() as patch:
            if iterations is not None:
                patch.setattr(baselines, "_NEWTON_ITERATIONS", iterations)
            mat, *rest = real(fitted, kind, xs,
                              np.where(fail[:, None, None], scale_ys * ys, ys), seeds,
                              batch_size)
        if theta is not None:
            mat[fail] = theta
        return (mat, *rest)

    monkeypatch.setattr(baselines, "_newton", newton)


def _failed_row(tmp_path, capsys, argv, why):
    """Run ``baselines`` on ``argv``; check that it exits 4 with the one
    failure line ``why`` and writes nothing."""
    out = tmp_path / "bench.csv"
    assert main(["baselines", *argv, "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"numerical failure: baselines {why}\n"
    assert not out.exists()


def test_baselines_diverged_critic_fit_exits_4_naming_row(tmp_path, capsys, monkeypatch):
    # On 1e200 times y, the Hessian overflows and the Newton step is not finite.
    for objective in ("cpc", "nwj"):
        _patch_fits(monkeypatch, objective, scale_ys=1e200)
        _failed_row(tmp_path, capsys, ["--rhos", "0.5", "--seeds", "0", "--n", "256"],
                    f"rho=0.5 seed=0 estimator={objective}: "
                    "critic fit diverged to non-finite parameters")
        monkeypatch.undo()


def test_baselines_non_finite_scores_exit_4_naming_row(tmp_path, capsys, monkeypatch):
    # A finite critic of 1e308 in every cell overflows on the eval pairs.
    for objective in ("cpc", "nwj"):
        _patch_fits(monkeypatch, objective, theta=1e308)
        _failed_row(tmp_path, capsys,
                    ["--rhos", "0.5", "--seeds", "0", "--n", "384", "--batch-size", "4"],
                    f"rho=0.5 seed=0 estimator={objective}: critic produced non-finite scores")
        monkeypatch.undo()
    # 1e4 in every cell scores 1e4 (x + 1)(y + 1), finite, but some NWJ
    # exp-scores overflow: the estimate is not a number, so the row fails.
    _patch_fits(monkeypatch, "nwj", theta=1e4)
    _failed_row(tmp_path, capsys, ["--rhos", "0.5", "--seeds", "0", "--n", "256"],
                "rho=0.5 seed=0 estimator=nwj: critic produced non-finite scores")


def test_baselines_unconverged_nwj_fit_exits_4_naming_row(tmp_path, capsys, monkeypatch):
    _patch_fits(monkeypatch, "nwj", iterations=1)
    _failed_row(tmp_path, capsys, ["--rhos", "0.5", "--seeds", "0", "--n", "256"],
                "rho=0.5 seed=0 estimator=nwj: "
                "critic fit did not reach the Newton decrement tolerance")


def test_baselines_unconverged_cpc_fit_exits_4_naming_row(tmp_path, capsys, monkeypatch):
    # Both objectives stop short; CPC comes first in a row.
    monkeypatch.setattr(baselines, "_NEWTON_ITERATIONS", 1)
    _failed_row(tmp_path, capsys, ["--rhos", "0.5", "--seeds", "0", "--n", "256"],
                "rho=0.5 seed=0 estimator=cpc: "
                "critic fit did not reach the Newton decrement tolerance")


def test_baselines_names_the_first_failing_row_in_loop_order(tmp_path, capsys, monkeypatch):
    # rho=0.1 fails in CPC and rho=0.5 does not; every NWJ row fails.  The
    # fits are stacked per objective, yet the failure named is the first in
    # rho, seed, estimator order.
    _patch_fits(monkeypatch, "nwj", theta=1e308)
    _patch_fits(monkeypatch, "cpc", theta=1e308, below=0.3)
    for rhos, failing in (("0.1", "rho=0.1 seed=0 estimator=cpc"),
                          ("0.5", "rho=0.5 seed=0 estimator=nwj"),
                          ("0.5,0.1", "rho=0.5 seed=0 estimator=nwj"),
                          ("0.1,0.5", "rho=0.1 seed=0 estimator=cpc")):
        _failed_row(tmp_path, capsys,
                    ["--rhos", rhos, "--seeds", "0", "--n", "384", "--batch-size", "4"],
                    f"{failing}: critic produced non-finite scores")


@pytest.mark.parametrize("flag, value", [("--iterations", "20"), ("--step-size", "0.05")])
def test_baselines_step_flags_and_config_keys_are_gone(tmp_path, capsys, flag, value):
    # Every critic fit is a Newton solve, so there are no steps to count or size.
    out = tmp_path / "bench.csv"
    argv = ["baselines", "--rhos", "0.5", "--seeds", "0", "--out", str(out)]
    assert main(argv + [flag, value]) == 2
    assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: float(value)}))
    assert main(argv + ["--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: unknown config key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["tree", "estimate"])
def test_family_step_size_flag_and_config_key_are_gone(correlated_csv, tmp_path, capsys,
                                                       command):
    # The projected descent always takes its safe step, and softmax is a Newton fit.
    path, _ = correlated_csv
    out = tmp_path / "out.json"
    argv = [command, "--data", str(path), "--family", "linear_gaussian",
            "--norm-radius", "1", "--out", str(out)]
    if command == "estimate":
        argv += ["--x-cols", "var0", "--y-cols", "var1"]
    assert main(argv + ["--step-size", "0.01"]) == 2
    assert "error: unrecognized arguments: --step-size 0.01" in capsys.readouterr().err
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"step_size": 0.01}))
    assert main(argv + ["--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: unknown config key 'step_size'\n"
    assert not out.exists()


def _baselines_by_row(rhos, seeds, n, spec):
    """The baselines table as one stack of one per row and objective: the
    oracle of the stacked command."""
    rows = []
    for rho in rhos:
        true_info = -0.5 * math.log(1.0 - rho * rho)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(n)
            y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
            half = n // 2
            perm = rng.permutation(n - half)
            pairs = (x[None, :half, None], y[None, :half, None], x[None, half:, None],
                     y[None, half:, None])
            values = {"cpc": fit_and_estimate_stack("cpc", *pairs, [seed], spec)[0][0],
                      "nwj": fit_and_estimate_stack("nwj", *pairs, [seed], spec,
                                                    perms=perm[None])[0][0],
                      "nwj_oracle": nwj_estimate(gaussian_oracle_critic(rho), x[half:],
                                                 y[half:], x[half:], y[half:][perm])}
            rows += [(rho, seed, n, spec.batch_size, estimator, value, true_info)
                     for estimator, value in values.items()]
    rows.sort(key=lambda r: (r[0], r[1], r[4]))
    return rows


@pytest.mark.parametrize("batch_size", [8, 5])
def test_baselines_table_matches_per_row_fits(tmp_path, batch_size):
    rhos, seeds, n = [0.5, 0.99, 0.3], [2, 0, 2, 1], 301
    spec = BatchSpec(batch_size=batch_size)
    got = tmp_path / "bench.csv"
    assert main(["baselines", "--rhos", "0.5,0.99,0.3", "--seeds", "2,0,2,1",
                 "--n", str(n), "--batch-size", str(batch_size), "--out", str(got)]) == 0
    want = tmp_path / "want.csv"
    write_rows_csv(want, {"rhos": rhos, "seeds": seeds, "n": n, "batch_size": batch_size},
                   ["rho", "seed", "n", "batch_size", "estimator", "value",
                    "true_information"], _baselines_by_row(rhos, seeds, n, spec))
    assert got.read_bytes() == want.read_bytes()


def test_baselines_at_the_benchmark_grid_writes_nothing_to_stderr(tmp_path, capsys):
    rc = main(["baselines", "--rhos", "0.5,0.9,0.99,0.999", "--seeds", "0,1,2",
               "--n", "2048", "--out", str(tmp_path / "bench.csv")])
    assert rc == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags,message", [
    (["--rhos", "1.0"], "--rhos: 1.0 is not in (-1, 1)"),
    (["--rhos", "0.5,1.5"], "--rhos: 1.5 is not in (-1, 1)"),
    (["--rhos", "-1"], "--rhos: -1.0 is not in (-1, 1)"),
    (["--rhos", "nan"], "--rhos: nan is not in (-1, 1)"),
    (["--rhos", "inf"], "--rhos: inf is not in (-1, 1)"),
    (["--rhos", "0.5", "--n", "10"], "--n: 10 leaves 5 fit pairs, fewer than --batch-size 8"),
    (["--rhos", "0.5", "--n", "63", "--batch-size", "32"],
     "--n: 63 leaves 31 fit pairs, fewer than --batch-size 32"),
])
def test_baselines_rejects_bad_inputs_before_any_fit(tmp_path, capsys, monkeypatch, flags,
                                                     message):
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before validating")

    monkeypatch.setattr(baselines, "fit_and_estimate_stack", no_fit)
    out = tmp_path / "bench.csv"
    assert main(["baselines", *flags, "--seeds", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "--seed", "-1"), ("tree", "--seed", "-1"), ("sweep", "--seeds", "0,-1"),
    ("baselines", "--seeds", "-1"), ("simulate", "--seed", "x"),
])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    assert main([command, flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    bad = value.split(",")[-1]
    assert err.endswith(f"error: argument {flag}: expected a non-negative integer seed, "
                        f"got {bad!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "baselines"])
def test_a_leading_negative_list_item_reaches_the_seed_check(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert main([command, "--seeds", "-1,2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --seeds: expected a non-negative integer seed, got '-1'\n")
    assert not out.exists()


def test_baselines_rhos_take_a_leading_negative_item(tmp_path):
    # ``--rhos -0.5,0.5`` is read as the value, as ``--rhos=-0.5,0.5`` is.
    tables = []
    for rhos in (["--rhos", "-0.5,0.5"], ["--rhos=-0.5,0.5"]):
        out = tmp_path / f"bench{len(tables)}.csv"
        assert main(["baselines", *rhos, "--seeds", "0", "--n", "64",
                     "--out", str(out)]) == 0
        tables.append(out.read_text())
    assert tables[0] == tables[1]
    assert {line.split(",")[0] for line in tables[0].splitlines()[2:]} == {"-0.5", "0.5"}


def test_negative_seed_from_config_or_environment_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seeds": [0, -3]}))
    out = tmp_path / "out.csv"
    assert main(["baselines", "--config", str(cfg), "--rhos", "0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: seeds: expected a non-negative integer seed, got '-3'\n")
    monkeypatch.setenv("USABLE_INFO_SEED", "-2")
    assert main(["simulate", "--scenario", "sim1", "--n", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: USABLE_INFO_SEED: expected a non-negative integer seed, got '-2'\n")
    assert not out.exists()


# ------------------------------------------------------------------ #
# auc
# ------------------------------------------------------------------ #


def _write_pairs(path, rows, value_name):
    with open(path, "w") as fh:
        fh.write(f"i,j,{value_name}\n")
        for i, j, v in rows:
            fh.write(f"{i},{j},{v}\n")


def test_auc_perfect_separation(tmp_path):
    nodes = range(3)
    truth_rows = [(i, j, int(j == (i + 1) % 3)) for i in nodes for j in nodes
                  if i != j]
    score_rows = [(i, j, 5.0 if lab else -1.0) for i, j, lab in truth_rows]
    scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
    _write_pairs(scores, score_rows, "score")
    _write_pairs(truth, truth_rows, "edge")
    out = tmp_path / "auc.json"
    assert main(["auc", "--scores", str(scores), "--truth", str(truth),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["auc"] == 1.0


def test_auc_all_equal_scores_is_half(tmp_path):
    nodes = range(4)
    truth_rows = [(i, j, int((i + j) % 2 == 0)) for i in nodes for j in nodes
                  if i != j]
    score_rows = [(i, j, 1.0) for i, j, _ in truth_rows]
    scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
    _write_pairs(scores, score_rows, "score")
    _write_pairs(truth, truth_rows, "edge")
    out = tmp_path / "auc.json"
    assert main(["auc", "--scores", str(scores), "--truth", str(truth),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["auc"] == 0.5


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(5)
    aucs = []
    for _ in range(200):
        labels = rng.integers(0, 2, 90)
        if labels.sum() in (0, len(labels)):
            continue
        aucs.append(ranked_auc(rng.normal(size=90), labels))
    mean = float(np.mean(aucs))
    se = float(np.std(aucs, ddof=1) / math.sqrt(len(aucs)))
    assert abs(mean - 0.5) <= 3.0 * se


def test_auc_missing_pairs_is_data_error(tmp_path, capsys):
    truth_rows = [(i, j, int(j == 0)) for i in range(3) for j in range(3)
                  if i != j]
    score_rows = truth_rows[:-1]
    scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
    _write_pairs(scores, [(i, j, 1.0) for i, j, _ in score_rows], "score")
    _write_pairs(truth, truth_rows, "edge")
    rc = main(["auc", "--scores", str(scores), "--truth", str(truth)])
    assert rc == 3
    assert "missing" in capsys.readouterr().err


def test_auc_nan_score_is_data_error_naming_line(tmp_path, capsys):
    truth_rows = [(i, j, int(j == 0)) for i in range(3) for j in range(3)
                  if i != j]
    score_rows = [(i, j, math.nan if (i, j) == (1, 2) else 1.0)
                  for i, j, _ in truth_rows]
    scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
    _write_pairs(scores, score_rows, "score")
    _write_pairs(truth, truth_rows, "edge")
    out = tmp_path / "auc.json"
    rc = main(["auc", "--scores", str(scores), "--truth", str(truth),
               "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == f"data error: {scores}:5: score is nan\n"
    assert not out.exists()


def _replace_line(k, text):
    return lambda lines: lines[:k] + [text] + lines[k + 1:]


# (id, edit of either file's lines, its error; {path} and {column} are the file's).
_BAD_PAIR_FILES = [
    ("short", _replace_line(2, "1,0"), "{path}:3: expected 3 cells, got 2"),
    ("long", _replace_line(2, "1,0,0.5,9"), "{path}:3: expected 3 cells, got 4"),
    ("no_pair_rows", lambda lines: lines[:1], "{path}: no pair rows"),
    ("missing_column", _replace_line(0, "i,j,value"), "{path}:1: missing column {column!r}"),
    ("unparsable_cell", _replace_line(2, "1,x,0"),
     "{path}:3: invalid literal for int() with base 10: 'x'"),
    ("self_pair", _replace_line(2, "1,1,0"), "{path}:3: self-pair (1,1)"),
    ("duplicate_pair", _replace_line(2, "0,1,0"), "{path}:3: duplicate pair (0,1)"),
]


@pytest.mark.parametrize("bad_file,edit,message", [
    *(pytest.param(bad_file, edit, message, id=f"{bad_file}-{name}")
      for bad_file in ("scores", "truth") for name, edit, message in _BAD_PAIR_FILES),
    pytest.param("truth", _replace_line(2, "1,2,0"),
                 "truth must label every ordered pair of its nodes", id="truth-unlabelled_pair"),
    pytest.param("truth", _replace_line(1, "0,1,0.5"), "truth for pair (0, 1) must be 0 or 1",
                 id="truth-label_not_0_or_1"),
])
def test_auc_row_of_the_wrong_width_is_a_data_error(tmp_path, capsys, bad_file, edit, message):
    # And every other malformed scores or truth file: each exits 3 naming its fault.
    files = {"scores": tmp_path / "s.csv", "truth": tmp_path / "t.csv"}
    _write_pairs(files["scores"], [(0, 1, 1.0), (1, 0, 0.5)], "score")
    _write_pairs(files["truth"], [(0, 1, 1), (1, 0, 0)], "edge")
    lines = edit(files[bad_file].read_text().splitlines())
    files[bad_file].write_text("\n".join(lines) + "\n")
    out = tmp_path / "auc.json"
    assert main(["auc", "--scores", str(files["scores"]), "--truth", str(files["truth"]),
                 "--out", str(out)]) == 3
    column = "score" if bad_file == "scores" else "edge"
    assert capsys.readouterr().err == (
        f"data error: {message.format(path=files[bad_file], column=column)}\n")
    assert not out.exists()


def test_ranked_auc_rejects_nan_scores():
    with pytest.raises(DataError, match="nan"):
        ranked_auc(np.array([math.nan, 0.0, 1.0, 2.0]), np.array([0, 1, 1, 0]))


def test_ranked_auc_matches_scipy_rankdata_bitwise():
    # scipy is a test-only reference: the rank-sum AUC on its average ranks.
    from scipy.stats import rankdata

    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(400):
        n = int(rng.integers(2, 200))
        scores = rng.integers(0, int(rng.integers(1, 12)), n).astype(float)
        scores[rng.random(n) < 0.05] = math.inf
        if trial % 2:
            scores[rng.random(n) < 0.3] += rng.normal()
        labels = (rng.random(n) < 0.4).astype(int)
        n_pos = int(labels.sum())
        if n_pos in (0, n):
            continue
        ranks = rankdata(scores)
        expected = float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                         / (n_pos * (n - n_pos)))
        assert ranked_auc(scores, labels) == expected
        checked += 1
    assert checked > 300


def test_auc_single_class_truth_rejected(tmp_path):
    rows = [(i, j, 1) for i in range(2) for j in range(2) if i != j]
    scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
    _write_pairs(scores, [(i, j, 0.5) for i, j, _ in rows], "score")
    _write_pairs(truth, rows, "edge")
    assert main(["auc", "--scores", str(scores), "--truth", str(truth)]) == 3


# ------------------------------------------------------------------ #
# config files
# ------------------------------------------------------------------ #


# Each case: a command, a config file and the flags that say the same.  Input
# paths are relative to the run directory, so both runs record them alike.
CONFIG_CASES = {
    "simulate-custom_tree": (
        "simulate",
        {"scenario": "custom_tree", "parents": {"1": 0, "2": 1}, "noise_var": 0.5, "d": 2,
         "n": 40, "seed": 3, "truth_out": "truth.json"},
        ["--scenario", "custom_tree", "--parents", '{"1": 0, "2": 1}', "--noise-var", "0.5",
         "--d", "2", "--n", "40", "--seed", "3", "--truth-out", "truth.json"]),
    "simulate-gaussian_pair": (
        "simulate",
        {"scenario": "gaussian_pair", "rho": 0.6, "var_y": 2.0, "n": 40, "seed": 3},
        ["--scenario", "gaussian_pair", "--rho", "0.6", "--var-y", "2", "--n", "40",
         "--seed", "3"]),
    "simulate-sim2": (
        "simulate",
        {"scenario": "sim2", "m": 4, "d": 2, "n": 40, "seed": 3, "exponential_mean_mode": True},
        ["--scenario", "sim2", "--m", "4", "--d", "2", "--n", "40", "--seed", "3",
         "--exp-mean-mode"]),
    "estimate-radii": (
        "estimate",
        {"data": "../data.csv", "x_cols": "var0", "y_cols": "var1", "family": "linear_gaussian",
         "norm_radius": 1.0, "clip_b": 50, "max_iters": 3000,
         "tolerance": 1e-6, "pac": True, "delta": 0.1, "pac_b": 50, "kx": 1, "ky": 1,
         "out": "est.json"},
        ["--data", "../data.csv", "--x-cols", "var0", "--y-cols", "var1",
         "--family", "linear_gaussian", "--norm-radius", "1", "--clip-b", "50",
         "--max-iters", "3000", "--tolerance", "1e-6", "--pac",
         "--delta", "0.1", "--pac-b", "50", "--kx", "1", "--ky", "1", "--out", "est.json"]),
    "estimate-rademacher": (
        "estimate",
        {"data": "../data.csv", "x_cols": "var0,var2", "y_cols": "var1_0",
         "family": "polynomial_gaussian", "order": 2, "clip_b": 50, "clamp": True,
         "pac": True, "delta": 0.1, "pac_b": 50, "rademacher": 0.5, "out": "est.json"},
        ["--data", "../data.csv", "--x-cols", "var0,var2", "--y-cols", "var1_0",
         "--family", "polynomial_gaussian", "--order", "2", "--clip-b", "50", "--clamp",
         "--pac", "--delta", "0.1", "--pac-b", "50", "--rademacher", "0.5",
         "--out", "est.json"]),
    "tree-data": (
        "tree",
        {"data": "../data.csv", "truth": "../truth.json", "directed": True,
         "family": "polynomial_gaussian", "order": 2, "clip_b": 50, "out": "tree.json"},
        ["--data", "../data.csv", "--truth", "../truth.json", "--directed",
         "--family", "polynomial_gaussian", "--order", "2", "--clip-b", "50",
         "--out", "tree.json"]),
    "tree-sim_config": (
        "tree",
        {"sim_config": "../sim.json", "seed": 11, "family": "linear_gaussian",
         "norm_radius": 1.0, "max_iters": 3000, "tolerance": 1e-6,
         "out": "tree.json"},
        ["--sim-config", "../sim.json", "--seed", "11", "--family", "linear_gaussian",
         "--norm-radius", "1", "--max-iters", "3000",
         "--tolerance", "1e-6", "--out", "tree.json"]),
    "sweep": (
        "sweep",
        {"scenario": "sim1", "sizes": "20,40", "seeds": "0,1",
         "families": "linear_gaussian,polynomial_gaussian:2", "m": 3, "d": 2, "jobs": 1},
        ["--scenario", "sim1", "--sizes", "20,40", "--seeds", "0,1",
         "--families", "linear_gaussian,polynomial_gaussian:2", "--m", "3", "--d", "2",
         "--jobs", "1"]),
    "estimate-arrays": (
        "estimate",
        {"data": "../data.csv", "x_cols": ["var0", "var2"], "y_cols": ["var1_0"],
         "family": "linear_gaussian", "out": "est.json"},
        ["--data", "../data.csv", "--x-cols", "var0,var2", "--y-cols", "var1_0",
         "--family", "linear_gaussian", "--out", "est.json"]),
    "sweep-arrays": (
        "sweep",
        {"scenario": "sim1", "sizes": [20, 40], "seeds": [0, 1],
         "families": ["linear_gaussian", "polynomial_gaussian:2"], "m": 3, "d": 2},
        ["--scenario", "sim1", "--sizes", "20,40", "--seeds", "0,1",
         "--families", "linear_gaussian,polynomial_gaussian:2", "--m", "3", "--d", "2"]),
    "baselines-arrays": (
        "baselines",
        {"rhos": [0.5, 0.9], "seeds": [0], "n": 128, "batch_size": 4},
        ["--rhos", "0.5,0.9", "--seeds", "0", "--n", "128", "--batch-size", "4"]),
    "baselines": (
        "baselines",
        {"rhos": "0.5,0.9", "seeds": "0", "n": 128, "batch_size": 4},
        ["--rhos", "0.5,0.9", "--seeds", "0", "--n", "128", "--batch-size", "4"]),
}
# --out is required on the command line for these, so a config cannot set it.
REQUIRED_OUT = {"simulate": "data.csv", "sweep": "sweep.csv", "baselines": "bench.csv"}


@pytest.fixture()
def sim1_inputs(tmp_path):
    assert main(["simulate", "--scenario", "sim1", "--m", "3", "--d", "2", "--n", "200",
                 "--seed", "2", "--out", str(tmp_path / "data.csv"),
                 "--truth-out", str(tmp_path / "truth.json")]) == 0
    (tmp_path / "sim.json").write_text(json.dumps(
        {"scenario": "sim1", "m": 3, "d": 2, "n": 100, "seed": 5}))
    return tmp_path


def _outputs(directory) -> dict:
    """Every file a run wrote, JSON run records without their timings."""
    out = {}
    for path in sorted(directory.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            text = json.loads(text)
            del text["duration_s"]
            text["results"].pop("timings", None)
        out[path.name] = text
    return out


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_file_gives_the_same_output_as_flags(sim1_inputs, monkeypatch, case):
    command, config, flags = CONFIG_CASES[case]
    cfg = sim1_inputs / f"{case}.json"
    cfg.write_text(json.dumps(config))
    required = ["--out", REQUIRED_OUT[command]] if command in REQUIRED_OUT else []
    outputs = []
    for name, argv in (("via_config", ["--config", str(cfg)]), ("via_flags", flags)):
        run_dir = sim1_inputs / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main([command, *argv, *required]) == 0
        outputs.append(_outputs(run_dir))
    assert outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["simulate", "estimate", "tree", "sweep", "baselines"])
def test_config_cases_set_every_flag(command):
    keys = {key for cmd, config, _ in CONFIG_CASES.values() if cmd == command
            for key in config}
    assert keys | {"out"} == set(cli._command_flags(cli._build_parser(), command))


@pytest.mark.parametrize("command,key", [
    ("tree", "directed"), ("estimate", "clamp"), ("estimate", "pac"),
    ("simulate", "exponential_mean_mode"),
])
def test_config_on_off_key_takes_only_json_booleans(tmp_path, capsys, command, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: "false"}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: {key} must be true or false, not 'false'\n")
    assert not out.exists()


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "n", [20]), ("simulate", "parents", [1, 0]), ("sweep", "m", [3, 4]),
])
def test_config_array_for_a_non_list_key_exits_2_naming_it(tmp_path, capsys, command,
                                                            key, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {key}: ")
    assert not out.exists()


def test_config_unknown_key_exits_2_naming_it(correlated_csv, tmp_path, capsys):
    path, _ = correlated_csv
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": str(path), "family": "linear_gaussian",
                               "max_iter": 3}))
    out = tmp_path / "tree.json"
    assert main(["tree", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'max_iter'\n"
    assert not out.exists()


def test_config_null_leaves_a_setting_unset(tmp_path, monkeypatch):
    monkeypatch.setenv("USABLE_INFO_SEED", "4")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scenario": "sim1", "m": 3, "d": None, "n": 30,
                               "seed": None, "exponential_mean_mode": None,
                               "truth_out": None}))
    via_config, via_flags = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(via_config)]) == 0
    assert main(["simulate", "--scenario", "sim1", "--m", "3", "--n", "30",
                 "--out", str(via_flags)]) == 0
    assert via_config.read_bytes() == via_flags.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "c.json"]


def test_tree_seed_flag_wins_over_sim_config_seed(tmp_path):
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"scenario": "sim1", "m": 3, "d": 2, "n": 100, "seed": 5}))
    out = tmp_path / "tree.json"
    assert main(["tree", "--sim-config", str(sim), "--seed", "11",
                 "--family", "linear_gaussian", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert (record["seed"], record["config"]["sim_config"]["seed"]) == (11, 11)


@pytest.mark.parametrize("form", ["flag", "config"])
def test_tree_seed_without_sim_config_exits_2(correlated_csv, tmp_path, capsys, form):
    path, _ = correlated_csv
    out = tmp_path / "tree.json"
    argv = ["tree", "--data", str(path), "--family", "linear_gaussian", "--out", str(out)]
    if form == "flag":
        argv += ["--seed", "3"]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 3}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: seed only applies to --sim-config; a --data run draws nothing at random\n")
    assert not out.exists()


# ------------------------------------------------------------------ #
# misc
# ------------------------------------------------------------------ #


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_no_command_prints_help(capsys):
    assert main([]) == 2


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # numpy is the only runtime dependency: even the auc command, which
    # ranks scores, runs without loading scipy.
    src = str(Path(usable_info.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    truth_rows = [(i, j, int(j == (i + 1) % 3)) for i in range(3) for j in range(3)
                  if i != j]
    scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
    _write_pairs(scores, [(i, j, 0.5 * lab) for i, j, lab in truth_rows], "score")
    _write_pairs(truth, truth_rows, "edge")
    out = tmp_path / "auc.json"
    argv = ["auc", "--scores", str(scores), "--truth", str(truth), "--out", str(out)]
    code = ("import sys, usable_info.cli; "
            f"assert usable_info.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert json.loads(out.read_text())["results"]["auc"] == 1.0

