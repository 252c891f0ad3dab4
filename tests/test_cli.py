import copy
import itertools
import json

import numpy as np
import pytest

from mollifit.cli import OPTIONS, main, parse_law, parse_link, parse_loss
from mollifit.dgp import ErrorLaw
from mollifit.exceptions import ConfigurationError
from mollifit.losses import LossKind


def run(args):
    return main(args)


def test_parse_tokens():
    assert parse_loss("l1").kind is LossKind.HUBER
    assert parse_loss("l1").param == 1.25
    assert parse_loss("l2").kind is LossKind.LAD
    assert parse_loss("l3").param == 0.3
    assert parse_loss("quantile:0.7").param == 0.7
    assert parse_loss("se").kind is LossKind.SQUARED_ERROR
    assert parse_law("d4") is ErrorLaw.CAUCHY
    assert parse_link("power:3").power == 3
    with pytest.raises(ConfigurationError):
        parse_loss("hinge")
    with pytest.raises(ConfigurationError):
        parse_law("d9")


def test_simulate_shape_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--example", "ex51", "--n", "200", "--law", "normal", "--seed", "42"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    t1 = out1.read_bytes()
    assert t1 == out2.read_bytes()
    lines = t1.decode().strip().splitlines()
    assert lines[0] == "y,x1,x2,z1,z2"
    assert len(lines) == 201
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 42
    assert meta["resolved_config"]["dgp"]["example"] == "ex51"


def test_simulate_cauchy_kurtosis_flag(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["simulate", "--example", "ex51", "--n", "500", "--law", "cauchy",
                "--seed", "1", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["heavy_tail_flag"] is True
    out2 = tmp_path / "n.csv"
    assert run(["simulate", "--example", "ex51", "--n", "500", "--law", "normal",
                "--seed", "1", "--out", str(out2)]) == 0
    meta2 = json.loads((tmp_path / "n.csv.meta.json").read_text())
    assert meta2["heavy_tail_flag"] is False


def _primary_output(command, out):
    """Bytes of a command's primary output; a fit document without its meta block."""
    if command != "fit":
        return out.read_bytes()
    doc = json.loads(out.read_text())
    del doc["meta"]
    return json.dumps(doc, sort_keys=True).encode()


def test_config_roundtrip(tmp_path):
    """Every command re-run from its sidecar's resolved_config repeats its output."""
    data = tmp_path / "d.csv"
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(json.dumps({"fit": {"m_epsilon": 0.2, "ridge": 1e-4, "multistart": 2}}))
    runs = {
        "simulate": ([], ["--example", "ex52", "--n", "100", "--law", "t2", "--seed", "9"]),
        "fit": (["--data", str(data)], ["--example-model", "ex52", "--config", str(fit_cfg)]),
        "mc": ([], ["--example", "ex52", "--n", "50", "--reps", "2", "--config", str(fit_cfg)]),
        "forecast": (["--data", str(data)], ["--window", "80", "--z-cols", "z1,z2",
                                             "--loss", "lad", "--config", str(fit_cfg)]),
    }
    for command, (inputs, options) in runs.items():
        out1 = data if command == "simulate" else tmp_path / f"{command}-1.out"
        assert run([command, *inputs, *options, "--out", str(out1)]) == 0, command
        meta = json.loads(out1.with_name(out1.name + ".meta.json").read_text())
        echo = tmp_path / f"{command}-echo.json"
        echo.write_text(json.dumps(meta["resolved_config"]))
        out2 = tmp_path / f"{command}-2.out"
        assert run([command, *inputs, "--config", str(echo), "--out", str(out2)]) == 0, command
        assert _primary_output(command, out1) == _primary_output(command, out2), command


_WRONG_TYPES = [
    ("fit", {"fit": {"tol": "x"}}, "fit.tol"),
    ("fit", {"fit": {"max_iter": 50.5}}, "fit.max_iter"),
    ("forecast", {"forecast": {"quantiles": ["0.3"]}}, "forecast.quantiles"),
    ("fit", {"model": {"nonstat_links": ["identity"], "stat_links": ["identity"],
                       "d1": 2, "d2": 2, "share_theta1": "false"}}, "model.share_theta1"),
    ("mc", {"mc": {"start_at_truth": "no"}}, "mc.start_at_truth"),
    ("simulate", {"dgp": 5}, "config.dgp"),
]


@pytest.mark.parametrize("command, cfg, named", _WRONG_TYPES, ids=[c[2] for c in _WRONG_TYPES])
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, command, cfg, named):
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex51", "--n", "60", "--seed", "1",
                "--out", str(data)]) == 0
    argv = {
        "simulate": ["--example", "ex51", "--n", "60"],
        "fit": ["--data", str(data)] + ([] if "model" in cfg else ["--example-model", "ex51"]),
        "mc": ["--example", "ex51", "--n", "50", "--reps", "2"],
        "forecast": ["--data", str(data), "--window", "40", "--z-cols", "z1,z2"],
    }[command]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run([command, *argv, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


def test_simulate_invalid_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dgp": {"n": 100, "unknown_field": 1}}))
    code = run(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    code = run(["simulate", "--example", "ex51", "--law", "normal",
                "--out", str(tmp_path / "y.csv")])  # missing --n
    assert code == 2


def test_simulate_io_failure(tmp_path):
    code = run(["simulate", "--example", "ex51", "--n", "100", "--law", "normal",
                "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 3


def test_fit_cli_huber_normalization(tmp_path):
    data = tmp_path / "d.csv"
    res = tmp_path / "r.json"
    assert run(["simulate", "--example", "ex51", "--n", "200", "--law", "normal",
                "--seed", "7", "--out", str(data)]) == 0
    assert run(["fit", "--data", str(data), "--example-model", "ex51",
                "--loss", "huber:1.25", "--out", str(res)]) == 0
    doc = json.loads(res.read_text())
    assert doc["converged"] is True
    for t in doc["params"]["theta1"] + doc["params"]["theta2"]:
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-9)
    assert set(doc) >= {"params", "a1_hat", "a2_hat", "sigma_hat", "stat_cov",
                        "objective", "iterations", "converged"}


def test_fit_cli_quantile_a1(tmp_path):
    data = tmp_path / "d.csv"
    res = tmp_path / "r.json"
    assert run(["simulate", "--example", "ex51", "--n", "2000", "--law", "normal",
                "--seed", "3", "--recenter-tau", "0.3", "--out", str(data)]) == 0
    assert run(["fit", "--data", str(data), "--example-model", "ex51",
                "--loss", "quantile:0.3", "--out", str(res)]) == 0
    doc = json.loads(res.read_text())
    assert doc["a1_hat"] == pytest.approx(0.21, rel=0.10)


def test_fit_cli_se_matches_ols(tmp_path):
    rng = np.random.default_rng(5)
    n = 150
    Z = rng.standard_normal((n, 2))
    y = Z @ np.array([1.0, -0.5]) + 0.2 * rng.standard_normal(n)
    rows = ["y,z1,z2"] + [f"{y[i]:.17g},{Z[i,0]:.17g},{Z[i,1]:.17g}" for i in range(n)]
    data = tmp_path / "lin.csv"
    data.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "model": {"nonstat_links": [], "stat_links": ["identity"], "d1": 1, "d2": 2}
    }))
    res = tmp_path / "r.json"
    assert run(["fit", "--data", str(data), "--config", str(cfg),
                "--loss", "se", "--out", str(res)]) == 0
    doc = json.loads(res.read_text())
    b = np.array(doc["params"]["theta2"][0]) * doc["params"]["gamma2"][0]
    ols = np.linalg.lstsq(Z, y, rcond=None)[0]
    np.testing.assert_allclose(b, ols, atol=1e-8)


def test_fit_cli_nonconvergence_exit_code(tmp_path):
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex51", "--n", "120", "--law", "normal",
                "--seed", "2", "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": {"max_iter": 1, "multistart": 1}}))
    res = tmp_path / "r.json"
    code = run(["fit", "--data", str(data), "--example-model", "ex51",
                "--loss", "huber:1.25", "--config", str(cfg), "--out", str(res)])
    assert code == 1
    doc = json.loads(res.read_text())
    assert doc["converged"] is False


@pytest.mark.parametrize("name, value", [
    ("tol", float("nan")), ("ridge", -1.0), ("ridge", float("nan")), ("m_epsilon", float("nan")),
])
def test_fit_cli_rejects_an_option_that_breaks_the_fit(tmp_path, capsys, name, value):
    # JSON as Python writes and reads it allows NaN.
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex51", "--n", "200", "--seed", "3",
                "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": {name: value}}))
    capsys.readouterr()
    code = run(["fit", "--data", str(data), "--example-model", "ex51",
                "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"{name} must be finite" in capsys.readouterr().err


def test_fit_cli_rejects_an_overflowing_smoothing_order(tmp_path, capsys):
    # n ** (2 + m_epsilon) overflowed, and fit died with a traceback.
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex51", "--n", "200", "--seed", "3",
                "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": {"m_epsilon": 200}}))
    capsys.readouterr()
    out = tmp_path / "r.json"
    code = run(["fit", "--data", str(data), "--example-model", "ex51",
                "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "mollifier order n^(2+epsilon) overflows" in capsys.readouterr().err
    assert not out.exists()


def test_mc_and_forecast_reject_an_overflowing_smoothing_order(tmp_path, capsys):
    # Both ran every fit into the overflow, then wrote a table of failures
    # (mc) or of fallback windows (forecast) and exited 0.
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex51", "--n", "80", "--seed", "3",
                "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": {"m_epsilon": 200}}))
    capsys.readouterr()
    commands = [
        ["mc", "--example", "ex51", "--n", "50", "--reps", "3", "--losses", "l1", "--laws", "d1"],
        ["forecast", "--data", str(data), "--window", "50", "--z-cols", "z1,z2", "--loss", "lad"],
    ]
    for command in commands:
        out = tmp_path / f"{command[0]}.csv"
        assert run([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "mollifier order n^(2+epsilon) overflows" in capsys.readouterr().err
        assert not out.exists()


def test_cli_rejects_an_infinite_huber_threshold_or_order(tmp_path, capsys):
    # Each used to run: fit stopped on a singular-matrix error, mc wrote an
    # all-NaN table and loss-probe a NaN curvature column.
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex51", "--n", "100", "--seed", "3",
                "--out", str(data)]) == 0
    for argv in (
        ["fit", "--data", str(data), "--example-model", "ex51", "--loss", "huber:inf"],
        ["mc", "--example", "ex51", "--n", "50", "--reps", "3", "--losses", "huber:inf",
         "--laws", "d1"],
    ):
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "r.out")]) == 2, argv[0]
        assert "huber threshold must be finite" in capsys.readouterr().err
    assert run(["loss-probe", "--loss", "lad", "--m", "inf", "--grid=-1:1:0.5",
                "--out", str(tmp_path / "p.csv")]) == 2
    assert "mollifier order must be finite" in capsys.readouterr().err
    assert not any(tmp_path.glob("[rp].*"))


def test_forecast_rejects_a_repeated_column_name(tmp_path, capsys):
    # The panel's second x column used to replace the first unseen.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((60, 2))
    y = 2.0 * x[:, 0] + 0.1 * rng.standard_normal(60)
    data = tmp_path / "panel.csv"
    data.write_text("y,x,x\n" + "".join(f"{y[i]:.17g},{x[i, 0]:.17g},{x[i, 1]:.17g}\n"
                                         for i in range(60)))
    capsys.readouterr()
    assert run(["forecast", "--data", str(data), "--window", "40", "--loss", "se",
                "--x-cols", "x", "--out", str(tmp_path / "r.csv")]) == 2
    assert "repeated column name(s) in table header: x" in capsys.readouterr().err


def test_forecast_rejects_repeated_quantile_levels(tmp_path, capsys, monkeypatch):
    # Each repeat of a level fitted every window again and wrote its row again.
    def no_run(*args, **kwargs):
        raise AssertionError("the forecast ran")

    monkeypatch.setattr("mollifit.cli.run_forecast", no_run)
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((50, 2))
    y = Z @ np.array([2.0, 1.0]) + 0.1 * rng.standard_normal(50)
    data = tmp_path / "panel.csv"
    data.write_text("y,z1,z2\n" + "".join(f"{y[i]:.17g},{Z[i, 0]:.17g},{Z[i, 1]:.17g}\n"
                                          for i in range(50)))
    capsys.readouterr()
    out = tmp_path / "r.csv"
    code = run(["forecast", "--data", str(data), "--window", "30", "--loss", "quantile:0.5",
                "--z-cols", "z1,z2", "--quantiles", "0.25,0.5,0.5", "--out", str(out)])
    assert code == 2
    assert "quantile levels must be distinct, got 0.25, 0.5, 0.5" in capsys.readouterr().err
    assert not out.exists()


def _write_panel(path, rows):
    path.write_text("y,z1,z2\n" + "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in rows))


def _panel_rows(T=60):
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((T, 2))
    y = Z @ np.array([1.0, -0.5]) + 0.2 * rng.standard_normal(T)
    return np.column_stack([y, Z])


@pytest.mark.parametrize("row, col, value", [(59, 0, np.nan), (59, 0, np.inf),
                                              (59, 1, np.nan), (30, 0, np.nan)])
def test_forecast_rejects_a_non_finite_value_in_any_row(tmp_path, capsys, row, col, value):
    # The last row is never inside a window, so a value there used to pass:
    # a nan pr2 for y, a silent fallback for z1.
    rows = _panel_rows()
    rows[row, col] = value
    data = tmp_path / "panel.csv"
    _write_panel(data, rows)
    capsys.readouterr()
    out = tmp_path / "r.csv"
    assert run(["forecast", "--data", str(data), "--window", "30", "--z-cols", "z1,z2",
                "--loss", "lad", "--out", str(out)]) == 2
    assert "non-finite entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("z_cols, message", [("z1,z3", "input table has no column 'z3'"),
                                             ("z1,y", "y/x/z column names must be disjoint")])
def test_forecast_rejects_a_missing_or_repeated_column(tmp_path, capsys, z_cols, message):
    data = tmp_path / "panel.csv"
    _write_panel(data, _panel_rows())
    capsys.readouterr()
    out = tmp_path / "r.csv"
    assert run(["forecast", "--data", str(data), "--window", "30", "--z-cols", z_cols,
                "--loss", "lad", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_forecast_rejects_a_config_model_that_does_not_fit_the_columns(tmp_path, capsys):
    # A stationary block of width 2 over one z column used to fail every
    # window's fit, and the command wrote a report of fallbacks and exited 0.
    data = tmp_path / "panel.csv"
    _write_panel(data, _panel_rows())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"stat_links": ["identity"], "d1": 1, "d2": 2}}))
    capsys.readouterr()
    out = tmp_path / "r.csv"
    assert run(["forecast", "--data", str(data), "--config", str(cfg), "--window", "30",
                "--z-cols", "z1", "--out", str(out)]) == 2
    assert "z must have 2 columns, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_fit_cli_dimension_mismatch(tmp_path):
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex52", "--n", "100", "--law", "normal",
                "--seed", "1", "--out", str(data)]) == 0
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "model": {"nonstat_links": ["identity"], "stat_links": ["identity"],
                   "d1": 3, "d2": 2}
    }))
    code = run(["fit", "--data", str(data), "--config", str(cfg),
                "--loss", "lad", "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_mc_cli_shape_determinism_and_rates(tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    base = ["mc", "--example", "ex51", "--n", "50,100", "--reps", "6",
            "--losses", "l1", "--laws", "d1", "--seed", "11"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "param,loss,law,n,bias,sd,mse,reps_used,failures"
    # 9 parameters x 2 sample sizes.
    assert len(lines) == 1 + 18
    out3 = tmp_path / "t3.csv"
    assert run(base + ["--rate", "gamma3", "--out", str(out3)]) == 0
    tail = out3.read_text().strip().splitlines()[-1]
    assert tail.startswith("rate:gamma3,huber:1.25,normal,50->100,")
    # Markdown rendering carries the same numbers as the CSV.
    md = tmp_path / "t.md"
    assert run(base + ["--markdown", str(md), "--out", str(tmp_path / "t4.csv")]) == 0
    mse_csv = out1.read_text().strip().splitlines()[1].split(",")[6]
    assert mse_csv in md.read_text()


def test_mc_markdown_carries_the_rate_rows_of_its_csv(tmp_path):
    # The markdown table used to end at the cells, without the rate rows.
    out, md = tmp_path / "t.csv", tmp_path / "t.md"
    assert run(["mc", "--example", "ex51", "--n", "50,100", "--reps", "3", "--losses", "l1",
                "--laws", "d1", "--seed", "11", "--rate", "theta21,gamma3",
                "--markdown", str(md), "--out", str(out)]) == 0
    csv_rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    md_rows = [[tok.strip() for tok in line.strip("|").split("|")]
               for line in md.read_text().splitlines()[2:]]
    assert md_rows == csv_rows
    assert [row[0] for row in csv_rows[-2:]] == ["rate:theta21", "rate:gamma3"]


def test_mc_writes_an_undefined_rate_as_nan(tmp_path):
    # One iteration converges no replication, so every cell is empty and the
    # rate has no MSE to divide.  The table is still written, the rate as nan
    # as its cells are, and the command succeeds as it does without --rate.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fit": {"max_iter": 1}}))
    out = tmp_path / "t.csv"
    code = run(["mc", "--config", str(cfg), "--example", "ex51", "--n", "50,100", "--reps", "2",
                "--losses", "l1", "--laws", "d1", "--rate", "gamma1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("gamma1,huber:1.25,normal,50,nan,nan,nan,0,2")
    assert lines[-1] == "rate:gamma1,huber:1.25,normal,50->100,,,nan,,"
    assert (tmp_path / "t.csv.meta.json").exists()


def test_mc_rejects_an_unknown_rate_parameter_before_running(tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("the Monte Carlo ran")

    monkeypatch.setattr("mollifit.cli.run_replications", no_run)
    out = tmp_path / "t.csv"
    code = run(["mc", "--example", "ex52", "--n", "50,60", "--rate", "gamma3",
                "--out", str(out)])
    assert code == 2
    assert "gamma3" in capsys.readouterr().err
    assert not out.exists()


def test_mc_rejects_a_rate_with_one_sample_size_before_running(tmp_path, capsys, monkeypatch):
    # A rate needs two sample sizes; with one, the command used to write no
    # rate row and end its CSV with a blank line.
    def no_run(config):
        raise AssertionError("the Monte Carlo ran")

    monkeypatch.setattr("mollifit.cli.run_replications", no_run)
    out = tmp_path / "t.csv"
    code = run(["mc", "--example", "ex51", "--n", "60", "--rate", "theta21",
                "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "mc.rate_params" in err and "mc.n_list" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--n", "60,60", "--rate", "theta11"], "n_list"),
    (["--n", "60,50"], "n_list"),
    (["--n", "60", "--losses", "l2,lad"], "losses"),
    (["--n", "60", "--laws", "d1,normal"], "laws"),
])
def test_mc_rejects_repeated_table_entries(tmp_path, capsys, monkeypatch, flags, named):
    # A repeated sample size, loss or law would print its table rows twice
    # (and a repeated n divides by log(n/n) = 0 in the rate).
    def no_run(config):
        raise AssertionError("the Monte Carlo ran")

    monkeypatch.setattr("mollifit.cli.run_replications", no_run)
    out = tmp_path / "t.csv"
    code = run(["mc", "--example", "ex51", "--reps", "2", *flags, "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex51", "--n", "60", "--seed", "3",
                "--out", str(data)]) == 0
    capsys.readouterr()
    commands = [
        ["mc", "--example", "ex51", "--n", "60", "--reps", "2", "--losses", "l2", "--laws", "d1"],
        ["forecast", "--data", str(data), "--window", "50", "--z-cols", "z1,z2"],
    ]
    for command in commands:
        out = tmp_path / f"{command[0]}.csv"
        assert run([*command, f"--threads={threads}", "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()
    for command in commands:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({command[0]: {"threads": int(threads)}}))
        out = tmp_path / "c.csv"
        assert run([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{command[0]}.threads" in capsys.readouterr().err
        assert not out.exists()


def test_forecast_survives_an_underflowing_curvature(tmp_path):
    # Two LAD iterations leave the curvature a2 positive but so small that
    # its square is 0.0; the covariance is then left out, not divided by.
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex51", "--n", "50", "--seed", "2",
                "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"forecast": {"window": 40, "z_cols": ["z1", "z2"]},
                               "fit": {"max_iter": 2}}))
    assert run(["forecast", "--data", str(data), "--loss", "lad", "--config", str(cfg),
                "--out", str(tmp_path / "rep.csv")]) == 0


def test_forecast_cli(tmp_path):
    rng = np.random.default_rng(8)
    T = 70
    Z = rng.standard_normal((T, 2))
    y = Z @ np.array([2.0, 1.0])
    rows = ["y,z1,z2"] + [f"{y[i]:.17g},{Z[i,0]:.17g},{Z[i,1]:.17g}" for i in range(T)]
    data = tmp_path / "panel.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "rep.csv"
    dump = tmp_path / "errs.csv"
    assert run(["forecast", "--data", str(data), "--window", "30", "--loss", "se",
                "--z-cols", "z1,z2", "--y-col", "y", "--dump", str(dump),
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "window,loss,tau,pr2,n_forecasts,fallback_count"
    pr2 = float(lines[1].split(",")[3])
    assert pr2 == pytest.approx(1.0, abs=1e-8)
    dump_lines = dump.read_text().strip().splitlines()
    assert dump_lines[0] == "t,date,pred_err,bench_err"
    assert len(dump_lines) == 1 + (70 - 30)
    # Quantile sweep: one row per level.
    out2 = tmp_path / "repq.csv"
    assert run(["forecast", "--data", str(data), "--window", "30", "--loss", "quantile:0.5",
                "--z-cols", "z1,z2", "--quantiles", "0.05,0.5,0.95",
                "--out", str(out2)]) == 0
    assert len(out2.read_text().strip().splitlines()) == 4
    # window >= T is a usage error.
    assert run(["forecast", "--data", str(data), "--window", "70", "--loss", "se",
                "--z-cols", "z1,z2", "--out", str(tmp_path / "x.csv")]) == 2
    # A model with no index blocks is rejected.
    assert run(["forecast", "--data", str(data), "--window", "30", "--loss", "se",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_data_file_reader(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header_only = tmp_path / "header.csv"
    header_only.write_text("y,x1,z1\n")
    for data in (empty, header_only):
        assert run(["fit", "--data", str(data), "--example-model", "ex51",
                    "--out", str(tmp_path / "f.json")]) == 2, data.name
        assert run(["forecast", "--data", str(data), "--window", "10", "--loss", "se",
                    "--z-cols", "z1", "--out", str(tmp_path / "c.csv")]) == 2, data.name
    # The first text column holds the dates; a later one is dropped.
    rng = np.random.default_rng(3)
    T = 40
    x = rng.standard_normal(T)
    y = 2.0 * x + 0.1 * rng.standard_normal(T)
    rows = ["date,y,x1,label"] + [
        f"2001-{i + 1:03d},{y[i]:.17g},{x[i]:.17g},lab{i}" for i in range(T)
    ]
    data = tmp_path / "panel.csv"
    data.write_text("\n".join(rows) + "\n")
    dump = tmp_path / "errs.csv"
    assert run(["forecast", "--data", str(data), "--window", "30", "--loss", "se",
                "--x-cols", "x1", "--dump", str(dump), "--out", str(tmp_path / "r.csv")]) == 0
    dates = [ln.split(",")[1] for ln in dump.read_text().strip().splitlines()[1:]]
    assert dates == [f"2001-{i + 1:03d}" for i in range(30, T)]


def test_loss_probe_cli(tmp_path):
    out = tmp_path / "probe.csv"
    assert run(["loss-probe", "--loss", "lad", "--m", "100",
                "--grid=-2:2:0.01", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,rho,rho_m,rho_m_prime,rho_m_second,gap,gap_bound"
    assert len(lines) == 1 + 401
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(body[:, 5] <= body[:, 6] + 1e-12)

    out2 = tmp_path / "probe_q.csv"
    assert run(["loss-probe", "--loss", "quantile:0.3", "--m", "100",
                "--grid=0:0:1", "--out", str(out2)]) == 0
    row = out2.read_text().strip().splitlines()[1].split(",")
    assert float(row[1]) == 0.0

    out3 = tmp_path / "probe_h.csv"
    assert run(["loss-probe", "--loss", "huber:1", "--m", "1000000",
                "--grid=-3:3:0.05", "--out", str(out3)]) == 0
    b3 = np.array([[float(v) for v in ln.split(",")]
                   for ln in out3.read_text().strip().splitlines()[1:]])
    assert np.max(np.abs(b3[:, 2] - b3[:, 1])) <= 1e-3

    assert run(["loss-probe", "--loss", "se", "--m", "100",
                "--grid=-1:1:0.5", "--out", str(tmp_path / "x.csv")]) == 2


def test_loss_probe_names_the_flag_of_an_order_that_is_not_a_number(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(["loss-probe", "--loss", "lad", "--m", "100,x", "--grid=-1:1:0.5",
                "--out", str(out)]) == 2
    assert "--m: could not convert string to float: 'x'" in capsys.readouterr().err
    assert not out.exists()


def test_loss_probe_rejects_a_huge_or_unbounded_grid_before_making_it(
    tmp_path, capsys, monkeypatch
):
    # A 10^12-point grid used to end in an uncaught MemoryError (exit 1).
    def no_arange(*args, **kwargs):
        raise AssertionError("the grid must be rejected before it is built")

    monkeypatch.setattr(np, "arange", no_arange)
    for grid in ("0:1e12:1", "-inf:1:1", "0:nan:1", "-1e308:1e308:1"):
        capsys.readouterr()
        assert run(["loss-probe", "--loss", "lad", "--m", "100", f"--grid={grid}",
                    "--out", str(tmp_path / "p.csv")]) == 2, grid
        assert "at most 1000000 points" in capsys.readouterr().err, grid
    assert not (tmp_path / "p.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mollifit" in capsys.readouterr().out


def test_every_command_writes_a_sidecar(tmp_path):
    data = tmp_path / "d.csv"
    runs = {
        "simulate": ["simulate", "--example", "ex51", "--n", "120", "--seed", "4",
                     "--out", str(data)],
        "fit": ["fit", "--data", str(data), "--example-model", "ex51",
                "--out", str(tmp_path / "f.json")],
        "mc": ["mc", "--example", "ex51", "--n", "50", "--reps", "2",
               "--out", str(tmp_path / "m.csv")],
        "forecast": ["forecast", "--data", str(data), "--window", "100",
                     "--z-cols", "z1,z2", "--out", str(tmp_path / "c.csv")],
        "loss-probe": ["loss-probe", "--loss", "lad", "--m", "100",
                       "--grid=-1:1:0.5", "--out", str(tmp_path / "p.csv")],
    }
    for command, argv in runs.items():
        assert run(argv) == 0, command
        meta = json.loads((tmp_path / (argv[-1].split("/")[-1] + ".meta.json")).read_text())
        assert meta["version"].startswith("mollifit "), command
        assert isinstance(meta["resolved_config"], dict), command
    fit_doc = json.loads((tmp_path / "f.json").read_text())
    assert fit_doc["meta"] == json.loads((tmp_path / "f.json.meta.json").read_text())


def _generic_sim_config(taps=None):
    dgp = {"n": 60, "law": "normal"}
    if taps is not None:
        dgp["lin_proc_coeffs"] = taps
    return {
        "seed": 5,
        "model": {"nonstat_links": ["identity"], "stat_links": ["identity"],
                  "d1": 2, "d2": 1,
                  "params": {"theta1": [[0.6, 0.8]], "gamma1": [1.0],
                             "theta2": [[1.0]], "gamma2": [0.5]}},
        "dgp": dgp,
    }


def _simulate_config(tmp_path, name, cfg, extra=()):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}.csv"
    return run(["simulate", "--config", str(path), *extra, "--out", str(out)]), out


def _x_columns(path):
    rows = path.read_text().strip().splitlines()
    assert rows[0].split(",")[1:3] == ["x1", "x2"]
    return np.array([[float(v) for v in r.split(",")[1:3]] for r in rows[1:]])


def test_simulate_lin_proc_coeffs_take_effect_and_echo(tmp_path):
    taps = [[[1.0, 0.0], [0.0, 1.0]], [[0.8, 0.0], [0.3, -0.5]]]
    code, plain = _simulate_config(tmp_path, "plain", _generic_sim_config())
    assert code == 0
    code, tapped = _simulate_config(tmp_path, "tapped", _generic_sim_config(taps))
    assert code == 0
    assert not np.array_equal(_x_columns(plain), _x_columns(tapped))
    meta = json.loads((tmp_path / "tapped.csv.meta.json").read_text())
    assert meta["resolved_config"]["dgp"]["lin_proc_coeffs"] == taps
    plain_meta = json.loads((tmp_path / "plain.csv.meta.json").read_text())
    assert "lin_proc_coeffs" not in plain_meta["resolved_config"]["dgp"]
    code, echoed = _simulate_config(tmp_path, "echo", meta["resolved_config"])
    assert code == 0
    assert echoed.read_bytes() == tapped.read_bytes()


@pytest.mark.parametrize("n", [0, -3])
def test_simulate_rejects_a_sample_size_below_one(tmp_path, capsys, n):
    # --n 0 wrote a header-only CSV and a sidecar holding NaN, which is not JSON.
    capsys.readouterr()
    code, out = _simulate_config(tmp_path, "empty", _generic_sim_config(), ["--n", str(n)])
    assert code == 2
    assert f"n must be at least 1, got {n}" in capsys.readouterr().err
    assert not list(tmp_path.glob("empty.csv*"))


def test_simulate_rejects_bad_lin_proc_coeffs(tmp_path, capsys):
    # A packaged example fixes its processes, so it rejects every generic-only key.
    for key, value in (("lin_proc_coeffs", [[[1.0, 0.0], [0.0, 1.0]]]),
                       ("rho1", [[1.0, 0.0], [0.0, 1.0]]), ("trend", "linear")):
        cfg = {"dgp": {key: value}}
        code, out = _simulate_config(tmp_path, key, cfg, ["--example", "ex51", "--n", "50"])
        assert code == 2, key
        assert not out.exists()
        assert f"dgp.{key}" in capsys.readouterr().err
    code, out = _simulate_config(tmp_path, "wide", _generic_sim_config([[[1.0]]]))
    assert code == 2
    assert not out.exists()


# The option-table walk: a base run per command, and for every (command,
# option) of the table a value other than the base run's, set through the
# config file.
_WALK_BASE = {
    "simulate": _generic_sim_config(),
    "fit": {},
    "mc": {"mc": {"example": "ex51", "n_list": [50, 60], "reps": 2}},
    "forecast": {"loss": "lad", "forecast": {"window": 40, "z_cols": ["z1", "z2"]}},
}
_FIT_WALK = {"fit.m_epsilon": 0.2, "fit.tol": 1e-2, "fit.max_iter": 3,
             "fit.multistart": 2, "fit.damping": 0.3, "fit.ridge": 1e-2}
_WALK = {
    "simulate": {
        "seed": 6, "dgp.example": "ex51", "dgp.n": 61, "dgp.law": "t2",
        "dgp.error_scale": 0.7, "dgp.recenter_tau": 0.3,
        "dgp.rho1": [[1.0, 0.0], [0.0, 0.5]], "dgp.sigma1": [[2.0, 0.0], [0.0, 1.0]],
        "dgp.rho2": [[0.3]], "dgp.sigma2": [[2.0]], "dgp.trend": "linear",
        "dgp.lin_proc_coeffs": [[[1.0, 0.0], [0.0, 1.0]], [[0.8, 0.0], [0.3, -0.5]]],
    },
    "fit": {"seed": 7, "loss": "huber:1.25", **_FIT_WALK},
    "mc": {
        "seed": 8, "mc.example": "ex52", "mc.n_list": [50, 70], "mc.reps": 3,
        "mc.losses": ["l2"], "mc.laws": ["d3"], "mc.scale": 100.0,
        "mc.rate_params": ["gamma1"], "mc.start_at_truth": False, "mc.threads": 2,
        **_FIT_WALK,
    },
    "forecast": {
        "loss": "se", "forecast.window": 45, "forecast.x_cols": ["x1"],
        "forecast.z_cols": ["z1"], "forecast.y_col": "x2", "forecast.quantiles": [0.5],
        "forecast.threads": 2, **_FIT_WALK,
    },
}
# Keys that act only together with another: both runs of the case set it.
_WALK_CONTEXT = {
    # A truth-anchored replication fits from the one true start, and takes
    # every Newton step whole: start count and backtracking act only under
    # global starts.
    ("mc", "fit.multistart"): {"mc.start_at_truth": False},
    ("mc", "fit.damping"): {"mc.start_at_truth": False},
}
# The only options that leave every primary output unchanged; their echo
# must change instead.
_ECHO_ONLY = {
    ("mc", "mc.threads"): "output is byte-identical across worker counts by contract",
    ("forecast", "forecast.threads"): "output is byte-identical across worker counts by contract",
    ("fit", "seed"): "fit draws no random numbers",
}


def _set(cfg, path, value):
    section, _, key = path.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[key] = value


def _get(cfg, path):
    section, _, key = path.rpartition(".")
    return (cfg[section] if section else cfg)[key]


@pytest.mark.filterwarnings("ignore:rho1 is not the identity")
def test_every_option_has_an_effect(tmp_path):
    cases = {(command, opt.path) for opt in OPTIONS for command in opt.commands}
    assert {(command, path) for command, values in _WALK.items() for path in values} == cases
    data = tmp_path / "d.csv"
    assert run(["simulate", "--example", "ex51", "--n", "50", "--seed", "2",
                "--out", str(data)]) == 0
    inputs = {"simulate": [], "fit": ["--data", str(data), "--example-model", "ex51"],
              "mc": [], "forecast": ["--data", str(data)]}
    names = itertools.count()
    runs = {}

    def output(command, settings):
        """(primary output, resolved config) of ``command`` on its base with ``settings``."""
        key = (command, json.dumps(settings, sort_keys=True))
        if key not in runs:
            cfg = copy.deepcopy(_WALK_BASE[command])
            for path, value in settings.items():
                _set(cfg, path, value)
            name = next(names)
            cfg_path = tmp_path / f"cfg{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"out{name}"
            code = run([command, *inputs[command], "--config", str(cfg_path), "--out", str(out)])
            assert code in (0, 1), (command, settings)
            meta = json.loads(out.with_name(out.name + ".meta.json").read_text())
            runs[key] = _primary_output(command, out), meta["resolved_config"]
        return runs[key]

    for command, path in sorted(cases):
        context = _WALK_CONTEXT.get((command, path), {})
        base, base_echo = output(command, context)
        changed, echo = output(command, {**context, path: _WALK[command][path]})
        if (command, path) in _ECHO_ONLY:
            assert changed == base, (command, path)
            assert _get(echo, path) != _get(base_echo, path), (command, path)
        else:
            assert changed != base, (command, path)
