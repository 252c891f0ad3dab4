import numpy as np
import pytest

from mollifit.dgp import dataset_from_table
from mollifit.estimate import FitOptions
from mollifit.exceptions import ConfigurationError
from mollifit.forecast import (
    ForecastConfig,
    constant_predictor,
    pseudo_r2,
    report_csv,
    rolling_forecast,
    run_forecast,
)
from mollifit.losses import (
    LAD,
    SQUARED_ERROR,
    eval_loss,
    huber_loss,
    quantile_loss,
)
from mollifit.model import IDENTITY, ModelSpec

HUB = huber_loss(1.25)
Q3 = quantile_loss(0.3)


def _stat_model(d2=2):
    return ModelSpec((), (IDENTITY,), 1, d2)


def _config(window, loss=SQUARED_ERROR, d2=2, **kw):
    return ForecastConfig(
        window=window,
        model=_stat_model(d2),
        fit_options=FitOptions(loss=loss),
        **kw,
    )


def _data(table, z_cols=("z1", "z2")):
    return dataset_from_table(table, "y", [], list(z_cols))


def _signal_table(T, noise, seed=0, beta=(1.0, -0.5)):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((T, 2))
    y = Z @ np.array(beta) + noise * rng.standard_normal(T)
    return {"y": y, "z1": Z[:, 0], "z2": Z[:, 1]}


def test_constant_series_zero_errors():
    T = 30
    table = {"y": np.full(T, 5.0), "z1": np.ones(T), "z2": np.ones(T)}
    pred, bench, fb = rolling_forecast(_data(table), _config(10))
    np.testing.assert_allclose(pred, 0.0, atol=1e-10)
    np.testing.assert_allclose(bench, 0.0, atol=1e-12)
    assert fb == 0
    with pytest.raises(ConfigurationError):
        pseudo_r2(pred, bench, SQUARED_ERROR)


def test_single_forecast_when_t_is_window_plus_one():
    table = _signal_table(13, 0.1)
    pred, bench, _ = rolling_forecast(_data(table), _config(12))
    assert pred.size == 1
    assert bench.size == 1


def test_pseudo_r2_examples():
    bench = np.array([1.0, -2.0, 0.5])
    assert pseudo_r2(np.zeros(3), bench, SQUARED_ERROR) == 1.0
    assert pseudo_r2(bench, bench, LAD) == 0.0
    # A model whose total loss is 20% above the benchmark scores -0.2.
    pred = np.array([1.2, -2.4, 0.6])
    got = pseudo_r2(pred, bench, LAD)
    assert got == pytest.approx(1.0 - 1.2, abs=1e-12)
    assert pseudo_r2(pred, bench, SQUARED_ERROR) <= 1.0


def test_pr2_shift_invariance_squared_error():
    table = _signal_table(80, 0.5, seed=3)
    cfg = _config(30)
    pred, bench, _ = rolling_forecast(_data(table), cfg)
    base = pseudo_r2(pred, bench, SQUARED_ERROR)
    shifted = dict(table)
    shifted["y"] = table["y"] + 11.0
    shifted["z1"] = np.ones_like(table["y"])  # intercept capacity
    shifted["z2"] = table["z2"]
    # Under squared error both the model (with an intercept-capable column)
    # and the mean benchmark absorb a constant shift of y.
    cfg2 = _config(30)
    p2, b2, _ = rolling_forecast(_data(shifted), cfg2)
    table2 = dict(table)
    table2["z1"] = np.ones_like(table["y"])
    p1, b1, _ = rolling_forecast(_data(table2), cfg2)
    assert pseudo_r2(p2, b2, SQUARED_ERROR) == pytest.approx(
        pseudo_r2(p1, b1, SQUARED_ERROR), abs=1e-8
    )


def test_quantile_sweep_layout():
    table = _signal_table(60, 0.3, seed=4)
    cfg = _config(25, loss=Q3, quantile_levels=[0.25, 0.5, 0.75])
    reports = run_forecast(_data(table), cfg)
    assert [r.tau for r in reports] == [0.25, 0.5, 0.75]
    assert all(r.n_forecasts == 60 - 25 for r in reports)
    text = report_csv(reports)
    assert text.splitlines()[0] == "window,loss,tau,pr2,n_forecasts,fallback_count"
    assert len(text.strip().splitlines()) == 4


def test_constant_predictor_minimizes_loss():
    rng = np.random.default_rng(9)
    y = rng.standard_normal(101) * 2.0 + 0.7
    grid = np.linspace(y.min(), y.max(), 4001)
    for loss in (SQUARED_ERROR, LAD, Q3, HUB):
        mu = constant_predictor(y, loss)
        total = float(np.sum(eval_loss(loss, y - mu)))
        grid_best = min(float(np.sum(eval_loss(loss, y - g))) for g in grid)
        assert total <= grid_best + 1e-9


def test_fallback_on_fit_failure():
    # Model expects a two-column stationary block while the table provides
    # fewer or more; every window fit fails and falls back to the benchmark.
    T = 40
    rng = np.random.default_rng(11)
    table = {c: rng.standard_normal(T) for c in ("y", "z1", "z2", "z3")}
    for z_cols in (["z1"], ["z1", "z2", "z3"]):
        cfg = ForecastConfig(
            window=20, model=_stat_model(2), fit_options=FitOptions(loss=SQUARED_ERROR),
        )
        pred, bench, fb = rolling_forecast(_data(table, z_cols), cfg)
        assert fb == T - 20, z_cols
        np.testing.assert_array_equal(pred, bench)


def test_window_validation():
    with pytest.raises(ConfigurationError):
        _config(5)  # below parameter count + 5
    table = _signal_table(20, 0.1)
    with pytest.raises(ConfigurationError):
        rolling_forecast(_data(table), _config(20))


def test_signal_dominance_small():
    wins = 0
    for seed in range(10):
        table = _signal_table(70, 0.2, seed=seed)
        pred, bench, _ = rolling_forecast(_data(table), _config(30))
        wins += pseudo_r2(pred, bench, SQUARED_ERROR) > 0
    assert wins >= 9


def test_threads_do_not_change_forecasts():
    table = _signal_table(60, 0.4, seed=12)
    p1, b1, f1 = rolling_forecast(_data(table), _config(25), threads=1)
    p2, b2, f2 = rolling_forecast(_data(table), _config(25), threads=2)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(b1, b2)
    assert f1 == f2


def test_threads_do_not_change_quantile_reports():
    table = _signal_table(60, 0.4, seed=13)
    cfg = _config(25, loss=Q3, quantile_levels=[0.25, 0.5, 0.75])
    one = run_forecast(_data(table), cfg, threads=1)
    # 3 workers cut each level's 35 windows into chunks of 12, 12 and 11.
    for threads in (2, 3):
        other = run_forecast(_data(table), cfg, threads=threads)
        assert report_csv(one) == report_csv(other)
        for a, b in zip(one, other):
            np.testing.assert_array_equal(a.pred_errors, b.pred_errors)
            np.testing.assert_array_equal(a.bench_errors, b.bench_errors)
