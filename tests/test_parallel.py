import concurrent.futures

import numpy as np
import pytest

import mollifit.parallel as parallel
from mollifit.dgp import ErrorLaw
from mollifit.estimate import FitOptions
from mollifit.forecast import ForecastConfig, run_forecast
from mollifit.losses import huber_loss, quantile_loss
from mollifit.model import IDENTITY, ModelSpec
from mollifit.montecarlo import McConfig, run_replications
from mollifit.parallel import parallel_map


@pytest.fixture
def pools(monkeypatch):
    """Counts process pools the helper constructs."""
    made = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    return made


def _affine(a, b):
    return 3 * a + b


def test_parallel_map_keeps_input_order(pools):
    items = [(a, -a) for a in range(37)]
    expect = [2 * a for a in range(37)]
    assert parallel_map(_affine, items, 1) == expect
    assert pools == []
    assert parallel_map(_affine, items, 2) == expect
    assert pools == [2]
    assert parallel_map(_affine, [], 2) == []
    assert parallel_map(_affine, [(1, 1)], 2) == [4]
    assert pools == [2]


def test_monte_carlo_opens_one_pool(pools):
    hub = huber_loss(1.25)
    config = McConfig(
        example="ex51", n_list=[50, 60], reps=2, losses=[hub],
        laws=[ErrorLaw.NORMAL, ErrorLaw.T2], base_seed=3,
        fit_options=FitOptions(loss=hub), threads=2,
    )
    table = run_replications(config)
    assert len({key[1:] for key in table.cells}) == 4
    assert pools == [2]


def test_quantile_forecast_opens_one_pool(pools):
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((40, 2))
    table = {"y": Z @ [1.0, -0.5] + 0.3 * rng.standard_normal(40),
             "z1": Z[:, 0], "z2": Z[:, 1]}
    config = ForecastConfig(
        window=30, loss=quantile_loss(0.5), model=ModelSpec((), (IDENTITY,), 1, 2),
        x_cols=[], z_cols=["z1", "z2"], y_col="y",
        quantile_levels=[0.25, 0.5, 0.75],
    )
    reports = run_forecast(table, config, threads=2)
    assert [r.n_forecasts for r in reports] == [10, 10, 10]
    assert pools == [2]
