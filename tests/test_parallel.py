import concurrent.futures
import math

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


def _tagged(chunk):
    """Each item of a chunk with the chunk's first item and length."""
    return [(chunk[0], len(chunk), item) for item in chunk]


def test_parallel_map_keeps_input_order(pools):
    items = list(range(37))
    one = parallel_map(_tagged, items, 1)
    assert one == [(0, 37, i) for i in items]
    assert pools == []
    two = parallel_map(_tagged, items, 2)
    assert pools == [2]
    assert [item for _, _, item in two] == items
    size = math.ceil(37 / (2 * parallel.CHUNKS_PER_WORKER))
    # Chunk k holds items k*size .. k*size + size - 1, the last one fewer.
    assert [(first, n) for first, n, _ in two] == [
        (i - i % size, min(size, 37 - (i - i % size))) for i in items
    ]
    assert parallel_map(_tagged, [], 2) == []
    assert parallel_map(_tagged, [5], 2) == [(5, 1, 5)]
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
