import concurrent.futures
import math

import numpy as np
import pytest

import mollifit.parallel as parallel
from mollifit import estimate, montecarlo
from mollifit.dgp import ErrorLaw
from mollifit.estimate import FitOptions
from mollifit.forecast import ForecastConfig, run_forecast
from mollifit.losses import LAD, huber_loss, quantile_loss
from mollifit.model import IDENTITY, Dataset, ModelSpec
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


@pytest.fixture
def serial_pool(monkeypatch):
    """Runs the helper's chunks in this process, in order."""

    class SerialPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", SerialPool)


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


def test_serial_parallel_map_calls_once_per_key_run(pools):
    # Runs of equal key, one key repeated after another run: three runs.
    items = [(0, i) for i in range(3)] + [(1, 0)] + [(0, i) for i in range(3, 7)]
    calls = []

    def recording(chunk):
        calls.append(chunk)
        return _tagged(chunk)

    out = parallel_map(recording, items, 1, key=lambda item: item[0])
    assert pools == []
    assert [item for _, _, item in out] == items
    assert calls == [items[:3], items[3:4], items[4:]]


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_map_cuts_chunks_within_runs_of_equal_key(pools, workers):
    lengths = [7, 12, 5]
    items = [(run, i) for run, n in enumerate(lengths) for i in range(n)]
    out = parallel_map(_tagged, items, workers, key=lambda item: item[0])
    assert pools == [workers]
    assert [item for _, _, item in out] == items
    # A chunk is named by its first item; each holds items of one run only.
    assert all(first[0] == item[0] for first, _, item in out)
    chunks = sorted({(first, n) for first, n, _ in out})
    parts = math.ceil(workers * parallel.CHUNKS_PER_WORKER / len(lengths))
    for run, n in enumerate(lengths):
        mine = [size for first, size in chunks if first[0] == run]
        # Chunks of ceil(n / parts) items, the last one fewer: a short run
        # can come out in fewer than parts chunks.
        size = math.ceil(n / parts)
        assert len(mine) == math.ceil(n / size) <= parts
        assert mine[:-1] == [size] * (len(mine) - 1)
        assert sum(mine) == n


def test_monte_carlo_fits_both_laws_of_a_chunk_in_one_call(serial_pool, monkeypatch):
    # 2 losses x 4 sample sizes are 8 runs, as many as 2 workers' chunks,
    # so each chunk is one (loss, n) with the replications of both laws.
    law_of = {}
    calls = []
    gen, fit_many = montecarlo.gen_example, montecarlo.fit_many

    def recording_gen(example, n, law, *args, **kwargs):
        out = gen(example, n, law, *args, **kwargs)
        law_of[id(out[0])] = law
        return out

    def recording_fit_many(model, datasets, opts):
        calls.append((opts.loss, [d.n for d in datasets], [law_of[id(d)] for d in datasets]))
        return fit_many(model, datasets, opts)

    monkeypatch.setattr(montecarlo, "gen_example", recording_gen)
    monkeypatch.setattr(montecarlo, "fit_many", recording_fit_many)
    hub = huber_loss(1.25)
    config = McConfig(
        example="ex51", n_list=[50, 60, 70, 80], reps=2, losses=[hub, LAD],
        laws=[ErrorLaw.NORMAL, ErrorLaw.T2], base_seed=3,
        fit_options=FitOptions(loss=hub), threads=2,
    )
    run_replications(config)
    both = [ErrorLaw.NORMAL] * 2 + [ErrorLaw.T2] * 2
    assert calls == [(loss, [n] * 4, both) for loss in (hub, LAD) for n in (50, 60, 70, 80)]


def test_harnesses_compute_no_inference(monkeypatch):
    # Every inference estimates a1, and Sigma-hat for a stationary block;
    # the optimizer calls neither.
    calls = []

    def counted(name):
        inner = getattr(estimate, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(estimate, name, wrapper)

    counted("estimate_a1")
    counted("estimate_sigma")
    hub = huber_loss(1.25)
    run_replications(McConfig(
        example="ex51", n_list=[50], reps=2, losses=[hub], laws=[ErrorLaw.NORMAL],
        base_seed=3, fit_options=FitOptions(loss=hub), threads=1,
    ))
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((36, 2))
    data = Dataset(y=Z @ [1.0, -0.5] + 0.3 * rng.standard_normal(36), X=np.zeros((36, 1)), Z=Z)
    run_forecast(data, ForecastConfig(
        window=30, model=ModelSpec((), (IDENTITY,), 1, 2), fit_options=FitOptions(loss=hub),
    ), threads=1)
    assert calls == []


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
    data = Dataset(y=Z @ [1.0, -0.5] + 0.3 * rng.standard_normal(40), X=np.zeros((40, 1)), Z=Z)
    config = ForecastConfig(
        window=30, model=ModelSpec((), (IDENTITY,), 1, 2),
        fit_options=FitOptions(loss=quantile_loss(0.5)), quantile_levels=[0.25, 0.5, 0.75],
    )
    reports = run_forecast(data, config, threads=2)
    assert [r.n_forecasts for r in reports] == [10, 10, 10]
    assert pools == [2]
