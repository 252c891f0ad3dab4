import numpy as np
import pytest

from mollifit.dgp import ErrorLaw
from mollifit.estimate import FitOptions
from mollifit.exceptions import ConfigurationError, UndefinedRateError
from mollifit.losses import LAD, SQUARED_ERROR, huber_loss
from mollifit.montecarlo import (
    CSV_HEADER,
    McCell,
    McConfig,
    McTable,
    rate_exponent,
    run_replications,
    summarize,
)

HUB = huber_loss(1.25)


def _config(**kw):
    base = dict(
        example="ex51",
        n_list=[50],
        reps=4,
        losses=[HUB],
        laws=[ErrorLaw.NORMAL],
        base_seed=7,
        fit_options=FitOptions(loss=HUB),
    )
    base.update(kw)
    return McConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        _config(reps=1)
    with pytest.raises(ConfigurationError):
        _config(n_list=[100, 50])
    with pytest.raises(ConfigurationError):
        _config(losses=[])


def test_config_rejects_repeated_entries():
    # Repeated sample sizes, losses or laws would repeat table rows.
    with pytest.raises(ConfigurationError, match="n_list"):
        _config(n_list=[50, 50])
    with pytest.raises(ConfigurationError, match="losses"):
        _config(losses=[HUB, huber_loss(1.25)])
    with pytest.raises(ConfigurationError, match="laws"):
        _config(laws=[ErrorLaw.NORMAL, ErrorLaw.T2, ErrorLaw.NORMAL])


def test_zero_noise_squared_error_recovery():
    # Near-zero noise and square loss: every parameter is recovered
    # essentially exactly.
    cfg = _config(
        losses=[SQUARED_ERROR],
        fit_options=FitOptions(loss=SQUARED_ERROR),
        reps=2,
        error_scale=1e-8,
    )
    table = run_replications(cfg)
    for pname in table.param_names:
        cell = table.get(pname, "se", "normal", 50)
        assert cell.reps_used == 2
        assert cell.mse < 1e-8


def test_reproducibility_bitwise():
    a = summarize(run_replications(_config()), "csv")
    b = summarize(run_replications(_config()), "csv")
    assert a == b
    c = summarize(run_replications(_config(base_seed=8)), "csv")
    assert a != c


def test_threads_do_not_change_results():
    a = summarize(run_replications(_config(threads=1)), "csv")
    b = summarize(run_replications(_config(threads=2)), "csv")
    # 3 workers share the 4 one-replication chunks unevenly.
    c = summarize(run_replications(_config(threads=3)), "csv")
    assert a == b == c


def test_mse_identity():
    table = run_replications(_config(reps=6))
    for cell in table.cells.values():
        k = cell.reps_used
        assert cell.mse == pytest.approx(
            cell.bias**2 + cell.sd**2 * (k - 1) / k, abs=1e-12
        )


def test_failures_counted_not_dropped():
    # One Newton iteration cannot reach the step tolerance on noisy data,
    # so every replication fails.
    cfg = _config(fit_options=FitOptions(loss=HUB, max_iter=1), reps=4)
    table = run_replications(cfg)
    cell = table.get("gamma1", "huber:1.25", "normal", 50)
    assert cell.failures == 4
    assert cell.reps_used == 0
    assert np.isnan(cell.mse)


def test_summarize_single_cell_and_scale():
    table = McTable(
        param_names=["gamma1"], loss_labels=["lad"], law_tokens=["normal"], n_list=[100]
    )
    table.cells[("gamma1", "lad", "normal", 100)] = McCell(
        bias=0.001, sd=0.04647, mse=0.00216, reps_used=500, failures=0
    )
    text = summarize(table, "csv", scale=100.0)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    rendered = lines[1].split(",")[6]
    assert rendered == "0.216"
    assert float(rendered) == 0.00216 * 100.0
    # Markdown carries identical numbers.
    md = summarize(table, "markdown", scale=100.0)
    assert rendered in md


def test_summarize_formats_and_empty():
    with pytest.raises(ConfigurationError):
        summarize(McTable([], [], [], []), "csv")
    with pytest.raises(ConfigurationError):
        summarize(run_replications(_config()), "html")


def test_summarize_csv_markdown_same_numbers():
    table = run_replications(_config())
    csv_rows = summarize(table, "csv").strip().splitlines()[1:]
    md_rows = summarize(table, "markdown").strip().splitlines()[2:]
    for c, m in zip(csv_rows, md_rows):
        assert c.split(",") == [tok.strip() for tok in m.strip("|").split("|")]


def test_rate_exponent_arithmetic():
    table = McTable(["p"], ["lad"], ["normal"], [100, 200])
    table.cells[("p", "lad", "normal", 100)] = McCell(0, 0.02, 4e-4, 500, 0)
    table.cells[("p", "lad", "normal", 200)] = McCell(0, 0.01, 1e-4, 500, 0)
    assert rate_exponent(table, "p", "lad", "normal", (100, 200)) == pytest.approx(2.0)
    table.cells[("p", "lad", "normal", 200)] = McCell(0, 0.0, 0.0, 500, 0)
    with pytest.raises(UndefinedRateError):
        rate_exponent(table, "p", "lad", "normal", (100, 200))


def test_summarize_rate_rows_are_unscaled_and_nan_where_undefined():
    table = McTable(["p", "q"], ["lad"], ["normal"], [100, 200, 400])
    for n, mse in ((100, 4e-4), (200, 1e-4), (400, 2.5e-5)):
        table.cells[("p", "lad", "normal", n)] = McCell(0.0, 0.01, mse, 500, 0)
        table.cells[("q", "lad", "normal", n)] = McCell(0.0, 0.0, 0.0 if n == 200 else mse, 500, 0)
    rate = [rate_exponent(table, "p", "lad", "normal", pair) for pair in ((100, 200), (200, 400))]
    assert rate == pytest.approx([2.0, 2.0])
    # The cells are scaled, the rates are not; a zero MSE leaves a rate undefined.
    text = summarize(table, "csv", scale=100.0, rate_params=["p", "q"])
    lines = text.splitlines()
    assert text.endswith(",,\n")
    assert len(lines) == 1 + 2 * 3 + 2 * 2
    assert lines[-4:] == [
        f"rate:p,lad,normal,100->200,,,{rate[0]:.17g},,",
        f"rate:p,lad,normal,200->400,,,{rate[1]:.17g},,",
        "rate:q,lad,normal,100->200,,,nan,,",
        "rate:q,lad,normal,200->400,,,nan,,",
    ]
    md_rows = summarize(table, "markdown", scale=100.0, rate_params=["p", "q"]).splitlines()[2:]
    assert [[tok.strip() for tok in m.strip("|").split("|")] for m in md_rows] == [
        line.split(",") for line in lines[1:]
    ]


def test_monotone_consistency_small():
    # MSE decreases with n for nearly all parameters (small-scale version
    # of the consistency diagnostic).
    cfg = _config(n_list=[50, 100], reps=120, losses=[HUB, LAD], threads=2)
    table = run_replications(cfg)
    ok = 0
    total = 0
    for loss in table.loss_labels:
        for pname in table.param_names:
            total += 1
            a = table.get(pname, loss, "normal", 50).mse
            b = table.get(pname, loss, "normal", 100).mse
            ok += a >= b
    assert ok / total >= 0.90


def test_distinct_cells_distinct_streams():
    cfg = _config(n_list=[50, 100], reps=2)
    table = run_replications(cfg)
    a = table.get("gamma1", "huber:1.25", "normal", 50)
    b = table.get("gamma1", "huber:1.25", "normal", 100)
    assert a.bias != b.bias


def test_ex51_gamma3_mse_matches_reference_level():
    # Homogeneous design, Huber/normal cell at n=100: the reference level
    # is 0.216e-2 and the replication band is +-50%.
    cfg = _config(n_list=[100], reps=200, threads=2)
    table = run_replications(cfg)
    mse = table.get("gamma3", "huber:1.25", "normal", 100).mse
    assert 0.5 * 0.00216 <= mse <= 1.5 * 0.00216


def test_table1_levels_across_losses_and_laws():
    # Reference stationary-coefficient levels at n=100 for the absolute and
    # check losses under normal and Cauchy errors (x 1e-2: LAD/normal
    # 0.308, check/normal 0.338, LAD/cauchy 0.652).  A 300-replication
    # sweep reproduces 23 reference cells within the +-50% band; this
    # condensed version guards the loss/law wiring.
    from mollifit.losses import quantile_loss

    cfg = _config(
        n_list=[100], reps=120,
        losses=[LAD, quantile_loss(0.3)],
        laws=[ErrorLaw.NORMAL, ErrorLaw.CAUCHY],
        threads=2,
        base_seed=31415,
    )
    table = run_replications(cfg)
    for loss, law, target in (
        ("lad", "normal", 0.00308),
        ("quantile:0.3", "normal", 0.00338),
        ("lad", "cauchy", 0.00652),
    ):
        mse = table.get("gamma3", loss, law, 100).mse
        assert 0.5 * target <= mse <= 1.5 * target, (loss, law, mse)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The reference MSE level for the integrable-design index (0.0048 at "
        "n=100) is not reproducible by minimizing the stated objective on "
        "the stated processes: the objective's global minimum sits far from "
        "the truth in roughly a third of replications at this sample size, "
        "and truth-anchored descent, one-step and three-step Newton-from-"
        "truth estimators all measure MSE(theta11) between 0.04 and 0.09."
    ),
)
def test_ex52_theta11_mse_matches_reference_level():
    cfg = _config(example="ex52", n_list=[100], reps=200, threads=2)
    table = run_replications(cfg)
    mse = table.get("theta11", "huber:1.25", "normal", 100).mse
    assert 0.5 * 0.0048 <= mse <= 1.5 * 0.0048
