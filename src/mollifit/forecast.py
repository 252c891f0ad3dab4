"""Rolling-window out-of-sample prediction with robust losses.

The rows of a :class:`~mollifit.model.Dataset` are the periods in time
order.  Each forecast at time t fits the model on the ``window`` rows
immediately before t and predicts row t, under the fit options' loss or
each quantile level's; the benchmark is the loss-matched constant model
(mean, median, tau-quantile or Huber location) fitted on the same window.
Performance is summarized by the pseudo out-of-sample R-squared,
``1 - sum rho(model errors) / sum rho(benchmark errors)``, so positive
values mean the model beats the constant benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

# fit stays a module attribute for bench/tracing.py, which wraps it here.
from .estimate import FitOptions, fit, fit_many  # noqa: F401
from .exceptions import ConfigurationError, MollifitError
from .losses import LossKind, LossSpec, eval_loss, sample_size_order, subgrad
from .model import Dataset, ModelSpec, ParamLayout, regression_mean
from .parallel import parallel_map


@dataclass
class ForecastConfig:
    window: int
    model: ModelSpec
    fit_options: FitOptions
    quantile_levels: list[float] | None = None

    def __post_init__(self):
        P = ParamLayout(self.model).size
        if self.window < P + 5:
            raise ConfigurationError(
                f"window must be at least {P + 5} for {P} parameters"
            )
        # An order that overflows would fail every window's fit.
        sample_size_order(self.window, self.fit_options.m_epsilon)
        # A repeated level would fit every window again for the same row.
        levels = self.quantile_levels or []
        if len(set(levels)) < len(levels):
            raise ConfigurationError(
                f"quantile levels must be distinct, got {', '.join(map(str, levels))}")


@dataclass
class ForecastReport:
    window: int
    loss_label: str
    tau: float | None
    pr2: float
    n_forecasts: int
    fallback_count: int
    pred_errors: np.ndarray = field(repr=False, default=None)
    bench_errors: np.ndarray = field(repr=False, default=None)


def constant_predictor(y: np.ndarray, loss: LossSpec) -> float:
    """Location value minimizing sum rho(y - mu) for the given loss."""
    y = np.asarray(y, dtype=float)
    if loss.kind is LossKind.SQUARED_ERROR:
        return float(np.mean(y))
    if loss.kind is LossKind.LAD:
        return float(np.median(y))
    if loss.kind is LossKind.QUANTILE:
        return float(np.quantile(y, loss.param, method="inverted_cdf"))
    # Huber location: root of the monotone score sum psi_c(y - mu).  Imported
    # here for the same reason as in ``dgp.law_quantile``.
    from scipy.optimize import brentq

    lo, hi = float(np.min(y)), float(np.max(y))
    if lo == hi:
        return lo
    score = lambda mu: float(np.sum(subgrad(loss, y - mu)))
    return float(brentq(score, lo, hi, xtol=1e-12))


def _prediction(model: ModelSpec, res, x, z):
    """The fitted mean at one row, or None if the fit failed or it is not finite."""
    if isinstance(res, MollifitError):
        return None
    try:
        yhat = regression_mean(model, res.params, x, z)
    except MollifitError:
        return None
    return yhat if np.isfinite(yhat) else None


def _options(task):
    return task[0]


def _forecast_chunk(data: Dataset, config, tasks) -> list:
    """(model error, benchmark error, fallback flag) per ``(opts, t)`` task.

    The tasks share one set of options, and their fits one :func:`fit_many`
    call over their windows, the ``window`` rows before each origin t.
    """
    opts = _options(tasks[0])
    w = config.window
    ts = [t for _, t in tasks]
    y, X, Z = data.y, data.X, data.Z
    windows = [Dataset(y=y[t - w : t], X=X[t - w : t], Z=Z[t - w : t]) for t in ts]
    out = []
    for t, window, res in zip(ts, windows, fit_many(config.model, windows, opts)):
        bench = constant_predictor(window.y, opts.loss)
        yhat = _prediction(config.model, res, X[t], Z[t])
        fallback = yhat is None
        out.append((y[t] - (bench if fallback else yhat), y[t] - bench, fallback))
    return out


def _rolling_forecasts(data: Dataset, config: ForecastConfig, losses, threads: int):
    """``(pred_errors, bench_errors, fallback_count)`` per loss.

    Every (loss, window) fit is independent, so all of them go through one
    parallel map, cut into chunks within a loss; each error series is
    assembled in time order.
    """
    T = data.n
    w = config.window
    if T <= w:
        raise ConfigurationError(f"need more than window={w} rows, got {T}")
    tasks = []
    for loss in losses:
        opts = replace(config.fit_options, loss=loss)
        tasks.extend((opts, t) for t in range(w, T))
    rows = parallel_map(
        partial(_forecast_chunk, data, config), tasks, threads, key=_options
    )
    out = []
    for k in range(len(losses)):
        part = rows[k * (T - w) : (k + 1) * (T - w)]
        out.append(
            (
                np.array([r[0] for r in part]),
                np.array([r[1] for r in part]),
                sum(r[2] for r in part),
            )
        )
    return out


def rolling_forecast(data: Dataset, config: ForecastConfig, threads: int = 1):
    """One-step-ahead rolling forecasts of ``data``, under the fit options' loss.

    Returns ``(pred_errors, bench_errors, fallback_count)``; a window whose model
    fit fails falls back to the benchmark forecast and is counted.  Window
    fits are independent, so they may run on several workers; the error
    series is assembled in time order either way.
    """
    return _rolling_forecasts(data, config, [config.fit_options.loss], threads)[0]


def pseudo_r2(pred_errors, bench_errors, loss: LossSpec) -> float:
    """1 - sum rho(pred errors) / sum rho(benchmark errors).

    Equals 1 for perfect forecasts, 0 when the model matches the benchmark,
    negative when it does worse.
    """
    pred_errors = np.asarray(pred_errors, dtype=float)
    bench_errors = np.asarray(bench_errors, dtype=float)
    if pred_errors.size != bench_errors.size or pred_errors.size == 0:
        raise ConfigurationError("error series must have equal positive length")
    denom = float(np.sum(eval_loss(loss, bench_errors)))
    if denom <= 0.0:
        raise ConfigurationError(
            "benchmark loss sum is zero; pseudo R2 undefined"
        )
    return 1.0 - float(np.sum(eval_loss(loss, pred_errors))) / denom


def run_forecast(data: Dataset, config: ForecastConfig, threads: int = 1) -> list[ForecastReport]:
    """Forecast reports for the fit options' loss or each quantile level."""
    if config.quantile_levels:
        losses = [LossSpec(LossKind.QUANTILE, tau) for tau in config.quantile_levels]
    else:
        losses = [config.fit_options.loss]
    reports = []
    for loss, (pred, bench, fb) in zip(
        losses, _rolling_forecasts(data, config, losses, threads)
    ):
        reports.append(
            ForecastReport(
                window=config.window,
                loss_label=loss.label(),
                tau=loss.param if loss.kind is LossKind.QUANTILE else None,
                pr2=pseudo_r2(pred, bench, loss),
                n_forecasts=pred.size,
                fallback_count=fb,
                pred_errors=pred,
                bench_errors=bench,
            )
        )
    return reports


def report_csv(reports: list[ForecastReport]) -> str:
    """Summary CSV: window,loss,tau,pr2,n_forecasts,fallback_count."""
    lines = ["window,loss,tau,pr2,n_forecasts,fallback_count"]
    for r in reports:
        tau = f"{r.tau:.17g}" if r.tau is not None else ""
        lines.append(
            f"{r.window},{r.loss_label},{tau},{r.pr2:.17g},{r.n_forecasts},{r.fallback_count}"
        )
    return "\n".join(lines) + "\n"


def error_dump_csv(report: ForecastReport, dates=None) -> str:
    """Per-forecast error dump: t,date,pred_err,bench_err."""
    lines = ["t,date,pred_err,bench_err"]
    for i in range(report.n_forecasts):
        date = "" if dates is None else str(dates[i])
        lines.append(
            f"{i + 1},{date},{report.pred_errors[i]:.17g},{report.bench_errors[i]:.17g}"
        )
    return "\n".join(lines) + "\n"
