"""Monte Carlo replication harness for the packaged simulation designs.

Produces bias / standard deviation / mean-squared-error tables per
(parameter, loss, error law, sample size) cell and empirical MSE decay
exponents across sample sizes.

Reproducibility contract: every (cell, replication) pair draws from its own
substream of the base seed, so the table is byte-identical for a given
McConfig regardless of the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby

import numpy as np

from .dgp import ErrorLaw, example_model, gen_example, rng_for
# fit stays a module attribute for bench/tracing.py, which wraps it here.
from .estimate import FitOptions, fit, fit_many  # noqa: F401
from .exceptions import ConfigurationError, MollifitError, UndefinedRateError
from .losses import LossKind, LossSpec
from .model import ParamLayout
from .parallel import parallel_map


@dataclass
class McConfig:
    example: str
    n_list: list[int]
    reps: int
    losses: list[LossSpec]
    laws: list[ErrorLaw]
    base_seed: int
    fit_options: FitOptions
    start_at_truth: bool = True
    error_scale: float = 0.5
    threads: int = 1

    def __post_init__(self):
        if self.reps < 2:
            raise ConfigurationError("need at least 2 replications")
        if not self.n_list or any(a >= b for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigurationError("n_list must be non-empty and strictly ascending")
        if not self.losses or not self.laws:
            raise ConfigurationError("need at least one loss and one error law")
        labels = [loss.label() for loss in self.losses]
        if len(set(labels)) < len(labels):
            raise ConfigurationError(f"losses must be distinct, got {', '.join(labels)}")
        if len(set(self.laws)) < len(self.laws):
            raise ConfigurationError(
                f"error laws must be distinct, got {', '.join(l.value for l in self.laws)}")


@dataclass
class McCell:
    bias: float
    sd: float
    mse: float
    reps_used: int
    failures: int
    flagged: bool = False


@dataclass
class McTable:
    """Cells keyed by (param_name, loss_label, law_token, n)."""

    param_names: list[str]
    loss_labels: list[str]
    law_tokens: list[str]
    n_list: list[int]
    cells: dict = field(default_factory=dict)

    def get(self, param: str, loss: str, law: str, n: int) -> McCell:
        return self.cells[(param, loss, law, n)]


def _replicate_chunk(config: McConfig, tasks) -> list:
    """Named estimation errors per ``(cell, rep)`` task, None where the fit failed.

    Consecutive tasks of one (loss, n) share one :func:`fit_many` call.
    """
    out = []
    for (loss, n), group in groupby(tasks, key=lambda task: task[0][1:3]):
        recenter = loss.param if loss.kind is LossKind.QUANTILE else None
        datasets = []
        for (law, _, _, key), rep in group:
            data, model, truth = gen_example(
                config.example, n, law, rng_for(config.base_seed, *key, rep),
                recenter_tau=recenter, error_scale=config.error_scale,
            )
            datasets.append(data)
        opts = replace(config.fit_options, loss=loss)
        if config.start_at_truth:
            opts = replace(opts, init_params=truth, multistart=1)
        layout = ParamLayout(model)
        for res in fit_many(model, datasets, opts):
            ok = not isinstance(res, MollifitError) and res.converged
            out.append(layout.named_errors(res.params, truth) if ok else None)
    return out


def run_replications(config: McConfig) -> McTable:
    """Full bias/sd/MSE table over all (loss, law, n) cells.

    Failed fits (exceptions or non-convergence) are counted and excluded
    from the moments; a cell with more than 20% failures is flagged but the
    run continues.
    """
    model, _ = example_model(config.example)
    param_names = ParamLayout(model).param_names()
    table = McTable(
        param_names=param_names,
        loss_labels=[l.label() for l in config.losses],
        law_tokens=[l.value for l in config.laws],
        n_list=list(config.n_list),
    )
    cells = [
        (law, loss, n, (li, si, ni))
        for li, law in enumerate(config.laws)
        for si, loss in enumerate(config.losses)
        for ni, n in enumerate(config.n_list)
    ]
    tasks = [(cell, rep) for cell in cells for rep in range(config.reps)]
    results = parallel_map(partial(_replicate_chunk, config), tasks, config.threads)
    for c, (law, loss, n, _) in enumerate(cells):
        cell_results = results[c * config.reps : (c + 1) * config.reps]
        errors = [e for e in cell_results if e is not None]
        failures = config.reps - len(errors)
        flagged = failures > 0.2 * config.reps
        for pname in param_names:
            vals = np.array([e[pname] for e in errors]) if errors else np.zeros(0)
            if vals.size:
                bias = float(np.mean(vals))
                sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
                mse = float(np.mean(vals * vals))
            else:
                bias = sd = mse = float("nan")
            table.cells[(pname, loss.label(), law.value, n)] = McCell(
                bias=bias, sd=sd, mse=mse, reps_used=vals.size,
                failures=failures, flagged=flagged,
            )
    return table


def rate_exponent(table: McTable, param: str, loss: str, law: str, n_pair) -> float:
    """Empirical MSE decay exponent between two sample sizes.

    Returns ``log(MSE_a / MSE_b) / log(n_b / n_a)``, which is about 2k for
    an n^{-k}-consistent estimator.
    """
    n_a, n_b = n_pair
    cell_a = table.get(param, loss, law, n_a)
    cell_b = table.get(param, loss, law, n_b)
    if not (cell_a.mse > 0.0) or not (cell_b.mse > 0.0):
        raise UndefinedRateError(
            f"rate for {param} undefined: zero or missing MSE in a cell"
        )
    return math.log(cell_a.mse / cell_b.mse) / math.log(n_b / n_a)


CSV_HEADER = "param,loss,law,n,bias,sd,mse,reps_used,failures"


def _iter_rows(table: McTable):
    for pname in table.param_names:
        for loss in table.loss_labels:
            for law in table.law_tokens:
                for n in table.n_list:
                    yield pname, loss, law, n, table.get(pname, loss, law, n)


def summarize(table: McTable, format: str = "csv", scale: float = 1.0) -> str:
    """Render the table deterministically as CSV or markdown.

    ``scale`` multiplies the bias, sd and mse columns (e.g. 100 to match a
    "values x 10^2" table convention).  The two formats carry identical
    numbers.
    """
    if not table.cells:
        raise ConfigurationError("cannot summarize an empty table")
    rows = []
    for pname, loss, law, n, cell in _iter_rows(table):
        rows.append(
            (
                pname, loss, law, str(n),
                f"{cell.bias * scale:.17g}",
                f"{cell.sd * scale:.17g}",
                f"{cell.mse * scale:.17g}",
                str(cell.reps_used),
                str(cell.failures),
            )
        )
    if format == "csv":
        return "\n".join([CSV_HEADER] + [",".join(r) for r in rows]) + "\n"
    if format == "markdown":
        header = CSV_HEADER.split(",")
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join(["---"] * len(header)) + "|",
        ]
        lines.extend("| " + " | ".join(r) + " |" for r in rows)
        return "\n".join(lines) + "\n"
    raise ConfigurationError(f"unknown summary format: {format!r}")
