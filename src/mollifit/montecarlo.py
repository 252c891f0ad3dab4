"""Monte Carlo replication harness for the packaged simulation designs.

Produces bias / standard deviation / mean-squared-error tables per
(parameter, loss, error law, sample size) cell and empirical MSE decay
exponents across sample sizes; :func:`summarize` renders both, the cells
and then the rates, as one CSV table written by :func:`mollifit.dgp.csv_text`,
or as that table in markdown.

Reproducibility contract: every (cell, replication) pair draws from its own
substream of the base seed, so the table is byte-identical for a given
McConfig regardless of the worker count.

Tasks run in (loss, n, law, replication) order, so the replications of
every error law of one (loss, n) are consecutive: ``parallel_map`` cuts
chunks within a (loss, n), never across two, and the fits of a (loss, n)
in a chunk share one :func:`fit_many` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .dgp import ErrorLaw, csv_text, example_model, gen_example, rng_for
# fit stays a module attribute for bench/tracing.py, which wraps it here.
from .estimate import FitOptions, fit, fit_many  # noqa: F401
from .exceptions import ConfigurationError, MollifitError, UndefinedRateError
from .losses import LossKind, LossSpec, sample_size_order
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
        # An order that overflows at the largest n would fail each of its fits.
        sample_size_order(self.n_list[-1], self.fit_options.m_epsilon)
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


def _loss_and_n(task):
    return task[0][:2]


def _replicate_chunk(config: McConfig, tasks) -> list:
    """Named estimation errors per ``(cell, rep)`` task, None where the fit failed.

    The tasks share one (loss, n), and their fits one :func:`fit_many` call.
    """
    loss, n = _loss_and_n(tasks[0])
    recenter = loss.param if loss.kind is LossKind.QUANTILE else None
    datasets = []
    for (_, _, law, key), rep in tasks:
        data, model, truth = gen_example(
            config.example, n, law, rng_for(config.base_seed, *key, rep),
            recenter_tau=recenter, error_scale=config.error_scale,
        )
        datasets.append(data)
    opts = replace(config.fit_options, loss=loss)
    if config.start_at_truth:
        opts = replace(opts, init_params=truth, multistart=1)
    layout = ParamLayout(model)
    return [
        layout.named_errors(res.params, truth)
        if not isinstance(res, MollifitError) and res.converged else None
        for res in fit_many(model, datasets, opts)
    ]


def run_replications(config: McConfig) -> McTable:
    """Full bias/sd/MSE table over all (loss, law, n) cells.

    Failed fits (exceptions or non-convergence) are counted in each cell's
    ``failures`` and excluded from its moments; the run continues.
    """
    model, _ = example_model(config.example)
    param_names = ParamLayout(model).param_names()
    table = McTable(
        param_names=param_names,
        loss_labels=[l.label() for l in config.losses],
        law_tokens=[l.value for l in config.laws],
        n_list=list(config.n_list),
    )
    # A cell's substream is keyed by its (law, loss, n) indices, whatever
    # the task order.
    cells = [
        (loss, n, law, (li, si, ni))
        for si, loss in enumerate(config.losses)
        for ni, n in enumerate(config.n_list)
        for li, law in enumerate(config.laws)
    ]
    tasks = [(cell, rep) for cell in cells for rep in range(config.reps)]
    results = parallel_map(
        partial(_replicate_chunk, config), tasks, config.threads, key=_loss_and_n
    )
    for c, (loss, n, law, _) in enumerate(cells):
        cell_results = results[c * config.reps : (c + 1) * config.reps]
        errors = [e for e in cell_results if e is not None]
        failures = config.reps - len(errors)
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
                failures=failures,
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


def _keys(table: McTable, params, sizes):
    """(param, loss, law, size) for each of ``params`` and ``sizes``, in table order."""
    for pname in params:
        for loss in table.loss_labels:
            for law in table.law_tokens:
                for size in sizes:
                    yield pname, loss, law, size


def summarize(table: McTable, format: str = "csv", scale: float = 1.0, rate_params=()) -> str:
    """Render the table deterministically as CSV or markdown.

    ``scale`` multiplies the bias, sd and mse columns (e.g. 100 to match a
    "values x 10^2" table convention).  After the cells come the MSE decay
    exponents of each of ``rate_params`` per loss, law and consecutive pair
    of sample sizes, as rows ``rate:<param>,<loss>,<law>,<a>-><b>`` with the
    unscaled rate in the mse column (nan where it is undefined).  The two
    formats carry identical numbers.
    """
    if not table.cells:
        raise ConfigurationError("cannot summarize an empty table")
    rows = []
    for pname, loss, law, n in _keys(table, table.param_names, table.n_list):
        cell = table.get(pname, loss, law, n)
        rows.append((pname, loss, law, n, cell.bias * scale, cell.sd * scale,
                     cell.mse * scale, cell.reps_used, cell.failures))
    pairs = list(zip(table.n_list, table.n_list[1:]))
    for pname, loss, law, (n_a, n_b) in _keys(table, rate_params, pairs):
        try:
            r = rate_exponent(table, pname, loss, law, (n_a, n_b))
        except UndefinedRateError:
            # A zero or missing MSE: nan, as the table writes an empty cell.
            r = float("nan")
        rows.append((f"rate:{pname}", loss, law, f"{n_a}->{n_b}", "", "", r, "", ""))
    names = CSV_HEADER.split(",")
    text = csv_text(names, rows)
    if format == "csv":
        return text
    if format == "markdown":
        # No parameter name, label, token or number holds a comma, so the
        # CSV's commas are exactly its cell boundaries.
        lines = ["| " + line.replace(",", " | ") + " |" for line in text.splitlines()]
        lines.insert(1, "|" + "|".join(["---"] * len(names)) + "|")
        return "\n".join(lines) + "\n"
    raise ConfigurationError(f"unknown summary format: {format!r}")
