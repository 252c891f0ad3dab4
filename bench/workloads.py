"""Workloads of the mollifit benchmark.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Inputs are made from the seed alone,
the program receives only those inputs, and every output is checked.

* ``fit-small``: serial ``fit()`` calls with the default 8-start global
  search, ex51/ex52 at n = 200 and 1000.
* ``fit-large``: serial truth-anchored single-start ``fit()`` calls (the
  Monte Carlo protocol), ex51 at n = 50 000.
* ``cli-batch``: ``mollifit mc`` and then ``mollifit forecast`` through
  ``mollifit.cli.main`` on 2 workers, cycling over the run's input sets.

``run_workload`` times a run; ``trace_workload`` runs a fixed amount of work
once untraced and once traced and returns the per-layer metrics.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mollifit import cli, dgp, estimate
from mollifit.dgp import ErrorLaw
from mollifit.estimate import FitOptions
from mollifit.exceptions import MollifitError
from mollifit.losses import LAD, huber_loss, quantile_loss

from run import CLI_WORKERS
from tracing import Tracer, per_layer_metrics

# Independent input sets made, and timed, per run; setup_s is their median.
SETUPS = 3
# Forecast panels of a cli-batch run.  One panel sets the cost of every
# window of a forecast command, so a run cycles over several.  The mc table
# simulates a fresh dataset per replication and keeps the run's seed.
CLI_SETS = 6
# Untraced repeats behind each wall time of a traced CLI run.
TRACE_REPEATS = 2
# Seed of the stored reference estimates.
REFERENCE_SEED = 1
REFERENCE_FILE = Path(__file__).with_name("reference.json")

LOSSES = {"lad": LAD, "huber:1.25": huber_loss(1.25), "quantile:0.3": quantile_loss(0.3)}
LAWS = (ErrorLaw.NORMAL, ErrorLaw.T2)


@dataclass(frozen=True)
class FitWorkload:
    designs: tuple[str, ...]
    ns: tuple[int, ...]
    global_search: bool
    passes_per_setup: int


FIT_WORKLOADS = {
    "fit-small": FitWorkload(("ex51", "ex52"), (200, 1000), global_search=True, passes_per_setup=2),
    "fit-large": FitWorkload(("ex51",), (50_000,), global_search=False, passes_per_setup=2),
}

MC_CELL_REPS = 24
MC_ARGS = ["mc", "--example", "ex51", "--n", "100,200", "--reps", str(MC_CELL_REPS),
           "--losses", "l1,l2,l3", "--laws", "d1,d3"]
MC_CELLS = 2 * 3 * 2
MC_REPS = MC_CELLS * MC_CELL_REPS
PANEL_ROWS = 180
WINDOW = 120
LEVELS = (0.1, 0.5, 0.9)
FORECAST_WINDOWS = len(LEVELS) * (PANEL_ROWS - WINDOW)

WORKLOADS = (*FIT_WORKLOADS, "cli-batch")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass
class Outcome:
    """What one run measured: samples, counts and checks."""

    items: int = 0
    # Items the program gave no result for: a fit that raised, a replication
    # the table excludes, a window that fell back, a command that failed.
    failed: int = 0
    # Fits that returned an estimate with converged=False.
    nonconverged: int = 0
    wrong: int = 0
    # Wall time of each fit (fit workloads) or command pair (cli-batch).
    latencies: list = field(default_factory=list)
    # Wall time of each command of the pairs, by command (cli-batch).
    command_walls: dict = field(default_factory=dict)
    items_per_sample: int = 1
    setup: list = field(default_factory=list)


# ---------------------------------------------------------------- fit workloads


@dataclass
class FitItem:
    example: str
    n: int
    loss: str
    law: ErrorLaw
    data: object
    model: object
    truth: object

    @property
    def key(self) -> str:
        return f"{self.example}-n{self.n}-{self.loss}-{self.law.value}"


def fit_cases(spec: FitWorkload):
    return [(ex, n, loss, law) for ex in spec.designs for n in spec.ns for loss in LOSSES for law in LAWS]


def make_item(example: str, n: int, loss: str, law: ErrorLaw, rng) -> FitItem:
    """Simulated dataset of one case; quantile-loss errors are recentred at tau."""
    tau = LOSSES[loss].param if loss.startswith("quantile") else None
    data, model, truth = dgp.gen_example(example, n, law, rng, recenter_tau=tau)
    return FitItem(example, n, loss, law, data, model, truth)


def make_passes(spec: FitWorkload, seed: int, setup: int) -> list[list[FitItem]]:
    """One input set: ``passes_per_setup`` passes, one dataset per case each."""
    return [
        [make_item(*case, _rng(seed, setup, p, ci)) for ci, case in enumerate(fit_cases(spec))]
        for p in range(spec.passes_per_setup)
    ]


def first_pass(spec: FitWorkload, seed: int) -> list[FitItem]:
    """The first pass of a seed's first input set: one dataset per case."""
    return make_passes(replace(spec, passes_per_setup=1), seed, 0)[0]


def fit_one(spec: FitWorkload, item: FitItem):
    opts = FitOptions(loss=LOSSES[item.loss])
    if not spec.global_search:
        opts = replace(opts, init_params=item.truth, multistart=1)
    return estimate.fit(item.model, item.data, opts)


def _oracle_mean(example: str, p, X, Z):
    """Regression mean of the two packaged designs, written out directly."""
    stat = p.gamma2[0] * (Z @ p.theta2[0])
    if example == "ex51":
        return p.gamma1[0] * (X @ p.theta1[0]) + p.gamma1[1] * (X @ p.theta1[1]) ** 2 + stat
    u = X @ p.theta1[0]
    return p.gamma1[0] * np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) + stat


def fit_problems(item: FitItem, res) -> list[str]:
    """Checks on one fit: residuals, index normalisation, descent."""
    out = []
    d = item.data
    expect = d.y - _oracle_mean(item.example, res.params, d.X, d.Z)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(d.y))))
    if res.residuals.shape != expect.shape or not np.all(np.abs(res.residuals - expect) <= tol):
        out.append("residuals differ from y - mean(params)")
    for theta in [*res.params.theta1, *res.params.theta2]:
        lead = theta[np.abs(theta) > 1e-12]
        if abs(float(np.linalg.norm(theta)) - 1.0) > 1e-9 or lead.size == 0 or lead[0] <= 0:
            out.append("index vector not unit-norm with a positive lead")
    if not res.objective <= 0.0:
        out.append("objective above the start value")
    return out


def pack(params) -> np.ndarray:
    return np.concatenate([*params.theta1, params.gamma1, *params.theta2, params.gamma2])


def warm_up(spec: FitWorkload, seed: int):
    """Fits on small data so lazy initialisation is not timed."""
    for ci, (ex, loss) in enumerate((ex, loss) for ex in spec.designs for loss in LOSSES):
        fit_one(spec, make_item(ex, 200, loss, ErrorLaw.NORMAL, _rng(seed, SETUPS, 0, ci)))


def _timed_fit(spec, item):
    t0 = time.perf_counter()
    try:
        res = fit_one(spec, item)
    except MollifitError:
        res = None
    return res, time.perf_counter() - t0


def _score_fit(item: FitItem, res, out: Outcome):
    out.items += 1
    if res is None:
        out.failed += 1
        return
    out.nonconverged += not res.converged
    out.wrong += bool(fit_problems(item, res))


def run_fit(name: str, seed: int, seconds: float, import_s: float) -> Outcome:
    spec = FIT_WORKLOADS[name]
    out = Outcome()
    passes = []
    for s in range(SETUPS):
        t0 = time.perf_counter()
        passes += make_passes(spec, seed, s)
        out.setup.append(import_s + time.perf_counter() - t0)
    warm_up(spec, seed)
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for item in passes[k % len(passes)]:
            res, dt = _timed_fit(spec, item)
            out.latencies.append(dt)
            _score_fit(item, res, out)
        k += 1
    return out


def load_reference(name: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[name]


def reference_estimates(name: str) -> dict:
    """Packed estimates on the first pass of the reference seed's input set."""
    spec = FIT_WORKLOADS[name]
    items = first_pass(spec, REFERENCE_SEED)
    return {item.key: pack(fit_one(spec, item).params) for item in items}


def trace_fits(spec: FitWorkload, items: list[FitItem], tracer: Tracer):
    """Fit the items untraced, then traced; (outcome, untraced s, traced s)."""
    plain = sum(_timed_fit(spec, item)[1] for item in items)
    out = Outcome()
    traced = 0.0
    with tracer.installed():
        for i, item in enumerate(items):
            tracer.request = i + 1
            res, dt = _timed_fit(spec, item)
            traced += dt
            _score_fit(item, res, out)
    return out, plain, traced


def trace_fit(name: str, seed: int):
    spec = FIT_WORKLOADS[name]
    tracer = Tracer()
    with tracer.installed():
        items = first_pass(spec, seed)
    warm_up(spec, seed)
    out, plain, traced = trace_fits(spec, items, tracer)
    ref = load_reference(name)
    drift = 0.0
    for key, est in reference_estimates(name).items():
        drift = max(drift, float(np.max(np.abs(est - np.asarray(ref[key])))))
    metrics = per_layer_metrics(tracer.spans, {}, drift, 100.0 * (traced / plain - 1.0))
    return out, metrics, tracer


# ---------------------------------------------------------------- CLI workloads


def write_panel(path: Path, seed: int, setup: int):
    """Panel with unit-root x1,x2, trending-stationary z1,z2 and t2 errors."""
    rng = _rng(seed, setup)
    T = PANEL_ROWS
    x = np.cumsum(rng.standard_normal((T, 2)) * [0.2, 0.5], axis=0)
    shocks = rng.standard_normal((T + 200, 2))
    v = np.zeros_like(shocks)
    for t in range(1, T + 200):
        v[t] = 0.5 * v[t - 1] + shocks[t]
    z = v[200:] + (np.arange(1, T + 1) / T)[:, None]
    y = x @ [0.3, 0.3] + z @ [0.5, -0.5] + 0.5 * rng.standard_t(2, T)
    rows = ["y,x1,x2,z1,z2"]
    rows += [",".join(f"{v:.17g}" for v in (y[t], *x[t], *z[t])) for t in range(T)]
    path.write_text("\n".join(rows) + "\n")


def mc_argv(seed: int, workers: int, out: Path) -> list[str]:
    return [*MC_ARGS, "--seed", str(seed), "--threads", str(workers), "--out", str(out)]


def forecast_argv(panel: Path, workers: int, out: Path) -> list[str]:
    return ["forecast", "--data", str(panel), "--window", str(WINDOW),
            "--x-cols", "x1,x2", "--z-cols", "z1,z2", "--y-col", "y",
            "--quantiles", ",".join(str(q) for q in LEVELS),
            "--threads", str(workers), "--out", str(out), "--dump", str(out) + ".dump"]


class CliJob:
    """One CLI command kind: its inputs, its argv and its output checks."""

    def __init__(self, kind: str, seed: int, workdir: Path):
        self.kind = kind
        self.seed = seed
        self.workdir = workdir
        self.items = MC_REPS if kind == "mc" else FORECAST_WINDOWS
        self.pool = "montecarlo" if kind == "mc" else "forecast"

    def panel(self, s: int) -> Path:
        return self.workdir / f"panel-{s}.csv"

    def input_key(self, s: int) -> tuple[str, int]:
        """Key of the input the command reads on input set ``s``."""
        return self.kind, s if self.kind == "forecast" else 0

    def setup(self, s: int):
        """Make input set ``s``; ``mc`` simulates its own data from the seed."""
        if self.kind == "forecast":
            write_panel(self.panel(s), self.seed, s)

    def argv(self, s: int, workers: int, out: Path) -> list[str]:
        if self.kind == "mc":
            return mc_argv(self.seed, workers, out)
        return forecast_argv(self.panel(s), workers, out)

    def run(self, s: int, workers: int, tag: str):
        """(exit code, wall seconds, output bytes) of one command on input set ``s``."""
        out = self.workdir / f"{self.kind}-{s}-{tag}.csv"
        t0 = time.perf_counter()
        code = cli.main(self.argv(s, workers, out))
        wall = time.perf_counter() - t0
        files = [out] if self.kind == "mc" else [out, Path(str(out) + ".dump")]
        blob = b"\0".join(f.read_bytes() if f.exists() else b"" for f in files)
        return code, wall, blob

    def lost(self, blob: bytes) -> int:
        """Failed replications or fallback windows reported in an output."""
        text = blob.split(b"\0")[0].decode()
        rows = list(csv.DictReader(io.StringIO(text)))
        if self.kind == "mc":
            cells = {(r["loss"], r["law"], r["n"]): int(r["failures"]) for r in rows}
            return sum(cells.values())
        return sum(int(r["fallback_count"]) for r in rows)

    def problems(self, blob: bytes, reference: bytes) -> list[str]:
        """Checks on one output against a reference output of the same input."""
        out = []
        if blob != reference:
            out.append("output differs from the reference run")
        parts = blob.split(b"\0")
        rows = list(csv.DictReader(io.StringIO(parts[0].decode())))
        if self.kind == "mc":
            cells = {(r["loss"], r["law"], r["n"]) for r in rows}
            params = {r["param"] for r in rows}
            if len(cells) != MC_CELLS or len(rows) != MC_CELLS * len(params) or any(
                int(r["reps_used"]) + int(r["failures"]) != MC_CELL_REPS for r in rows
            ):
                out.append("Monte Carlo table has the wrong shape")
            if not all(math.isfinite(float(r["mse"])) for r in rows):
                out.append("Monte Carlo table has non-finite cells")
            return out
        if [float(r["tau"]) for r in rows] != list(LEVELS) or any(
            int(r["n_forecasts"]) != PANEL_ROWS - WINDOW for r in rows
        ):
            out.append("forecast report has the wrong shape")
            return out
        dump = list(csv.DictReader(io.StringIO(parts[1].decode())))
        # The dump holds the first level's errors; rho_tau(u) = u (tau - 1{u < 0}).
        tau = LEVELS[0]
        pred = np.array([float(r["pred_err"]) for r in dump])
        bench = np.array([float(r["bench_err"]) for r in dump])
        pr2 = 1.0 - float(np.sum(pred * (tau - (pred < 0)))) / float(np.sum(bench * (tau - (bench < 0))))
        if abs(pr2 - float(rows[0]["pr2"])) > 1e-12 * max(1.0, abs(pr2)):
            out.append("pseudo-R2 differs from a recomputation from the dumped errors")
        return out


def cli_jobs(seed: int, workdir: Path) -> list[CliJob]:
    return [CliJob("mc", seed, workdir), CliJob("forecast", seed, workdir)]


def run_cli(seed: int, seconds: float, import_s: float, workdir: Path) -> Outcome:
    """Timed ``mc`` + ``forecast`` command pairs; one latency sample per pair.

    The pairs cycle over the run's input sets, so one input's cost does not
    set a run's figures.  The 1-worker run of the first set goes first, as
    the reference of its inputs and as a warm-up of the fit path; on a
    forecast panel of another set, each output must equal the first
    2-worker output on that panel.
    """
    jobs = cli_jobs(seed, workdir)
    out = Outcome()
    for s in range(CLI_SETS):
        t0 = time.perf_counter()
        for job in jobs:
            job.setup(s)
        out.setup.append(import_s + time.perf_counter() - t0)
    out.items_per_sample = sum(job.items for job in jobs)
    references = {job.input_key(0): job.run(0, 1, "w1") for job in jobs}
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        s = len(pairs) % CLI_SETS
        pairs.append((s, [job.run(s, CLI_WORKERS, f"w{CLI_WORKERS}-{len(pairs)}") for job in jobs]))
    for s, pair in pairs:
        out.latencies.append(sum(wall for _, wall, _ in pair))
        for job, (code, wall, blob) in zip(jobs, pair):
            code1, _, reference = references.setdefault(job.input_key(s), (code, wall, blob))
            out.command_walls.setdefault(job.kind, []).append(wall)
            out.items += job.items
            if code != 0 or code1 != 0:
                out.failed += job.items
                continue
            out.failed += job.lost(blob)
            out.wrong += bool(job.problems(blob, reference))
    return out


def trace_cli(seed: int, workdir: Path):
    tracer = Tracer()
    out = Outcome()
    pools = {}
    plain = traced = 0.0
    for request, job in enumerate(cli_jobs(seed, workdir), 1):
        job.setup(0)
        walls = {1: [], CLI_WORKERS: []}
        blobs, codes = {}, []
        for r in range(TRACE_REPEATS):
            for w in walls:
                code, wall, blobs[w] = job.run(0, w, f"w{w}-{r}")
                codes.append(code)
                walls[w].append(wall)
        with tracer.installed():
            tracer.request = request
            code, wall, blob = job.run(0, 1, "traced")
        codes.append(code)
        out.items += job.items
        if any(codes):
            out.failed += job.items
        else:
            out.failed += job.lost(blob)
            out.wrong += bool(job.problems(blob, blobs[1]) + job.problems(blobs[CLI_WORKERS], blobs[1]))
        w1 = statistics.median(walls[1])
        plain += w1
        traced += wall
        pools[job.pool] = (job.items, w1, statistics.median(walls[CLI_WORKERS]))
    metrics = per_layer_metrics(tracer.spans, pools, 0.0, 100.0 * (traced / plain - 1.0))
    return out, metrics, tracer


def run_workload(name: str, seed: int, seconds: float, import_s: float, workdir: Path) -> Outcome:
    if name in FIT_WORKLOADS:
        return run_fit(name, seed, seconds, import_s)
    return run_cli(seed, seconds, import_s, workdir)


def trace_workload(name: str, seed: int, workdir: Path):
    """(outcome, per-layer metrics, tracer) of the workload's traced pass."""
    if name in FIT_WORKLOADS:
        return trace_fit(name, seed)
    return trace_cli(seed, workdir)
