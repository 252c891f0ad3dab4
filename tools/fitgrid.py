"""Dump and compare fits and CLI outputs, to check that a change keeps them bitwise.

The grid is ex51 and ex52; n 100, 200 and 1000; seeds 1, 7 and 2718; LAD,
Huber(1.25), quantile(0.3) and squared-error loss; the default global
search and a single start anchored at the simulation truth.  Each dataset
is ``gen_example(example, n, ErrorLaw.T2, rng_for(seed, 0))``, with the
errors recentred at tau for the quantile loss.

    PYTHONPATH=src python tools/fitgrid.py dump [--batched | --bench] OUT.npz
    PYTHONPATH=src python tools/fitgrid.py cli OUT_DIR
    python tools/fitgrid.py compare A.npz B.npz
    python tools/fitgrid.py compare A_DIR B_DIR

``dump`` fits the grid with the ``mollifit`` on the import path and writes
every ``FitResult`` field of every fit (``params`` packed, the descent trace
recorded) and every field of its ``infer`` (``a1_hat``, ``a2_hat``,
``sigma_hat``, ``stat_cov``), or, for a fit or an inference that raises,
its error type and message.  With ``--batched`` it fits through
``fit_many``, one call per (example, loss, protocol) over all n and seeds,
so the datasets of a call have mixed n; these arrays must equal the
serial dump's.  A second pass (keys
``cross-...``) repeats the truth-anchored calls at one job per lockstep
group, each dataset led by a zero-noise one on other regressors, so that
consecutive groups open at the same dataset number and iterate; each of
its noisy fits must equal the grid fit of its key.  The serial and
``--batched`` dumps also fit the eight samples of the scalar design
``y = z + e`` (no X block, one identity stationary term; ``z`` then ``e``
standard normal from ``default_rng(3000 + s)``) on which the final rung
refuses the first smoothed step and the fit goes on along the exact
subgradient (keys ``fallback-<loss>-n<n>-s<s>``): serially with ``fit``,
and under ``--batched`` with one ``fit_many`` per (loss, n); in the grid
one start takes an exact-score step, and its search refuses it.  They use
only the public API, so an older tree can be dumped with this script.
With ``--bench`` it fits, for seeds 1 and 2718 instead, every input set of
the benchmark's ``fit-small`` and ``fit-large`` workloads (each pass of
each set, keys ``<workload>-s<seed>-set<s>-pass<p>-...``), as the
benchmark makes and fits them (``bench/workloads.py``, normal and t2
errors, n up to 50 000).
``compare`` prints, for each dump, the fits that raised and the fits with
``converged=False``; it lists each fit and field whose dtype, shape or
bytes differ between two dumps, and exits 1 if there is any.  It then sums
up the differences against the gates of a change that is not bitwise: the
largest parameter move, the fits whose winning start or convergence flag
flipped, the fits whose iteration count changed (with both counts), and the
relative change of the final objective L_n (the last entry of the descent
trace): how many fits it rose and fell by more than 1e-9 and how many it
left equal, its median, its largest rise and its largest fall.

``cli`` runs ``mollifit mc`` and the 3-level ``mollifit forecast`` with the
arguments of the benchmark's ``cli-batch`` workload (``bench/workloads.py``)
for seeds 1 and 2718 at ``--threads`` 1 and 2, the forecast on the first
two of the workload's panels of each seed.  It then runs the commands that
reach the two root-finds: ``simulate`` and a small ``mc`` with
mixed-normal errors and the quantile loss (the mixed-normal quantile), and
``forecast --loss huber:1.25`` on seed 1's first panel (the Huber location).
Two LAD forecasts on that panel follow, one with only a z block
(``--z-cols z1,z2``) and one with only an x block (``--x-cols x1,x2``), so
the reader's zero column for a block without columns is compared too.
A small ``mc`` with ``--rate theta21,gamma3 --markdown`` compares the rate
rows, which come last in both its CSV and its markdown table.  Last come
three ``fit`` commands on simulated n = 200 data: ex51 with
``huber:1.25``, ex52 with ``lad``, and a config model with no stationary
block on the ex51 data.  Then ``loss-probe`` tabulates ``lad``,
``quantile:0.3`` and ``huber:1.25`` and their smoothed value, score and
curvature at orders 1, 1e6 and 1e12 on a grid over [-2, 2] that crosses
each kink, so the loss kernels' public outputs are compared too: the kink
windows of ``losses`` hold every grid point at order 1, some at 1e6 and
only the kinks at 1e12.  It writes the panels, the simulated data, the
``mc`` CSVs and markdown table, the forecast reports and error dumps, the
``fit`` JSON files and config, the ``loss-probe`` tables, and every
sidecar into OUT_DIR.  ``compare`` of two such directories prints, for
each, the failed replications of its ``mc`` tables (rate rows skipped)
and the fallback windows of its forecast reports, counted as the
benchmark counts them; it lists each file that is in one only or whose
bytes differ, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

EXAMPLES = ("ex51", "ex52")
NS = (100, 200, 1000)
SEEDS = (1, 7, 2718)
PROTOCOLS = ("global", "truth")
BENCH_WORKLOADS = ("fit-small", "fit-large")
BENCH_SEEDS = (1, 2718)
# (loss label, n, s) of the scalar-design fits that take exact-score steps.
FALLBACK_FITS = (
    ("lad", 125, 183), ("lad", 125, 197),
    ("lad", 500, 44), ("lad", 500, 84), ("lad", 500, 194),
    ("quantile:0.3", 125, 15), ("quantile:0.3", 125, 144),
    ("quantile:0.3", 2000, 94),
)


def bench_workloads():
    """The benchmark's ``workloads`` module, imported from ``bench/``."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    return workloads


def grid():
    """(key, model, data, options) of every fit, in a fixed order."""
    from mollifit.dgp import ErrorLaw, gen_example, rng_for
    from mollifit.estimate import FitOptions
    from mollifit.losses import LAD, SQUARED_ERROR, LossKind, huber_loss, quantile_loss

    for example in EXAMPLES:
        for n in NS:
            for seed in SEEDS:
                for loss in (LAD, huber_loss(1.25), quantile_loss(0.3), SQUARED_ERROR):
                    tau = loss.param if loss.kind is LossKind.QUANTILE else None
                    data, model, truth = gen_example(
                        example, n, ErrorLaw.T2, rng_for(seed, 0), recenter_tau=tau
                    )
                    for protocol in PROTOCOLS:
                        opts = FitOptions(loss=loss)
                        if protocol == "truth":
                            opts = dataclasses.replace(opts, init_params=truth, multistart=1)
                        key = f"{example}-n{n}-s{seed}-{loss.label()}-{protocol}"
                        yield key, model, data, opts


def fallback_fits():
    """(key, model, data, options) of every scalar-design fit that falls back."""
    from mollifit.estimate import FitOptions
    from mollifit.losses import LAD, quantile_loss
    from mollifit.model import IDENTITY, Dataset, ModelSpec

    model = ModelSpec((), (IDENTITY,), 1, 1)
    losses = {loss.label(): loss for loss in (LAD, quantile_loss(0.3))}
    for label, n, s in FALLBACK_FITS:
        rng = np.random.default_rng(3000 + s)
        z = rng.standard_normal((n, 1))
        y = z[:, 0] + rng.standard_normal(n)
        opts = FitOptions(loss=losses[label])
        yield f"fallback-{label}-n{n}-s{s}", model, Dataset(y, np.zeros((n, 1)), z), opts


def cross_group_calls(calls):
    """The truth-protocol calls of the batched grid, each dataset led by a zero-noise one.

    Run with a block budget of the smallest n, every job is a lockstep group
    of its own, and every group's first step asks for its only dataset at
    the truth.  A zero-noise dataset (y the mean at the truth) starts at its
    optimum, so for LAD, Huber and squared error its group's only Jacobian
    block sits at the truth too.  Its regressors are those of the next seed
    of the same n, so a block kept across groups would serve the next group
    the wrong Jacobian.  (A zero-noise copy of the led dataset itself would
    not show it: the Jacobian depends on the regressors only.)
    """
    from mollifit.model import Dataset, regression_mean

    for (*_, protocol), (model, opts, keyed) in calls.items():
        if protocol != "truth":
            continue
        by_n = {}
        for key, data in keyed:
            by_n.setdefault(data.n, []).append((key, data))
        led = []
        for same_n in by_n.values():
            for k, (key, data) in enumerate(same_n):
                other_key, other = same_n[(k + 1) % len(same_n)]
                exact = Dataset(regression_mean(model, opts.init_params, other.X, other.Z), other.X, other.Z)
                led += [(f"cross-{other_key}-zero-noise", exact), (f"cross-{key}", data)]
        yield model, opts, led


def call_or_error(fn, *args):
    from mollifit.exceptions import MollifitError

    try:
        return fn(*args)
    except MollifitError as err:
        return err


def dump(path: str, batched: bool = False, bench: bool = False) -> int:
    from mollifit import estimate
    from mollifit.estimate import fit, fit_many, infer
    from mollifit.model import ParamLayout

    # key -> (model, data, loss, FitResult or error)
    results = {}

    def add_many(model, opts, keyed):
        keys, datasets = zip(*keyed)
        for key, data, res in zip(keys, datasets, fit_many(model, datasets, opts)):
            results[key] = model, data, opts.loss, res

    if bench:
        workloads = bench_workloads()
        for name in BENCH_WORKLOADS:
            spec = workloads.FIT_WORKLOADS[name]
            for seed in BENCH_SEEDS:
                for s in range(workloads.SETUPS):
                    for p, items in enumerate(workloads.make_passes(spec, seed, s)):
                        for item in items:
                            res = call_or_error(workloads.fit_one, spec, item)
                            loss = workloads.LOSSES[item.loss]
                            key = f"{name}-s{seed}-set{s}-pass{p}-{item.key}"
                            results[key] = item.model, item.data, loss, res
    elif batched:
        calls = {}
        for key, model, data, opts in grid():
            example, *_, loss, protocol = key.split("-")
            calls.setdefault((example, loss, protocol), (model, opts, []))[2].append((key, data))
        for call in calls.values():
            add_many(*call)
        fallback_calls = {}
        for key, model, data, opts in fallback_fits():
            fallback_calls.setdefault((opts.loss, data.n), (model, opts, []))[2].append((key, data))
        for call in fallback_calls.values():
            add_many(*call)
        budget = estimate._BLOCK_ELEMENTS
        estimate._BLOCK_ELEMENTS = min(NS)  # one job per lockstep group
        try:
            for call in cross_group_calls(calls):
                add_many(*call)
        finally:
            estimate._BLOCK_ELEMENTS = budget
    else:
        for key, model, data, opts in (*grid(), *fallback_fits()):
            results[key] = model, data, opts.loss, call_or_error(fit, model, data, opts)
    arrays = {}
    for key, (model, data, loss, res) in results.items():
        # A fit whose inference raises is dumped as that error.
        inference = res if isinstance(res, Exception) else call_or_error(infer, model, data, res, loss)
        if isinstance(inference, Exception):
            arrays[f"{key}/error"] = np.array(f"{type(inference).__name__}: {inference}")
            continue
        for part in (res, inference):
            for f in dataclasses.fields(part):
                value = getattr(part, f.name)
                if f.name == "params":
                    value = ParamLayout(model).pack(value)
                arrays[f"{key}/{f.name}"] = np.array("None") if value is None else np.asarray(value)
    np.savez(path, **arrays)
    print(f"{len(arrays)} arrays from {len(results)} fits -> {path}")
    return 0


def cli(out_dir: str) -> int:
    from mollifit.cli import main as mollifit

    workloads = bench_workloads()

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failed = []
    for seed in (1, 2718):
        panels = [out / f"panel-s{seed}-{k}.csv" for k in range(2)]
        for k, panel in enumerate(panels):
            workloads.write_panel(panel, seed, k)
        for threads in (1, 2):
            argvs = [workloads.mc_argv(seed, threads, out / f"mc-s{seed}-t{threads}.csv")]
            argvs += [
                workloads.forecast_argv(panel, threads, out / f"forecast-s{seed}-{k}-t{threads}.csv")
                for k, panel in enumerate(panels)
            ]
            failed += [" ".join(argv) for argv in argvs if mollifit(argv) != 0]
    # The two root-finds: the mixed-normal quantile (simulate, and mc's
    # quantile loss under law d2) and the Huber location (forecast's
    # constant benchmark); then forecasts with only a z block and only an
    # x block, whose other block is the reader's zero column; then the rate
    # rows of an mc table in both formats.
    argvs = [
        ["simulate", "--seed", "1", "--example", "ex51", "--n", "200", "--law", "d2",
         "--recenter-tau", "0.3", "--out", str(out / "simulate-d2.csv")],
        ["mc", "--seed", "1", "--example", "ex51", "--n", "100", "--reps", "4",
         "--laws", "d2", "--losses", "l3", "--threads", "1", "--out", str(out / "mc-d2-l3.csv")],
        ["forecast", "--data", str(out / "panel-s1-0.csv"), "--window", str(workloads.WINDOW),
         "--x-cols", "x1,x2", "--z-cols", "z1,z2", "--y-col", "y", "--loss", "huber:1.25",
         "--threads", "1", "--out", str(out / "forecast-huber.csv"),
         "--dump", str(out / "forecast-huber.csv.dump")],
        *(["forecast", "--data", str(out / "panel-s1-0.csv"), "--window", str(workloads.WINDOW),
           f"--{block}-cols", f"{block}1,{block}2", "--loss", "lad", "--threads", "1",
           "--out", str(out / f"forecast-{block}only.csv"),
           "--dump", str(out / f"forecast-{block}only.csv.dump")] for block in ("z", "x")),
        ["mc", "--seed", "1", "--example", "ex51", "--n", "50,100", "--reps", "3",
         "--laws", "d1", "--losses", "l1", "--threads", "1", "--rate", "theta21,gamma3",
         "--markdown", str(out / "mc-rates.md"), "--out", str(out / "mc-rates.csv")],
    ]
    # fit writes the inference of infer into its JSON.
    nostat = out / "fit-nostat-config.json"
    nostat.write_text(json.dumps({"model": {
        "nonstat_links": ["identity", "power:2"], "stat_links": [], "d1": 2, "d2": 2,
    }}))
    for example in ("ex51", "ex52"):
        argvs.append(["simulate", "--seed", "1", "--example", example, "--n", "200",
                      "--law", "normal", "--out", str(out / f"simulate-{example}.csv")])
    for name, example, model, loss in (
        ("fit-ex51-huber", "ex51", ["--example-model", "ex51"], "huber:1.25"),
        ("fit-ex52-lad", "ex52", ["--example-model", "ex52"], "lad"),
        ("fit-nostat-lad", "ex51", ["--config", str(nostat)], "lad"),
    ):
        argvs.append(["fit", "--data", str(out / f"simulate-{example}.csv"), *model,
                      "--loss", loss, "--out", str(out / f"{name}.json")])
    for loss in ("lad", "quantile:0.3", "huber:1.25"):
        argvs.append(["loss-probe", "--loss", loss, "--m", "1,1e6,1e12", "--grid=-2:2:0.001",
                      "--out", str(out / f"loss-probe-{loss.replace(':', '-')}.csv")])
    failed += [" ".join(argv) for argv in argvs if mollifit(argv) != 0]
    print(f"{len(list(out.iterdir()))} files -> {out}")
    for argv in failed:
        print(f"failed: {argv}")
    return 1 if failed else 0


def cli_failures(out_dir: Path) -> str:
    """Failed ``mc`` replications and forecast fallback windows, as the benchmark counts them."""

    def tables(kind):
        for path in sorted(out_dir.glob(f"{kind}-*.csv")):
            with path.open(newline="") as f:
                yield list(csv.DictReader(f))

    # An mc table repeats its cell's failures on every parameter row; a rate
    # row has none.
    failures = sum(
        sum({(r["loss"], r["law"], r["n"]): int(r["failures"])
             for r in table if not r["param"].startswith("rate:")}.values())
        for table in tables("mc")
    )
    fallbacks = sum(int(r["fallback_count"]) for table in tables("forecast") for r in table)
    return f"{out_dir}: mc failures {failures}, forecast fallbacks {fallbacks}"


def compare_dirs(dir_a: Path, dir_b: Path) -> int:
    print(cli_failures(dir_a))
    print(cli_failures(dir_b))
    files_a = {p.name for p in dir_a.iterdir()}
    files_b = {p.name for p in dir_b.iterdir()}
    diffs = []
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            diffs.append(f"{name}: only in {dir_a if name in files_a else dir_b}")
        elif (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            diffs.append(f"{name}: differs")
    print("\n".join(diffs) if diffs else f"{len(files_a)} files, all byte-identical")
    return 1 if diffs else 0


def compare(path_a: str, path_b: str) -> int:
    if Path(path_a).is_dir() and Path(path_b).is_dir():
        return compare_dirs(Path(path_a), Path(path_b))
    a, b = np.load(path_a), np.load(path_b)
    for path, arrays in ((path_a, a), (path_b, b)):
        raised = sum(name.endswith("/error") for name in arrays.files)
        stuck = sum(name.endswith("/converged") and not arrays[name] for name in arrays.files)
        print(f"{path}: {raised} fits raised, {stuck} fits with converged=False")
    diffs = []
    for name in sorted(set(a.files) | set(b.files)):
        if name not in a.files or name not in b.files:
            diffs.append(f"{name}: only in {path_a if name in a.files else path_b}")
            continue
        x, y = a[name], b[name]
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            diffs.append(f"{name}: differs")
    print("\n".join(diffs) if diffs else f"{len(a.files)} arrays, all bitwise equal")
    if diffs:
        print("\n".join(summary(a, b)))
    return 1 if diffs else 0


def summary(a, b) -> list[str]:
    """Largest |delta params|, flipped start/convergence, changed iterations, final L_n changes."""
    shared = set(a.files) & set(b.files)

    def pair(name):
        return (a[name], b[name]) if name in shared else (None, None)

    moves, flips, iterations, changes = [], [], [], []
    for fit in sorted({name.rsplit("/", 1)[0] for name in shared}):
        x, y = pair(f"{fit}/params")
        if x is not None and x.shape == y.shape:
            moves.append((float(np.max(np.abs(y - x), initial=0.0)), fit))
        for field in ("start_index", "converged"):
            x, y = pair(f"{fit}/{field}")
            if x is not None and x.tobytes() != y.tobytes():
                flips.append(f"{fit}/{field} {x} -> {y}")
        x, y = pair(f"{fit}/iterations")
        if x is not None and x.tobytes() != y.tobytes():
            iterations.append(f"{fit} {x} -> {y}")
        # Two traces may differ in length; only their final L_n counts.
        x, y = pair(f"{fit}/descent_trace")
        if x is not None and x.dtype.kind == y.dtype.kind == "f" and x.size and y.size:
            changes.append(((y[-1] - x[-1]) / abs(x[-1]) if x[-1] else y[-1] - x[-1], fit))
    top_move = max(moves, default=None)
    top_rise, top_fall = max(changes, default=None), min(changes, default=None)
    rel = np.array([c for c, _ in changes])
    return [
        "largest |delta params|: "
        + ("n/a" if top_move is None else f"{top_move[0]:.3g} ({top_move[1]})"),
        "start_index or converged flipped: " + (", ".join(flips) if flips else "none"),
        "iterations changed: " + (", ".join(iterations) if iterations else "none"),
        f"final L_n of {rel.size} fits: {np.sum(rel > 1e-9)} rose and {np.sum(rel < -1e-9)} fell "
        f"by more than 1e-9 relative, {np.sum(rel == 0)} equal; median relative change "
        + ("n/a" if not rel.size else f"{np.median(rel):.3g}"),
        "largest relative rise of the final L_n: "
        + ("none" if top_rise is None or top_rise[0] <= 0 else f"{top_rise[0]:.3g} ({top_rise[1]})"),
        "largest relative fall of the final L_n: "
        + ("none" if top_fall is None or top_fall[0] >= 0 else f"{-top_fall[0]:.3g} ({top_fall[1]})"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    dump_parser = sub.add_parser("dump")
    source = dump_parser.add_mutually_exclusive_group()
    source.add_argument("--batched", action="store_true")
    source.add_argument("--bench", action="store_true")
    dump_parser.add_argument("out")
    cli_parser = sub.add_parser("cli")
    cli_parser.add_argument("out_dir")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out, args.batched, args.bench)
    if args.command == "cli":
        return cli(args.out_dir)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
