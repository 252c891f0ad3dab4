"""Dump and compare the 144-fit grid, to check that a change keeps fits bitwise.

The grid is ex51 and ex52; n 100, 200 and 1000; seeds 1, 7 and 2718; LAD,
Huber(1.25), quantile(0.3) and squared-error loss; the default global
search and a single start anchored at the simulation truth.  Each dataset
is ``gen_example(example, n, ErrorLaw.T2, rng_for(seed, 0))``, with the
errors recentred at tau for the quantile loss.

    PYTHONPATH=src python tools/fitgrid.py dump [--batched] OUT.npz
    python tools/fitgrid.py compare A.npz B.npz

``dump`` fits the grid with the ``mollifit`` on the import path and writes
every ``FitResult`` field of every fit (``params`` packed, the descent trace
recorded).  With ``--batched`` it fits through ``fit_many``, one call per
(example, loss, protocol) over all n and seeds, so the datasets of a call
have mixed n; its dump must equal the serial one.  ``compare`` lists each
fit and field whose dtype, shape or bytes differ between two dumps, and
exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

EXAMPLES = ("ex51", "ex52")
NS = (100, 200, 1000)
SEEDS = (1, 7, 2718)
PROTOCOLS = ("global", "truth")


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
                        opts = FitOptions(loss=loss, track_descent=True)
                        if protocol == "truth":
                            opts = dataclasses.replace(opts, init_params=truth, multistart=1)
                        key = f"{example}-n{n}-s{seed}-{loss.label()}-{protocol}"
                        yield key, model, data, opts


def dump(path: str, batched: bool = False) -> int:
    from mollifit.estimate import fit, fit_many
    from mollifit.model import ParamLayout

    results = {}
    if batched:
        calls = {}
        for key, model, data, opts in grid():
            example, *_, loss, protocol = key.split("-")
            calls.setdefault((example, loss, protocol), (model, opts, []))[2].append((key, data))
        for model, opts, keyed in calls.values():
            keys, datasets = zip(*keyed)
            results.update(zip(keys, ((model, r) for r in fit_many(model, datasets, opts))))
    else:
        for key, model, data, opts in grid():
            results[key] = model, fit(model, data, opts)
    arrays = {}
    for key, (model, res) in results.items():
        if isinstance(res, Exception):
            raise res
        for f in dataclasses.fields(res):
            value = getattr(res, f.name)
            if f.name == "params":
                value = ParamLayout(model).pack(value)
            arrays[f"{key}/{f.name}"] = np.array("None") if value is None else np.asarray(value)
    np.savez(path, **arrays)
    print(f"{len(arrays)} arrays from {len(results)} fits -> {path}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    diffs = []
    for name in sorted(set(a.files) | set(b.files)):
        if name not in a.files or name not in b.files:
            diffs.append(f"{name}: only in {path_a if name in a.files else path_b}")
            continue
        x, y = a[name], b[name]
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            diffs.append(f"{name}: differs")
    print("\n".join(diffs) if diffs else f"{len(a.files)} arrays, all bitwise equal")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    dump_parser = sub.add_parser("dump")
    dump_parser.add_argument("--batched", action="store_true")
    dump_parser.add_argument("out")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out, args.batched)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
