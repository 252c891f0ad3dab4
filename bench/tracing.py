"""Outside-in layer tracing for the benchmark.

The tracer wraps, from outside the package, the functions that one mollifit
module calls in another, and records one span per call: layer, name, start,
end, parent span and the request (work item) it served.  Nothing under
``src/`` is changed; the wrappers replace module attributes for the duration
of a ``with tracer.installed():`` block and are removed on exit.

Boundaries, named by the layer that owns the called function:

* ``losses`` and ``model``: every function ``mollifit.estimate`` imports from
  ``mollifit.losses`` or ``mollifit.model``;
* ``estimate``: ``fit`` as the benchmark, ``montecarlo`` and ``forecast``
  call it, and the per-start optimizer ``_minimize_one`` (to count starts);
* ``dgp``: ``gen_example`` as the benchmark and ``montecarlo`` call it;
* ``montecarlo`` and ``forecast``: ``run_replications`` and ``run_forecast``
  as ``cli`` calls them;
* ``cli``: ``main`` as the benchmark calls it.

Calls inside one module are not wrapped, so a layer's self time is its spans'
time minus the time of the spans they caused.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import time
from dataclasses import dataclass

import numpy as np

from mollifit import cli, dgp, estimate, forecast, montecarlo


@dataclass
class Span:
    sid: int
    parent: int | None
    request: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    work: float = 0.0
    error: bool = False

    @property
    def dur(self) -> float:
        return self.end - self.start


def _residuals(args, result):
    return float(np.size(args[-1]))


def _jacobian_bytes(args, result):
    return float(np.size(result) * 8)


def _nonconverged(args, result):
    return 0.0 if result.converged else 1.0


def _rows(args, result):
    return float(result[0].n)


def _mc_failures(args, result):
    cells = {(k[1], k[2], k[3]): c.failures for k, c in result.cells.items()}
    return float(sum(cells.values()))


def _fallbacks(args, result):
    return float(sum(r.fallback_count for r in result))


# Work recorded per boundary, by function name.
_WORK = {
    "eval_loss": _residuals,
    "subgrad": _residuals,
    "mollified_grad": _residuals,
    "mollified_hess": _residuals,
    "param_jacobian": _jacobian_bytes,
    "fit": _nonconverged,
    "gen_example": _rows,
    "run_replications": _mc_failures,
    "run_forecast": _fallbacks,
}


def boundaries():
    """(module, attribute, layer) triples that the tracer wraps."""
    out = []
    for name, fn in vars(estimate).items():
        owner = getattr(fn, "__module__", "")
        if inspect.isfunction(fn) and owner in ("mollifit.losses", "mollifit.model"):
            out.append((estimate, name, owner.rsplit(".", 1)[1]))
    out += [
        (estimate, "fit", "estimate"),
        (montecarlo, "fit", "estimate"),
        (forecast, "fit", "estimate"),
        (dgp, "gen_example", "dgp"),
        (montecarlo, "gen_example", "dgp"),
        (cli, "run_replications", "montecarlo"),
        (cli, "run_forecast", "forecast"),
        (cli, "main", "cli"),
    ]
    if hasattr(estimate, "_minimize_one"):
        out.append((estimate, "_minimize_one", "estimate"))
    return out


class Tracer:
    """In-memory span recorder; set ``request`` before each work item."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []

    def _wrap(self, fn, layer: str, name: str):
        work = _WORK.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, self.request, layer, name, 0.0)
            self.spans.append(span)
            self._stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, layer in boundaries():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, layer, attr))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["sid", "parent", "request", "layer", "name", "start", "end", "work", "error"])
            for s in self.spans:
                out.writerow([s.sid, "" if s.parent is None else s.parent, s.request,
                              s.layer, s.name, repr(s.start), repr(s.end), repr(s.work), int(s.error)])


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[Span]):
    """Per-layer totals, per-name call counts, times and work.

    ``busy_s`` counts each span whose ancestors hold no span of the same
    layer, so nested calls within a layer are not counted twice; ``self_s``
    is every span's duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.dur
    layers: dict[str, LayerTotals] = {}
    names: dict[str, list[float]] = {}
    for s in spans:
        tot = layers.setdefault(s.layer, LayerTotals())
        tot.calls += 1
        tot.self_s += s.dur - child_time[s.sid]
        p = s.parent
        while p is not None and spans[p].layer != s.layer:
            p = spans[p].parent
        if p is None:
            tot.busy_s += s.dur
        entry = names.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.dur
        entry[2] += s.work
    return layers, names


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("losses.calls", "count"),
    ("losses.busy_s", "s"),
    ("losses.busy_share", "ratio"),
    ("losses.ns_per_residual", "ns"),
    ("model.mean_calls", "count"),
    ("model.jacobian_calls", "count"),
    ("model.renormalize_calls", "count"),
    ("model.busy_s", "s"),
    ("model.busy_share", "ratio"),
    ("model.us_per_mean_call", "us"),
    ("model.us_per_jacobian_call", "us"),
    ("model.jacobian_mb_computed", "MB"),
    ("estimate.starts", "count"),
    ("estimate.newton_steps", "count"),
    ("estimate.line_search_evals_per_step", "ratio"),
    ("estimate.self_s", "s"),
    ("estimate.self_share", "ratio"),
    ("estimate.nonconverged", "count"),
    ("estimate.param_drift_max", "abs_diff"),
    ("dgp.calls", "count"),
    ("dgp.busy_s", "s"),
    ("dgp.rows_per_s", "1/s"),
    ("montecarlo.reps_per_s_1w", "1/s"),
    ("montecarlo.pool_efficiency_2w", "ratio"),
    ("montecarlo.fit_share", "ratio"),
    ("montecarlo.failures", "count"),
    ("forecast.windows_per_s_1w", "1/s"),
    ("forecast.pool_efficiency_2w", "ratio"),
    ("forecast.fit_share", "ratio"),
    ("forecast.fallbacks", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_pct", "%"),
]

# Counters that must repeat exactly between two traced runs on one seed.
COUNTERS = [
    "losses.calls", "model.mean_calls", "model.jacobian_calls",
    "model.renormalize_calls", "model.jacobian_mb_computed", "estimate.starts",
    "estimate.newton_steps", "estimate.line_search_evals_per_step",
    "estimate.nonconverged", "dgp.calls", "montecarlo.failures",
    "forecast.fallbacks",
]


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def _time_under(spans: list[Span], name: str, ancestor: str) -> float:
    """Total duration of ``name`` spans that have an ``ancestor`` span."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != ancestor:
            p = spans[p].parent
        if p is not None:
            total += s.dur
    return total


def per_layer_metrics(spans: list[Span], pools: dict, drift: float, overhead_pct: float) -> dict:
    """Per-layer metric values from a traced run plus its untraced walls.

    ``pools`` maps ``"montecarlo"``/``"forecast"`` to ``(items, wall_1w,
    wall_2w)`` for the layers the workload runs through a process pool.
    A layer the workload does not exercise reports 0.
    """
    layers, names = summarize(spans)

    def layer(key):
        return layers.get(key, LayerTotals())

    def name(key):
        return names.get(key, [0, 0.0, 0.0])

    fit_busy = layer("estimate").busy_s
    fits = name("fit")[0]
    starts = name("_minimize_one")[0]
    means = name("regression_mean")
    jacs = name("param_jacobian")
    residuals = sum(name(n)[2] for n in ("eval_loss", "subgrad", "mollified_grad", "mollified_hess"))
    m = {
        "losses.calls": layer("losses").calls,
        "losses.busy_s": layer("losses").busy_s,
        "losses.busy_share": _ratio(layer("losses").busy_s, fit_busy),
        "losses.ns_per_residual": _ratio(layer("losses").busy_s * 1e9, residuals),
        "model.mean_calls": means[0],
        "model.jacobian_calls": jacs[0],
        "model.renormalize_calls": name("renormalize_for_fit")[0],
        "model.busy_s": layer("model").busy_s,
        "model.busy_share": _ratio(layer("model").busy_s, fit_busy),
        "model.us_per_mean_call": _ratio(means[1] * 1e6, means[0]),
        "model.us_per_jacobian_call": _ratio(jacs[1] * 1e6, jacs[0]),
        "model.jacobian_mb_computed": jacs[2] / 1e6,
        "estimate.starts": starts,
        "estimate.newton_steps": jacs[0],
        # Every start evaluates the mean once before its first step and
        # every fit once more for the returned residuals; the rest are
        # line-search trials.
        "estimate.line_search_evals_per_step": _ratio(means[0] - starts - fits, jacs[0]),
        "estimate.self_s": layer("estimate").self_s,
        "estimate.self_share": _ratio(layer("estimate").self_s, fit_busy),
        "estimate.nonconverged": name("fit")[2],
        "estimate.param_drift_max": drift,
        "dgp.calls": name("gen_example")[0],
        "dgp.busy_s": layer("dgp").busy_s,
        "dgp.rows_per_s": _ratio(name("gen_example")[2], layer("dgp").busy_s),
        "cli.self_s": layer("cli").self_s,
        "trace.overhead_pct": overhead_pct,
    }
    for key, entry in (("montecarlo", "run_replications"), ("forecast", "run_forecast")):
        items, wall1, wall2 = pools.get(key, (0, 0.0, 0.0))
        rate = "reps_per_s_1w" if key == "montecarlo" else "windows_per_s_1w"
        lost = "failures" if key == "montecarlo" else "fallbacks"
        m[f"{key}.{rate}"] = _ratio(items, wall1)
        m[f"{key}.pool_efficiency_2w"] = _ratio(wall1, 2.0 * wall2)
        m[f"{key}.fit_share"] = _ratio(_time_under(spans, "fit", entry), layer(key).busy_s)
        m[f"{key}.{lost}"] = name(entry)[2]
    return {k: m[k] for k, _ in PER_LAYER}
