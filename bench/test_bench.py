"""Tests of the benchmark's own machinery: tracing, counters and checks.

    python3 -m pytest -q bench
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mollifit import cli  # noqa: E402

SMALL = replace(workloads.FIT_WORKLOADS["fit-small"], ns=(200,), passes_per_setup=1)


def _fit_trace(seed):
    items = workloads.make_passes(SMALL, seed, 0)[0][::3]
    tracer = tracing.Tracer()
    out, _, _ = workloads.trace_fits(SMALL, items, tracer)
    return out, tracer


def _counters(spans):
    metrics = tracing.per_layer_metrics(spans, {}, 0.0, 0.0)
    return {k: metrics[k] for k in tracing.COUNTERS}


def test_fit_counters_repeat_exactly():
    out_a, a = _fit_trace(11)
    out_b, b = _fit_trace(11)
    assert out_a.items == 4 and out_a.wrong == 0
    assert (out_a.failed, out_a.nonconverged) == (out_b.failed, out_b.nonconverged)
    counts = _counters(a.spans)
    assert counts["estimate.starts"] == 4 * 8
    assert counts["model.jacobian_calls"] > 0 and counts["losses.calls"] > 0
    assert counts == _counters(b.spans)


def test_cli_counters_repeat_exactly(tmp_path):
    argv = ["mc", "--example", "ex51", "--n", "100", "--reps", "3", "--losses", "l2,l3",
            "--laws", "d1", "--seed", "5", "--threads", "1"]
    runs = []
    for k in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            assert cli.main(argv + ["--out", str(tmp_path / f"t{k}.csv")]) == 0
        runs.append(_counters(tracer.spans))
    assert runs[0]["dgp.calls"] == 6 and runs[0]["estimate.starts"] == 6
    assert runs[0] == runs[1]


def test_self_times_add_up_to_fit_time():
    _, tracer = _fit_trace(12)
    layers, _ = tracing.summarize(tracer.spans)
    fit_busy = sum(s.dur for s in tracer.spans if s.name == "fit")
    parts = layers["estimate"].self_s + layers["model"].busy_s + layers["losses"].busy_s
    assert layers["estimate"].busy_s == pytest.approx(fit_busy, rel=1e-12)
    assert parts == pytest.approx(fit_busy, rel=1e-9)


def test_tracer_restores_the_package():
    sites = [(m, a) for m, a, _ in tracing.boundaries()]
    before = [getattr(m, a) for m, a in sites]
    with tracing.Tracer().installed():
        assert all(getattr(m, a) is not f for (m, a), f in zip(sites, before))
    assert all(getattr(m, a) is f for (m, a), f in zip(sites, before))


def test_fit_checks_catch_a_wrong_result():
    item = workloads.make_passes(SMALL, 13, 0)[0][0]
    res = workloads.fit_one(SMALL, item)
    assert workloads.fit_problems(item, res) == []
    res.residuals = res.residuals + 1e-3
    res.params.theta1[0] = -res.params.theta1[0]
    res.objective = 1.0
    assert len(workloads.fit_problems(item, res)) == 3


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    q, v = run.tail_percentile([float(i) for i in range(120)])
    assert q == 91 and sum(x > v for x in range(120)) >= 10
    q, v = run.tail_percentile([float(i) for i in range(100)])
    assert q == 90 and sum(x > v for x in range(100)) == 10
