"""Run one workload of the mollifit benchmark and print its result.

    python3 bench/run.py --workload fit-small --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics of an untraced,
timed run; with ``--trace 1`` it holds the per-layer metrics of a traced
pass over a fixed amount of work.  The last line of standard output is the
result as one JSON object; the full record, with run metadata, is also
written under ``.bench_work/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# Pool width of the CLI workloads, as ``--threads``.
CLI_WORKERS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]


def pin_blas(nproc: int) -> int:
    """BLAS threads per process so that pool workers x threads <= nproc."""
    threads = max(1, nproc // CLI_WORKERS)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def git_head() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(nproc: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    lines = {
        f.name: len(f.read_text().splitlines())
        for f in sorted((ROOT / "src" / "mollifit").glob("*.py"))
    }
    return {
        "nproc": nproc,
        "blas_threads": blas_threads,
        "blas_env": {v: os.environ[v] for v in BLAS_VARS},
        "cli_workers": CLI_WORKERS,
        "git_head": git_head(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    q = (100 * (n - 10)) // n
    return q, ordered[-(-q * n // 100) - 1]


def trimmed_mean(samples: list[float], share: float = 0.1) -> float:
    """Mean after dropping the lowest and highest ``share`` of the samples."""
    k = int(share * len(samples))
    ordered = sorted(samples)
    return statistics.fmean(ordered[k : len(ordered) - k])


def end_to_end(out, workload: str) -> tuple[dict, dict]:
    metrics = {
        "setup_s": statistics.median(out.setup),
        # A few heavy datasets would otherwise swing a run's throughput;
        # the tail is reported on its own.
        "items_per_s": out.items_per_sample / trimmed_mean(out.latencies),
        "latency_ms_p50": 1e3 * statistics.median(out.latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    tail = tail_percentile(out.latencies)
    extra = {
        "latency_unit": "fit" if workload.startswith("fit") else "mc + forecast command pair",
        "latency_samples": len(out.latencies),
        "latency_tail": None if tail is None else {f"latency_ms_p{tail[0]}": 1e3 * tail[1]},
        "setup_samples_s": out.setup,
        "items_per_latency_sample": out.items_per_sample,
        "latencies_s": out.latencies,
    }
    if out.command_walls:
        extra["command_walls_s"] = out.command_walls
    return metrics, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mollifit" / "__init__.py").is_file():
        print(f"error: no mollifit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    blas_threads = pin_blas(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import mollifit  # noqa: F401  (timed: import is part of set-up)

    import_s = time.perf_counter() - t0
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            out, metrics, tracer = workloads.trace_workload(args.workload, args.seed, workdir)
            units = dict(tracing.PER_LAYER)
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write_csv(traces / f"{args.workload}-seed{args.seed}.csv")
            extra = {"spans": len(tracer.spans)}
        else:
            out = workloads.run_workload(args.workload, args.seed, args.seconds, import_s, workdir)
            metrics, extra = end_to_end(out, args.workload)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": out.wrong == 0,
        "attempted": out.items,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **result,
        "wrong_outputs": out.wrong,
        "nonconverged": out.nonconverged,
        "fail_rate": (out.failed + out.nonconverged) / out.items,
        "import_s": import_s,
        **extra,
        "meta": metadata(nproc, blas_threads),
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"{args.workload} seed {args.seed} trace {args.trace}: attempted {out.items}, failed {out.failed}, "
          f"nonconverged {out.nonconverged}, fail_rate {record['fail_rate']:.4g}, wrong_outputs {out.wrong}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    if not args.trace:
        tail = extra["latency_tail"] or {"tail": "none (fewer than 11 samples)"}
        tail_text = ", ".join(f"{k} = {v:.6g} ms" if isinstance(v, float) else f"{k} {v}" for k, v in tail.items())
        print(f"  latency per {extra['latency_unit']}: {extra['latency_samples']} samples; {tail_text}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
