"""Wall-clock benchmark of the Turbo online system.

Run from the repository root::

    python3 perfbench/run.py --workload serve-single --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that gives the per-layer metrics
(``METRICS.md`` lists both, with the layer each metric belongs to).  The
last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is the full report: host and commit fingerprint, every
named metric with its unit, the per-layer table, the correctness checks and
the modeled (``sim.*``) clocks, which never replace a measured number.  The
report is also written to ``perfbench/results/``.  A failed correctness
check exits with status 1; a checkout without ``src/repro`` exits with 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
#: a seed no tuning run used; later performance claims are re-checked on it.
HELD_OUT_SEED = 7919


def end_to_end_metrics(outcome, tail) -> dict[str, dict]:
    pct, tail_value = tail(outcome.latencies)
    values = {
        "setup_s": (statistics.median(outcome.setup), "s"),
        "ops_per_s": (outcome.ops_per_s, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(outcome.latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer_metrics(outcome) -> dict[str, dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    out = {}
    for metric in spec:
        value, _unit = outcome.layers.get(metric["name"], (0.0, metric["unit"]))
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def blas_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    threads = {
        var: os.environ[var]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    }
    return {"vendor": vendor, "threads": threads or f"default ({os.cpu_count()} cores)"}


def git(*args: str) -> str | None:
    """``git`` in the checkout only (never a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/`` — identifies the code where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> dict:
    import numpy

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if head else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "commit": head.strip() if head else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "source_sha256": source_digest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None, help="D1 scale (smoke runs)")
    parser.add_argument("--setup-repeats", type=int, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.RUNNERS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.RUNNERS)}", file=sys.stderr)
        return 2
    outcome = workloads.RUNNERS[args.workload](
        args.seed,
        args.seconds,
        bool(args.trace),
        args.scale if args.scale is not None else workloads.SCALE,
        args.setup_repeats or workloads.SETUP_REPEATS,
    )
    correct = all(outcome.checks.values()) and bool(outcome.latencies)
    metrics = (
        per_layer_metrics(outcome) if args.trace else end_to_end_metrics(outcome, workloads.tail)
    )
    named = {
        "setup_s": (statistics.median(outcome.setup), "s"),
        "failed_frac": (outcome.failed / max(1, outcome.attempted), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **outcome.named,
    }
    as_table = lambda rows: {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale if args.scale is not None else workloads.SCALE,
        "held_out_seed": HELD_OUT_SEED,
        "fingerprint": fingerprint(),
        "correct": correct,
        "checks": outcome.checks,
        "setup_runs_s": outcome.setup,
        "named": as_table(named),
        "sim": as_table(outcome.sim),
        "layers": as_table(outcome.layers) if args.trace else {},
        "metrics": metrics,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
