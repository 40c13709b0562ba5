"""Run one weilgraph benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-gf2 --seed 1 --seconds 30 --trace 0

The benchmark is one process with no threads.  It imports the package from
``src/`` of the checkout, runs whole passes of the workload until
``--seconds`` have passed (and at least the workload's minimum number of
passes), checks every output, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is an environment record.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced reference pass, then traced passes,
and reports the per-layer metrics.  See README.md for what each metric is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 9

IMPORT_TIMER = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import weilgraph
print(time.perf_counter() - t0)
"""

# Layers reported as calls and self_s, each from the spans of that name.
LAYERS = (
    "linalg.gf2_rank",
    "linalg.gf2_solve",
    "linalg.smith",
    "linalg.det",
    "sandpile.dhar_large",
    "sandpile.dhar_small",
    "sandpile.critical_group",
    "sandpile.tree_count",
    "sandpile.torsion_check",
    "homology.basis",
    "homology.pairing",
    "homology.is_simple_cycle",
    "cover.build",
    "cover.lift",
    "curvemodel.weil_form",
    "graphs.subdivide",
    "documents.parse",
    "documents.report_json",
)
COMMANDS = ("homology", "cover", "torsion", "tropical")
SWEEPS = ("perfect_pairing", "pairing_equivalence", "model", "torsion", "kirchhoff")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", required=True, choices=("sweep-gf2", "sweep-chipfiring", "cli-queries")
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_samples() -> list[float]:
    """Seconds to import weilgraph in fresh processes; the first run warms
    the file cache and is not counted."""
    code = IMPORT_TIMER.format(src=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            samples.append(float(out.stdout))
    return samples


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest of p90, p95, p99 and p99.9 with at least ten samples
    beyond it (nearest rank), or the maximum when there are fewer than 100."""
    xs = sorted(samples)
    n = len(xs)
    label, value = "max", xs[-1]
    for p in (90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            label, value = f"p{p:g}", xs[math.ceil(p / 100 * n) - 1]
    return label, value


def run_passes(workload, seconds: float, tracer=None):
    """Whole passes until ``seconds`` have passed and the minimum is met.
    With a tracer, each pass's spans are kept separately."""
    records, spans = [], []
    start = perf_counter()
    index = 0
    while index < workload.min_passes or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        records.append(workload.run_pass(index))
        if tracer is not None:
            spans.append(
                {
                    "stats": {k: list(v) for k, v in tracer.stats.items()},
                    "durations": {k: list(v) for k, v in tracer.durations.items()},
                    "root_s": tracer.root_s,
                    "smith_cells": tracer.smith_cells,
                }
            )
        index += 1
    return records, spans


def end_to_end(records, latencies, setup) -> dict:
    attempted = sum(rec.attempted for rec in records)
    failed = sum(rec.failed for rec in records)
    _, tail_s = tail(latencies)
    return {
        "setup_s": (median(setup), "s"),
        "checks_per_s": (median(r.attempted / sum(r.latencies_s) for r in records), "1/s"),
        "query_p50_ms": (median(latencies) * 1000, "ms"),
        "query_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(records, spans) -> dict:
    # per-pass values, reported as their median over the passes; counts
    # take the lower median so that they stay whole
    def stat(name, i):
        values = [s["stats"].get(name, (0, 0.0, 0.0))[i] for s in spans]
        return median_low(values) if i == 0 else median(values)

    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (stat(name, 0), "count")
        out[f"{name}.self_s"] = (stat(name, 2), "s")
    out["graphs.enumerate.self_s"] = (stat("graphs.enumerate", 2), "s")
    out["linalg.smith.cells"] = (median_low(s["smith_cells"] for s in spans), "count")
    out["homology.basis.hit_ratio"] = (
        median(
            r.basis_hits / (r.basis_hits + r.basis_misses) if r.basis_misses else 0.0
            for r in records
        ),
        "ratio",
    )
    for command in COMMANDS:
        pooled = [d for s in spans for d in s["durations"].get(f"cli.{command}", ())]
        out[f"cli.{command}.p50_ms"] = (median(pooled) * 1000 if pooled else 0.0, "ms")
    for sweep in SWEEPS:
        out[f"sweeps.{sweep}.s"] = (median(r.sweep_s.get(sweep, 0.0) for r in records), "s")
        out[f"sweeps.{sweep}.instances"] = (
            median_low(r.instances.get(sweep, 0) for r in records),
            "count",
        )
    return out


def trace_accounting(reference, traced, spans) -> dict:
    """Tracing overhead, and the first traced pass's wall time split into
    the self times of all spans plus the time no span covers."""
    first = spans[0]
    self_sum = sum(v[2] for v in first["stats"].values())
    uncovered = traced.wall_s - first["root_s"]
    return {
        "untraced_wall_s": reference.wall_s,
        "traced_wall_s": traced.wall_s,
        "overhead_s": traced.wall_s - reference.wall_s,
        "self_sum_s": self_sum,
        "uncovered_s": uncovered,
        "closure_error_s": traced.wall_s - (self_sum + uncovered),
        "spans": {
            name: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
            for name, v in sorted(first["stats"].items())
        },
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "weilgraph" / "__init__.py").is_file():
        print(f"error: no weilgraph sources under {SRC}", file=sys.stderr)
        return 2
    started = perf_counter()
    # Set-up is timed before this process loads numpy: a child imports numpy
    # 35-50% faster while its parent has it loaded, which a user's shell
    # does not.
    setup = [] if args.trace else setup_samples()
    sys.path.insert(0, str(SRC))
    import numpy
    import weilgraph

    if Path(weilgraph.__file__).resolve().parent != (SRC / "weilgraph").resolve():
        print(f"error: imported weilgraph from {weilgraph.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    problems = []

    if args.trace:
        reference = workload.run_pass(0)
        tracer = Tracer(keep_durations=[f"cli.{c}" for c in COMMANDS])
        tracer.install(extra=((workloads, "kirchhoff_sweep", "sweeps.kirchhoff"),))
        try:
            records, spans = run_passes(workload, args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        if reference.digest_items != records[0].digest_items:
            problems.append("traced outputs differ from untraced ones")
        records.insert(0, reference)
    else:
        records, spans = run_passes(workload, args.seconds)

    timed = records[1:] if args.trace else records
    # the same seed must give the same outputs: sweep passes all repeat the
    # first, query batches are compared across runs through the digest
    if isinstance(workload, workloads.SweepWorkload):
        if any(r.digest_items != records[0].digest_items for r in records):
            problems.append("sweep passes disagree")
        digest = workloads.digest(timed[:1])
    else:
        digest = workloads.digest(timed[: workload.min_passes])

    liveness = workload.liveness()
    problems += liveness
    for rec in records:
        problems += rec.problems

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    latencies = workload.latency_samples(timed)
    metrics = per_layer(timed, spans) if args.trace else end_to_end(records, latencies, setup)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "passes": len(timed),
        "samples": len(latencies),
        "tail_percentile": tail(latencies)[0],
        "setup_samples": len(setup),
        "digest": digest,
        "fault_injection": "caught" if not liveness else liveness,
        "elapsed_s": perf_counter() - started,
    }
    if args.trace:
        env["tracing"] = trace_accounting(records[0], records[1], spans)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
