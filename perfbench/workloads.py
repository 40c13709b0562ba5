"""The three workloads, their inputs and their correctness checks.

A workload runs in passes.  Every sweep and every query starts from the
state a fresh ``weilgraph`` process has: the package's ``lru_cache``s are
emptied (and, before each sweep and each query batch, the garbage
collector has run), so nothing is timed on a program warmed by earlier
work.  Each pass returns a ``PassRecord``; the caller decides how many
to run.

* ``sweep-gf2``: ``perfect_pairing_sweep(6)``, ``pairing_equivalence_sweep(5)``
  and ``model_sweep(4)``, 63805 checked instances per pass.  GF(2) rank and
  solve, cycle lifts, the pairing, the Weil form and the ``homology_basis``
  cache do the work; there is no integer work.
* ``sweep-chipfiring``: ``torsion_sweep(5, rs=(2, 3, 4, 5))`` and a
  Kirchhoff check (critical-group order against the spanning-tree count)
  on all 3393 graphs with at most 6 edges.  Smith forms of subdivided
  Laplacians and Dhar burning do the work; there is no GF(2) work.
* ``cli-queries``: a seeded stream of in-process ``weilgraph`` command
  calls on generated documents with 8 to 40 edges (tropical ones up to
  24).  Every instance is large and cold, and the documents and cli
  layers run on every query.

In the sweep workloads the seed only orders the sweeps within a pass; the
sweeps themselves are exhaustive.  One "query" there is one sweep call.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable

from weilgraph import cli, homology, sandpile, sweeps

# Every lru_cache in the package, found before any tracing rebinds a name.
CACHES = tuple(
    dict.fromkeys(
        obj
        for name, mod in list(sys.modules.items())
        if name.startswith("weilgraph.")
        for obj in vars(mod).values()
        if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
    )
)
BASIS_CACHE = homology.homology_basis


def clear_caches() -> None:
    """Empty the package's caches, as a fresh process has them."""
    for cache in CACHES:
        cache.cache_clear()


@dataclass
class PassRecord:
    """What one pass did: per-query latencies, checks, and its digest input."""

    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest_items: list[str] = field(default_factory=list)
    instances: dict[str, int] = field(default_factory=dict)  # per sweep
    sweep_s: dict[str, float] = field(default_factory=dict)  # per sweep
    basis_hits: int = 0
    basis_misses: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def read_basis_cache(self) -> None:
        info = BASIS_CACHE.cache_info()
        self.basis_hits += info.hits
        self.basis_misses += info.misses


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------


def kirchhoff_sweep(max_edges: int = 6, inject_fault: bool = False) -> sweeps.SweepResult:
    """Critical-group order against the Kirchhoff spanning-tree count, on
    every connected multigraph the sweep enumerator yields."""
    res = sweeps.SweepResult("kirchhoff")
    for graph in sweeps.connected_multigraphs(max_edges):
        res.instances += 1
        order = sandpile.critical_group(graph).order()
        if inject_fault:
            order += 1
            inject_fault = False
        if order != sandpile.spanning_tree_count(graph):
            res.record(graph=graph.edges, order=order)
    return res


@dataclass(frozen=True)
class SweepJob:
    """One sweep call, its pinned instance count, and a small faulted run."""

    name: str
    pinned: int
    call: Callable[[], sweeps.SweepResult]
    faulted: Callable[[], sweeps.SweepResult] | None  # with inject_fault=True


SWEEP_JOBS = {
    "perfect_pairing": SweepJob(
        "perfect_pairing", 3393, lambda: sweeps.perfect_pairing_sweep(6), None
    ),
    "pairing_equivalence": SweepJob(
        "pairing_equivalence",
        35182,
        lambda: sweeps.pairing_equivalence_sweep(5),
        lambda: sweeps.pairing_equivalence_sweep(3, inject_fault=True),
    ),
    "model": SweepJob(
        "model",
        25230,
        lambda: sweeps.model_sweep(4),
        lambda: sweeps.model_sweep(2, inject_fault=True),
    ),
    "torsion": SweepJob(
        "torsion",
        5176,
        lambda: sweeps.torsion_sweep(5, rs=(2, 3, 4, 5)),
        lambda: sweeps.torsion_sweep(2, rs=(2,), inject_fault=True),
    ),
    "kirchhoff": SweepJob(
        "kirchhoff", 3393, lambda: kirchhoff_sweep(6), lambda: kirchhoff_sweep(3, True)
    ),
}


def sweep_gate(job: SweepJob, res: sweeps.SweepResult) -> list[str]:
    """Why a sweep result is not acceptable; empty when it is."""
    problems = []
    if not res.ok:
        problems.append(f"{job.name}: {res.failure_count} counterexamples {res.failures[:2]}")
    if res.instances != job.pinned:
        problems.append(f"{job.name}: {res.instances} instances, pinned {job.pinned}")
    return problems


class SweepWorkload:
    """Exhaustive sweeps, run in an order the seed picks."""

    # at least this many passes, so that a digest is compared across passes
    min_passes = 2

    def __init__(self, job_names, seed: int):
        self.jobs = [SWEEP_JOBS[n] for n in job_names]
        random.Random(seed).shuffle(self.jobs)

    def run_pass(self, index: int) -> PassRecord:
        rec = PassRecord()
        start = perf_counter()
        for job in self.jobs:
            # every sweep starts cold, so that its work does not depend on
            # which sweeps the seed put before it
            clear_caches()
            gc.collect()
            t0 = perf_counter()
            res = job.call()
            elapsed = perf_counter() - t0
            rec.latencies_s.append(elapsed)
            rec.sweep_s[job.name] = elapsed
            rec.attempted += res.instances
            for problem in sweep_gate(job, res):
                rec.fail(problem)
            rec.instances[job.name] = res.instances
            rec.digest_items.append(
                json.dumps([job.name, res.instances, res.failure_count, res.failures], default=repr)
            )
            rec.read_basis_cache()
        rec.wall_s = perf_counter() - start
        return rec

    @staticmethod
    def latency_samples(records: list[PassRecord]) -> list[float]:
        """Each sweep's time, as its median over the passes."""
        return [median(times) for times in zip(*(r.latencies_s for r in records))]

    def liveness(self) -> list[str]:
        """Show that the gate can fail: every injected fault must be caught."""
        problems = []
        for job in self.jobs:
            if job.faulted is not None:
                res = job.faulted()
                if res.failure_count != 1:
                    problems.append(
                        f"{job.name}: injected fault gave {res.failure_count} failures, not 1"
                    )
            # the gate itself must reject a miscounted result
            fake = sweeps.SweepResult(job.name, instances=job.pinned + 1)
            if not sweep_gate(job, fake):
                problems.append(f"{job.name}: gate accepted a wrong instance count")
        return problems


# ---------------------------------------------------------------------------
# Query workload
# ---------------------------------------------------------------------------

EDGE_COUNTS = (8, 12, 16, 20, 24, 28, 32, 36, 40)
# Tropical queries stay at 24 edges and r * edges <= 80.  From about 28
# edges up, the Smith form's integer entries explode on some graphs: at
# 40 edges and r = 2 about 1 query in 100 took over a second, and single
# queries at 40 edges took 45 s (r = 3) and over 2 minutes (r = 5), which
# no bounded run can absorb.
TROPICAL_EDGE_COUNTS = (8, 12, 16, 20, 24)
SUBDIVIDED_EDGE_BUDGET = 80
QUERIES_PER_SIZE = 2  # of each of homology, cover and torsion, per edge count


@dataclass(frozen=True)
class Query:
    """One command call, with the facts its report is checked against."""

    argv: tuple[str, ...]
    document: str
    genus: int
    alpha: frozenset = frozenset()
    gamma: frozenset = frozenset()


def random_document(rng: random.Random, edges: int, with_cycle: bool = False):
    """A connected multigraph document with loops, parallel edges, genera
    and stabilizers, its genus, and the edge indices of a simple cycle
    planted in it when ``with_cycle`` is set (empty otherwise)."""
    n = rng.randint(max(2, edges // 4), edges // 2 + 1)
    label = list(range(n))
    rng.shuffle(label)
    pairs = [(label[rng.randrange(v)], label[v]) for v in range(1, n)]
    planted: list[tuple[int, int]] = []
    if with_cycle:
        cycle_length = rng.randint(1, min(8, n, edges - n + 1))
        ring = rng.sample(range(n), cycle_length) if cycle_length > 1 else [rng.randrange(n)]
        if cycle_length == 2:
            planted = [(ring[0], ring[1]), (ring[0], ring[1])]
        else:
            planted = [(ring[i], ring[(i + 1) % cycle_length]) for i in range(cycle_length)]
    while len(pairs) + len(planted) < edges:
        x = rng.random()
        if x < 0.15:
            v = rng.randrange(n)
            pairs.append((v, v))
        elif x < 0.4:
            pairs.append(rng.choice(pairs))
        else:
            pairs.append(tuple(rng.sample(range(n), 2)))
    tagged = [(p, False) for p in pairs] + [(p, True) for p in planted]
    rng.shuffle(tagged)
    doc = {
        "vertices": n,
        "edges": [list(p if rng.random() < 0.5 else p[::-1]) for p, _ in tagged],
        "genera": [rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(n)],
        "stabilizers": [rng.choice((1, 2, 2, 3, 4)) for _ in tagged],
    }
    cycle = frozenset(i for i, (_, in_cycle) in enumerate(tagged) if in_cycle)
    return json.dumps(doc), edges - n + 1, cycle


def make_batch(seed: int, index: int) -> list[Query]:
    """One batch of queries: a fixed mix of commands and sizes, with the
    documents, cycles, cochains and order drawn from the seed."""
    rng = random.Random(seed * 1_000_003 + index)
    queries = []
    for m in EDGE_COUNTS:
        for _ in range(QUERIES_PER_SIZE):
            doc, genus, _ = random_document(rng, m)
            queries.append(Query(("homology", "--graph", "-", "--json"), doc, genus))

            doc, genus, cycle = random_document(rng, m, with_cycle=True)
            gamma = frozenset(e for e in range(m) if rng.random() < 0.5)
            argv = (
                "cover", "--graph", "-", "--json",
                "--gamma", ",".join(map(str, sorted(gamma))),
                "--alpha", ",".join(map(str, sorted(cycle))),
            )
            queries.append(Query(argv, doc, genus, cycle, gamma))

            doc, genus, _ = random_document(rng, m)
            queries.append(Query(("torsion", "--graph", "-", "--json"), doc, genus))
    for m in TROPICAL_EDGE_COUNTS:
        for r in (2, 3, 4, 5):
            if r * m > SUBDIVIDED_EDGE_BUDGET:
                continue
            for mode in ("all", "nonsep"):
                doc, genus, _ = random_document(rng, m)
                argv = ("tropical", "--graph", "-", "--json", "--r", str(r), "--mode", mode)
                queries.append(Query(argv, doc, genus))
    rng.shuffle(queries)
    return queries


def check_report(query: Query, code: int, out: str) -> list[str]:
    """Why a query's exit code and report are wrong; empty when they are right."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(out)
        p = report["payload"]
        return [f"{' '.join(query.argv)}: {x}" for x in _report_problems(query, report, p)]
    except (ValueError, KeyError, TypeError) as err:
        return [f"{' '.join(query.argv)}: malformed report ({err!r})"]


def _report_problems(query: Query, report: dict, p: dict) -> list[str]:
    command = query.argv[0]
    problems = []
    if report["command"] != command:
        problems.append(f"report for {report['command']}")
    if command == "homology":
        g = query.genus
        identity = [[int(i == j) for j in range(g)] for i in range(g)]
        if p["genus"] != g or p["gram"] != identity or p["perfect"] is not True:
            problems.append("gram is not the identity")
    elif command == "cover":
        length = len(query.alpha)
        bit = len(query.alpha & query.gamma) % 2
        shape = [2 * length] if p["lift_count"] == 1 else [length, length]
        if p["agree"] is not True or p["pairing_cover"] != bit:
            problems.append("cover bit disagrees")
        if p["lift_count"] not in (1, 2) or p["lift_sizes"] != shape:
            problems.append(f"lift shape {p['lift_sizes']}")
    elif command == "torsion":
        if p["two_torsion_order"] != 2 ** p["form_dimension"]:
            problems.append("torsion order is not 2**form dimension")
        if p["alternating"] is not True or p["invertible"] != p["nondegenerate"]:
            problems.append("weil form criterion")
        if p["graph_genus"] != query.genus:
            problems.append("graph genus")
    elif command == "tropical":
        r = int(query.argv[query.argv.index("--r") + 1])
        if p["verdict"] is not True or p["torsion_count"] != r ** query.genus:
            problems.append("torsion count is not r**genus")
    return problems


def run_query(query: Query) -> tuple[int, str, str, float]:
    """One in-process command call: exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(query.document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = cli.main(list(query.argv))
            elapsed = perf_counter() - t0
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), elapsed


# Reports the checker must reject: one corruption per command.
CORRUPTIONS = {
    "homology": lambda p: p.update(perfect=False),
    "cover": lambda p: p.update(pairing_cover=1 - p["pairing_cover"]),
    "torsion": lambda p: p.update(two_torsion_order=2 * p["two_torsion_order"]),
    "tropical": lambda p: p.update(torsion_count=p["torsion_count"] + 1),
}


class QueryWorkload:
    """Batches of command calls; each call starts cold, like a new process."""

    # Twelve batches give at least 1056 latencies, so the tail is always p99
    # with at least ten samples beyond it; the digest covers these batches.
    min_passes = 12

    def __init__(self, seed: int):
        self.seed = seed
        self._reports: dict[str, tuple[Query, str]] = {}

    def run_pass(self, index: int) -> PassRecord:
        rec = PassRecord()
        batch = make_batch(self.seed, index)
        gc.collect()
        start = perf_counter()
        for query in batch:
            clear_caches()
            code, out, err, elapsed = run_query(query)
            rec.read_basis_cache()
            rec.latencies_s.append(elapsed)
            rec.attempted += 1
            problems = check_report(query, code, out) if not err else [f"stderr: {err.strip()}"]
            if problems:
                rec.fail(problems[0])
            rec.digest_items.append(out)
            self._reports.setdefault(query.argv[0], (query, out))
        rec.wall_s = perf_counter() - start
        return rec

    @staticmethod
    def latency_samples(records: list[PassRecord]) -> list[float]:
        """Every query's time."""
        return [x for r in records for x in r.latencies_s]

    def liveness(self) -> list[str]:
        """Show that the checker can fail: corrupted reports must be rejected."""
        problems = []
        for command, corrupt in CORRUPTIONS.items():
            if command not in self._reports:
                problems.append(f"no {command} report to corrupt")
                continue
            query, out = self._reports[command]
            report = json.loads(out)
            corrupt(report["payload"])
            if not check_report(query, 0, json.dumps(report)):
                problems.append(f"checker accepted a corrupted {command} report")
        return problems


def digest(records: list[PassRecord]) -> str:
    h = hashlib.sha256()
    for rec in records:
        for item in rec.digest_items:
            h.update(item.encode())
            h.update(b"\n")
    return h.hexdigest()


WORKLOADS = {
    "sweep-gf2": lambda seed: SweepWorkload(
        ("perfect_pairing", "pairing_equivalence", "model"), seed
    ),
    "sweep-chipfiring": lambda seed: SweepWorkload(("torsion", "kirchhoff"), seed),
    "cli-queries": QueryWorkload,
}
