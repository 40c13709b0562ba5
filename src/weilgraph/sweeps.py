"""Exhaustive verification sweeps over all small connected multigraphs.

The enumerator generates one representative per sorted first-use edge list:
edge lists are lexicographically nondecreasing, vertex labels make their
first appearance in increasing order, and a new vertex may only enter as
the second endpoint of an edge anchored at an already-used vertex (a new
vertex opening a fresh component could never reconnect later, the edge
list being sorted).  Every connected multigraph is isomorphic to at least
one generated graph: relabel it so its sorted edge list is
lexicographically minimal, and that minimal code has increasing first use.
A test cross-validates this against brute-force relabeling.

Each sweep pits two independent routes to the same bit or count against
each other and records counterexamples instead of raising, so callers can
print them and exit nonzero.  ``inject_fault=True`` deliberately corrupts
the first comparison of a sweep; it exists so the harness can demonstrate
that it would actually catch a wrong answer.

Facts about a graph are derived once per graph, and every check still runs
once per instance.  Per graph: the simple cycles (validated once by
``all_simple_cycles``, then lifted and paired through the unchecked cores
``cover._lift_cycle`` and ``homology._parity``), the echelon basis of the
coboundary image that ``_is_coboundary`` reduces against, and, in the
model sweep, the reduced-graph blocks of each set of even edges
(``curvemodel``'s cache, keyed on the graph and that set).  Per
instance: one double cover and its connectivity, one reduction of the
cochain against the coboundary basis, one lift and one parity per simple
cycle, and one Weil form with all of its checks per model.

The model sweep's cover check pairs the cocycles of each all-even model
with its fundamental cycles (one non-forest edge closed by a forest path),
which are simple and go through the cover whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Iterator, Mapping, Sequence

from .cover import _lift_cycle, build_double_cover, lift_shape_ok, pairing_via_cover
from .curvemodel import TwistedCurveModel
from .graphs import MultiGraph
from .homology import (
    Chain1,
    Cochain1,
    _parity,
    is_perfect_pairing,
    is_simple_cycle,
)
from .linalg import GF2Matrix, _echelon, _reduce
from .sandpile import Divisor, divisors_equivalent, verify_torsion_on_subdivision

__all__ = [
    "SweepResult",
    "all_cochains",
    "all_simple_cycles",
    "connected_multigraphs",
    "model_sweep",
    "pairing_equivalence_sweep",
    "perfect_pairing_sweep",
    "torsion_sweep",
]

_MAX_RECORDED = 10


@dataclass
class SweepResult:
    """Outcome of one sweep: instance count and recorded counterexamples."""

    name: str
    instances: int = 0
    failure_count: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def record(self, **info) -> None:
        self.failure_count += 1
        if len(self.failures) < _MAX_RECORDED:
            self.failures.append(info)

    def summary(self) -> str:
        state = "ok" if self.ok else f"FAIL ({self.failure_count} counterexamples)"
        return f"{self.name}: {self.instances} instances, {state}"


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def connected_multigraphs(max_edges: int) -> Iterator[MultiGraph]:
    """All connected multigraphs with at most ``max_edges`` edges.

    One representative per sorted first-use edge list; every isomorphism
    class appears at least once.  The single-vertex edgeless graph is the
    unique zero-edge case.
    """
    if max_edges < 0:
        raise ValueError("edge bound must be non-negative")
    yield MultiGraph(1, ())
    for m in range(1, max_edges + 1):
        yield from _connected_with_edges([], m, 1)


def _connected_with_edges(
    edges: list[tuple[int, int]], m: int, used: int
) -> Iterator[MultiGraph]:
    # extend the sorted first-use edge list ``edges`` on ``used`` vertices
    # to m edges; a module-level generator, not a closure, so an exhausted
    # enumeration leaves no function-cell cycle for the collector
    if len(edges) == m:
        yield MultiGraph(used, tuple(edges))
        return
    lu, lv = edges[-1] if edges else (0, 0)
    for u in range(lu, used):
        start = lv if u == lu else u
        for v in range(start, used + 1):
            edges.append((u, v))
            yield from _connected_with_edges(edges, m, used + 1 if v == used else used)
            edges.pop()


def all_cochains(graph: MultiGraph) -> Iterator[Cochain1]:
    """Every GF(2) edge function, in bitmask order."""
    m = graph.edge_count
    for mask in range(1 << m):
        yield Cochain1._of(graph, frozenset(e for e in range(m) if mask >> e & 1))


def all_simple_cycles(graph: MultiGraph) -> tuple[Chain1, ...]:
    """Every simple cycle, by subset search.  Exponential; sweep-sized only.

    A subset whose GF(2) boundary is nonzero is no cycle and is skipped
    before any chain is built; every other one goes to ``is_simple_cycle``.
    """
    out: list[Chain1] = []
    m = graph.edge_count
    ends = [(1 << u) ^ (1 << v) for u, v in graph.edges]
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            boundary = 0
            for e in combo:
                boundary ^= ends[e]
            if boundary:
                continue
            chain = Chain1._of(graph, frozenset(combo))
            if is_simple_cycle(chain):
                out.append(chain)
    return tuple(out)


def _coboundary_basis(graph: MultiGraph) -> dict[int, int]:
    """Echelon basis of the coboundary image, as edge bit rows keyed by
    lowest set bit: the coboundary of each vertex is its non-loop edges."""
    rows = [0] * graph.vertex_count
    for e, (u, v) in enumerate(graph.edges):
        if u != v:
            rows[u] |= 1 << e
            rows[v] |= 1 << e
    return _echelon(rows)


def _is_coboundary(basis: Mapping[int, int], gamma: Cochain1) -> bool:
    # gamma lies in the image of the vertex-function coboundary map, whose
    # echelon basis is ``basis``
    return not _reduce(sum(1 << e for e in gamma.edges), basis)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def perfect_pairing_sweep(max_edges: int = 6) -> SweepResult:
    """Canonical bases pair to the identity Gram on every small graph."""
    res = SweepResult("perfect-pairing")
    for graph in connected_multigraphs(max_edges):
        res.instances += 1
        ok, gram = is_perfect_pairing(graph)
        genus = graph.genus()
        if not ok or gram != GF2Matrix.identity(genus):
            res.record(kind="gram", graph=graph.edges, genus=genus)
    return res


def pairing_equivalence_sweep(max_edges: int = 6, inject_fault: bool = False) -> SweepResult:
    """Cover-side pairing against algebraic pairing, every (graph, cochain,
    simple cycle) triple; lift shapes and cover connectivity ride along.

    ``instances`` counts the triples.
    """
    res = SweepResult("cover-lift-pairing")
    fault = inject_fault
    for graph in connected_multigraphs(max_edges):
        cycles = all_simple_cycles(graph)
        basis = _coboundary_basis(graph)
        for gamma in all_cochains(graph):
            cover = build_double_cover(graph, gamma)
            connected = cover.is_connected()
            if connected == _is_coboundary(basis, gamma):
                res.record(
                    kind="connectivity",
                    graph=graph.edges,
                    gamma=sorted(gamma.edges),
                    connected=connected,
                )
            for alpha in cycles:
                res.instances += 1
                lift = _lift_cycle(cover, alpha.edges)
                count, comps = lift
                bit_cover = 1 if count == 1 else 0
                if fault:
                    bit_cover ^= 1
                    fault = False
                bit_algebraic = _parity(gamma.edges, alpha.edges)
                if bit_cover != bit_algebraic or not lift_shape_ok(lift, len(alpha.edges)):
                    res.record(
                        kind="pairing",
                        graph=graph.edges,
                        gamma=sorted(gamma.edges),
                        alpha=sorted(alpha.edges),
                        cover_bit=bit_cover,
                        algebraic_bit=bit_algebraic,
                        components=[sorted(c) for c in comps],
                    )
    return res


def model_sweep(max_edges: int = 5, inject_fault: bool = False) -> SweepResult:
    """Torsion counts and Weil form over all small models.

    Enumerates every connected graph up to the bound, every stabilizer
    parity pattern, every genus-0/1 assignment.  Checks, per instance: the
    two-torsion order exponent against the assembled form dimension, the
    full-size criterion (order equals 2^(2g) exactly when all
    non-separating edges are even), invertibility of the Gram against the
    same criterion, the Gram being alternating, the h block isotropic and
    orthogonal to the component block, and, on all-even genus-free models,
    the h x q Gram entries against the cover pairing of fundamental cycles.
    """
    res = SweepResult("torsion-order-and-form")
    fault = inject_fault
    for graph in connected_multigraphs(max_edges):
        m = graph.edge_count
        n = graph.vertex_count
        nonsep = graph.non_separating_edges()
        for parity_mask in range(1 << m):
            orders = tuple(2 if parity_mask >> e & 1 else 1 for e in range(m))
            all_even_nonsep = all(orders[e] % 2 == 0 for e in nonsep)
            for genera_mask in range(1 << n):
                genera = tuple(genera_mask >> v & 1 for v in range(n))
                model = TwistedCurveModel(graph, genera, orders)
                res.instances += 1
                form = model.weil_form()
                if fault and form.total_dim > 0:
                    flipped = form.gram.tolist()
                    flipped[0][form.total_dim - 1] ^= 1
                    form = replace(form, gram=GF2Matrix(flipped))
                    fault = False
                order = model.two_torsion_order()
                g = model.arithmetic_genus()
                problems = []
                if order != 2 ** form.total_dim:
                    problems.append("order-vs-dimension")
                if (order == 2 ** (2 * g)) != all_even_nonsep:
                    problems.append("full-size-criterion")
                if form.gram.is_invertible() != all_even_nonsep:
                    problems.append("invertibility-criterion")
                if not form.is_alternating():
                    problems.append("alternating")
                h, c = form.h_dim, form.component_dim
                if not form.gram.block_is_zero(range(h), range(h + c)):
                    problems.append("h-isotropy")
                if problems:
                    res.record(
                        kind=",".join(problems),
                        graph=graph.edges,
                        orders=orders,
                        genera=genera,
                    )
            # cover consistency once per graph, on the all-even genus-free model
            if parity_mask == (1 << m) - 1:
                model = TwistedCurveModel(graph, (0,) * n, orders)
                form = model.weil_form()
                h, c = form.h_dim, form.component_dim
                for i, gamma in enumerate(form.cocycles):
                    for j, alpha in enumerate(form.reduced_cycles):
                        res.instances += 1
                        expected = form.gram.entry(i, h + c + j)
                        if pairing_via_cover(graph, gamma, alpha) != expected:
                            res.record(
                                kind="cover-consistency",
                                graph=graph.edges,
                                gamma=sorted(gamma.edges),
                                alpha=sorted(alpha.edges),
                            )
    return res


def torsion_sweep(
    max_edges: int = 6,
    rs: Sequence[int] = (2, 3, 4, 5),
    inject_fault: bool = False,
) -> SweepResult:
    """Subdivision r-torsion on every small graph, both subdivision modes.

    Per instance: the realized torsion count must be r to the graph genus,
    every generator must have degree zero and support inside the child's
    vertex set, and r times each generator must reduce to zero (checked by
    burning, not by the Smith form that produced the generator).
    """
    if any(r < 1 for r in rs):
        raise ValueError("torsion indices must be positive")
    res = SweepResult("subdivision-r-torsion")
    fault = inject_fault
    for graph in connected_multigraphs(max_edges):
        for r in rs:
            for mode in ("all", "nonsep"):
                res.instances += 1
                report = verify_torsion_on_subdivision(graph, r, mode)
                count = report.torsion_count
                if fault:
                    count += 1
                    fault = False
                problems = []
                if count != report.expected or not report.verdict:
                    problems.append("count")
                child = report.subdivision
                for gen in report.generators:
                    if gen.degree() != 0:
                        problems.append("generator-degree")
                        break
                    if not divisors_equivalent(
                        child, gen.scale(r), Divisor.zero(child), base=0
                    ):
                        problems.append("generator-order")
                        break
                if problems:
                    res.record(
                        kind=",".join(problems),
                        graph=graph.edges,
                        r=r,
                        mode=mode,
                        count=count,
                        expected=report.expected,
                        factors=report.invariant_factors,
                    )
    return res
