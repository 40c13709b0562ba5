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

Each instance family has one check function, which returns the kinds of
the checks that fail on one instance: ``_pairing_problems`` (a cover bit
against the algebraic bit, and the lift's shape), ``_model_problems`` (a
decoration's order and Weil form) and ``_torsion_problems`` (a subdivision
torsion report).  The sweeps call them, and so do the single-instance
commands of ``cli``, so a check is written once.

Facts about a graph are derived once per graph, and every check still runs
once per instance.  Per graph: the simple cycles (validated once by
``all_simple_cycles``, then lifted and paired through the unchecked cores
``cover._lift_cycle`` and ``homology._parity``), each cycle's lifted edge
list and length (``cover._lifted_edges``, the same for every cover of the
graph), the echelon basis of the coboundary image that ``_is_coboundary``
reduces against, and, in the model sweep, the non-separating edges, the
genus and the vertex genus tuples.  Per graph and set of even edges, in
the model sweep: the set, its reduced-graph blocks (one
``curvemodel._reduced_blocks`` call) and the reduced genus.  Per instance:
one double cover and its connectivity, one reduction of the cochain's bit row
(its index in ``all_cochains``) against the coboundary basis, one lift and
one parity per simple cycle; and per decoration, no model object but its
arithmetic genus, its own Gram and order from ``curvemodel._weil_form``
and ``_two_torsion_order`` (the functions the model's public methods call),
and all five checks of ``_model_problems``.

The model sweep's cover check takes the same lift path as the pairing
sweep, once per graph, on its all-even genus-free model: one double cover
per cocycle of the h block, one lifted edge list per cycle of the q block,
and one ``cover._lift_cycle`` per pair.  The q cycles are fundamental
cycles of the reduced graph (one non-forest edge closed by a forest path),
so they are simple and need no check before the unchecked lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Collection, Iterator, Mapping, Sequence

from .cover import _lift_cycle, _lifted_edges, build_double_cover, lift_shape_ok
from .curvemodel import (
    WeilFormModel,
    _reduced_blocks,
    _two_torsion_order,
    _weil_form,
)
from .graphs import MultiGraph
from .homology import (
    Chain1,
    Cochain1,
    _parity,
    is_simple_cycle,
    pairing_gram,
)
from .linalg import GF2Matrix, _echelon, _reduce
from .sandpile import TorsionReport, dhar_reduce, verify_torsion_on_subdivision

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
    unique zero-edge case.  Each graph is built unchecked: its endpoints
    are ints below its vertex count by construction.
    """
    if max_edges < 0:
        raise ValueError("edge bound must be non-negative")
    yield MultiGraph._of(1, ())
    for m in range(1, max_edges + 1):
        yield from _connected_with_edges([], m, 1)


def _connected_with_edges(
    edges: list[tuple[int, int]], m: int, used: int
) -> Iterator[MultiGraph]:
    # extend the sorted first-use edge list ``edges`` on ``used`` vertices
    # to m edges; a module-level generator, not a closure, so an exhausted
    # enumeration leaves no function-cell cycle for the collector
    if len(edges) == m:
        yield MultiGraph._of(used, tuple(edges))
        return
    lu, lv = edges[-1] if edges else (0, 0)
    for u in range(lu, used):
        start = lv if u == lu else u
        for v in range(start, used + 1):
            edges.append((u, v))
            yield from _connected_with_edges(edges, m, used + 1 if v == used else used)
            edges.pop()


def all_cochains(graph: MultiGraph) -> Iterator[Cochain1]:
    """Every GF(2) edge function, in bitmask order: the one yielded at
    index ``mask`` has support ``{e : mask >> e & 1}``, so ``mask`` is its
    bit row.

    The supports are built before the first is yielded, by doubling: those
    of the masks below ``2 ** (e + 1)`` are those below ``2 ** e``, then
    each of them with edge ``e`` added.
    """
    supports = [frozenset()]
    for e in range(graph.edge_count):
        bit = {e}
        supports += [support | bit for support in supports]
    for support in supports:
        yield Cochain1._of(graph, support)


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


def _is_coboundary(basis: Mapping[int, int], bits: int) -> bool:
    # the cochain whose bit row is ``bits`` (bit e set when edge e is in its
    # support) lies in the image of the vertex-function coboundary map, whose
    # echelon basis is ``basis``
    return not _reduce(bits, basis)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def perfect_pairing_sweep(max_edges: int = 6) -> SweepResult:
    """Canonical bases pair to the identity Gram on every small graph."""
    res = SweepResult("perfect-pairing")
    for graph in connected_multigraphs(max_edges):
        res.instances += 1
        genus = graph.genus()
        if pairing_gram(graph) != GF2Matrix.identity(genus):
            res.record(kind="gram", graph=graph.edges, genus=genus)
    return res


def _pairing_problems(
    cover_bit: int, algebraic_bit: int, components: Sequence[Collection[int]], length: int
) -> list[str]:
    """The kinds of the checks that fail on one lift of a simple cycle of
    length ``length``: its ``components`` and the cover bit read off them,
    against the algebraic bit.

    The two bits must agree (``pairing``), and the components must be one
    cycle of twice the length or two of the length (``lift-shape``).
    """
    problems = []
    if cover_bit != algebraic_bit:
        problems.append("pairing")
    if not lift_shape_ok(components, length):
        problems.append("lift-shape")
    return problems


def pairing_equivalence_sweep(max_edges: int = 6, inject_fault: bool = False) -> SweepResult:
    """Cover-side pairing against algebraic pairing, every (graph, cochain,
    simple cycle) triple; lift shapes and cover connectivity ride along.

    ``instances`` counts the triples.
    """
    res = SweepResult("cover-lift-pairing")
    fault = inject_fault
    for graph in connected_multigraphs(max_edges):
        cycles = [
            (alpha, _lifted_edges(alpha.edges), len(alpha.edges))
            for alpha in all_simple_cycles(graph)
        ]
        basis = _coboundary_basis(graph)
        for mask, gamma in enumerate(all_cochains(graph)):
            cover = build_double_cover(gamma)
            connected = cover.is_connected()
            if connected == _is_coboundary(basis, mask):
                res.record(
                    kind="connectivity",
                    graph=graph.edges,
                    gamma=sorted(gamma.edges),
                    connected=connected,
                )
            res.instances += len(cycles)
            for alpha, lifted, length in cycles:
                comps = _lift_cycle(cover, lifted)
                bit_cover = 1 if len(comps) == 1 else 0
                if fault:
                    bit_cover ^= 1
                    fault = False
                bit_algebraic = _parity(gamma.edges, alpha.edges)
                problems = _pairing_problems(bit_cover, bit_algebraic, comps, length)
                if problems:
                    res.record(
                        kind=",".join(problems),
                        graph=graph.edges,
                        gamma=sorted(gamma.edges),
                        alpha=sorted(alpha.edges),
                        cover_bit=bit_cover,
                        algebraic_bit=bit_algebraic,
                        components=[sorted(c) for c in comps],
                    )
    return res


def _model_problems(
    arithmetic_genus: int, form: WeilFormModel, order: int, full_size: bool
) -> list[str]:
    """The kinds of the checks that fail on one model of arithmetic genus
    ``arithmetic_genus`` with Weil form ``form`` and 2-torsion order
    ``order``; ``full_size`` says whether every non-separating edge is even.

    The order exponent must be the form dimension (``order-vs-dimension``);
    the order must be ``2 ** (2 g)``, ``g`` the arithmetic genus, and the Gram
    invertible, exactly when ``full_size`` (``full-size-criterion``,
    ``invertibility-criterion``); the Gram must be alternating
    (``alternating``) and its h block isotropic and orthogonal to the
    component block (``h-isotropy``).
    """
    problems = []
    if order != 2 ** form.total_dim:
        problems.append("order-vs-dimension")
    if (order == 2 ** (2 * arithmetic_genus)) != full_size:
        problems.append("full-size-criterion")
    if form.gram.is_invertible() != full_size:
        problems.append("invertibility-criterion")
    if not form.is_alternating():
        problems.append("alternating")
    h, c = form.h_dim, form.component_dim
    if not form.gram.block_is_zero(range(h), range(h + c)):
        problems.append("h-isotropy")
    return problems


def model_sweep(max_edges: int = 5, inject_fault: bool = False) -> SweepResult:
    """Torsion counts and Weil form over all small models.

    Enumerates every connected graph up to the bound, every stabilizer
    parity pattern, every genus-0/1 assignment, and runs ``_model_problems``
    on each model; on all-even genus-free models it also checks the h x q
    Gram entries against the cover pairing of fundamental cycles, one cover
    per cocycle and one unchecked lift per entry.

    Per graph: its non-separating edges, its genus and the genus tuples.
    Per (graph, even-edge set): the set, its reduced-graph blocks and the
    reduced genus, an Euler count of the reduced graph.  Per model, with no
    model object: its arithmetic genus, its own Gram
    (``curvemodel._weil_form``), its order (``_two_torsion_order``) and all
    of its checks.
    """
    res = SweepResult("torsion-order-and-form")
    fault = inject_fault
    for graph in connected_multigraphs(max_edges):
        m = graph.edge_count
        n = graph.vertex_count
        nonsep = graph.non_separating_edges()
        graph_genus = graph.genus()
        all_genera = [
            tuple(genera_mask >> v & 1 for v in range(n)) for genera_mask in range(1 << n)
        ]
        for parity_mask in range(1 << m):
            orders = tuple(2 if parity_mask >> e & 1 else 1 for e in range(m))
            even = frozenset(e for e in range(m) if parity_mask >> e & 1)
            blocks = _reduced_blocks(graph, even)
            reduced_genus = blocks.reduced.genus()
            full_size = nonsep <= even
            for genera in all_genera:
                res.instances += 1
                form = _weil_form(blocks, genera)
                if fault and form.total_dim > 0:
                    flipped = form.gram.tolist()
                    flipped[0][form.total_dim - 1] ^= 1
                    form = replace(form, gram=GF2Matrix(flipped))
                    fault = False
                arithmetic_genus = graph_genus + sum(genera)
                order = _two_torsion_order(arithmetic_genus, graph_genus, reduced_genus)
                problems = _model_problems(arithmetic_genus, form, order, full_size)
                if problems:
                    res.record(
                        kind=",".join(problems),
                        graph=graph.edges,
                        orders=orders,
                        genera=genera,
                    )
            # cover consistency once per graph, on the all-even genus-free model
            if parity_mask == (1 << m) - 1:
                form = _weil_form(blocks, (0,) * n)
                h, c = form.h_dim, form.component_dim
                cycles = [(alpha, _lifted_edges(alpha.edges)) for alpha in form.reduced_cycles]
                for i, gamma in enumerate(form.cocycles):
                    cover = build_double_cover(gamma)
                    for j, (alpha, lifted) in enumerate(cycles):
                        res.instances += 1
                        bit_cover = 1 if len(_lift_cycle(cover, lifted)) == 1 else 0
                        if bit_cover != form.gram.entry(i, h + c + j):
                            res.record(
                                kind="cover-consistency",
                                graph=graph.edges,
                                gamma=sorted(gamma.edges),
                                alpha=sorted(alpha.edges),
                            )
    return res


def _torsion_problems(report: TorsionReport, r: int) -> list[str]:
    """The kinds of the checks that fail on one r-subdivision's torsion report.

    The realized torsion count must be ``report.expected``, r to the graph
    genus (``count``, read off ``report.verdict``); every generator must
    have degree zero (``generator-degree``), and r times each generator
    must reduce to zero (``generator-order``), the zero divisor being the
    reduced one of its class.  That is one burn per generator,
    ``dhar_reduce``, not the Smith form that produced the generator.  The
    first generator that fails ends the generator checks.  A generator on
    another graph than the child is no counterexample: ``dhar_reduce``
    raises.
    """
    problems = []
    if not report.verdict:
        problems.append("count")
    child = report.subdivision
    for gen in report.generators:
        if gen.degree() != 0:
            problems.append("generator-degree")
            break
        if any(dhar_reduce(child, gen.scale(r)).coefficients):
            problems.append("generator-order")
            break
    return problems


def torsion_sweep(
    max_edges: int = 6,
    rs: Sequence[int] = (2, 3, 4, 5),
    inject_fault: bool = False,
) -> SweepResult:
    """Subdivision r-torsion on every small graph, both subdivision modes:
    ``_torsion_problems`` on each instance, its failures recorded under
    their kinds."""
    if any(r < 1 for r in rs):
        raise ValueError("torsion indices must be positive")
    res = SweepResult("subdivision-r-torsion")
    fault = inject_fault
    for graph in connected_multigraphs(max_edges):
        for r in rs:
            for mode in ("all", "nonsep"):
                res.instances += 1
                report = verify_torsion_on_subdivision(graph, r, mode)
                if fault:
                    report = replace(report, torsion_count=report.torsion_count + 1)
                    fault = False
                problems = _torsion_problems(report, r)
                if problems:
                    res.record(
                        kind=",".join(problems),
                        graph=graph.edges,
                        r=r,
                        mode=mode,
                        count=report.torsion_count,
                        expected=report.expected,
                        factors=report.invariant_factors,
                    )
    return res
