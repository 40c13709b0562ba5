"""Chip firing: Laplacians, critical groups, reduced divisors, torsion.

Conventions.  The Laplacian has the non-loop degree on the diagonal and
minus the edge multiplicity off it; loops contribute nothing anywhere, so
firing a vertex never moves chips along a loop.  The critical group of a
connected graph is the cokernel of the reduced Laplacian (vertex 0's row
and column deleted), presented through its Smith normal form.  Its generator
divisors, one per nontrivial invariant factor, are those columns of the
left transform's inverse, undone from the form's recorded row steps.

A divisor equivalence check rides on Dhar's burning algorithm: every class
has a unique representative reduced at vertex 0, found by making the
divisor effective away from vertex 0 and then repeatedly firing what the
fire from vertex 0 fails to burn.  Two divisors are equivalent exactly
when their difference reduces to zero, so an equivalence check burns once.
Burning reads the cached Smith form only to pick a principal shift, taken
exactly when some entry off vertex 0 lies outside the degree box
``[-deg(v), deg(v)]`` (``deg`` the non-loop degree), the box the shift is
proven to land in.  The shift applies the form's recorded elimination
steps to its one vector, and no dense transform is built.  Any integer
firing vector keeps the divisor class: a wrong Smith form could slow
burning down but could not change its answer.  So the two routes can still
be played against each other in tests.  Burning reads one cached table per
graph, holding neighbor lists, degrees and distances from vertex 0, and
moves chips by one firing step, ``_fire``, whether it shifts, fires balls
or fires the unburnt set.  The Laplacian matrices are built apart from
that table.

The subdivision check at the bottom is the reason this module exists: on
the r-subdivision of a graph, the r-torsion of the critical group has
order exactly r to the graph genus, with generators supported on the
subdivision's vertices.  Without subdividing, the count is generally
wrong, which ``verify_torsion_on_subdivision`` makes observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from operator import index, sub
from typing import Sequence

from .graphs import MultiGraph
from .linalg import IntMatrix, smith_normal_form

__all__ = [
    "CriticalGroup",
    "Divisor",
    "TorsionReport",
    "critical_group",
    "dhar_reduce",
    "divisors_equivalent",
    "laplacian",
    "reduced_laplacian",
    "spanning_tree_count",
    "verify_torsion_on_subdivision",
]


@dataclass(frozen=True)
class Divisor:
    """Integer chip counts on the vertices of a fixed graph."""

    graph: MultiGraph
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(index, self.coefficients))
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != self.graph.vertex_count:
            raise ValueError("one coefficient per vertex required")

    @classmethod
    def _of(cls, graph: MultiGraph, coefficients: tuple[int, ...]) -> "Divisor":
        """A divisor on trusted coefficients: an int tuple, one per vertex."""
        divisor = object.__new__(cls)
        object.__setattr__(divisor, "graph", graph)
        object.__setattr__(divisor, "coefficients", coefficients)
        return divisor

    @classmethod
    def zero(cls, graph: MultiGraph) -> "Divisor":
        return cls._of(graph, (0,) * graph.vertex_count)

    def degree(self) -> int:
        return sum(self.coefficients)

    def __sub__(self, other: "Divisor") -> "Divisor":
        if self.graph != other.graph:
            raise ValueError("divisors live on different graphs")
        return Divisor._of(self.graph, tuple(map(sub, self.coefficients, other.coefficients)))

    def scale(self, k: int) -> "Divisor":
        k = index(k)
        return Divisor._of(self.graph, tuple(k * a for a in self.coefficients))


def laplacian(graph: MultiGraph) -> IntMatrix:
    """Graph Laplacian; loops contribute zero."""
    return _laplacian_rows(graph, graph.vertex_count)


def reduced_laplacian(graph: MultiGraph) -> IntMatrix:
    """The Laplacian with vertex 0's row and column deleted."""
    if graph.vertex_count == 0:
        raise ValueError("reduced Laplacian of the empty graph: it has no vertices")
    return _laplacian_rows(graph, 0)


def _laplacian_rows(graph: MultiGraph, base: int) -> IntMatrix:
    # the Laplacian without vertex `base`; base == vertex_count keeps all
    n = graph.vertex_count
    k = n - (base < n)
    slot = [v - (v > base) for v in range(n)]
    entries = [[0] * k for _ in range(k)]
    for u, v in graph.edges:
        if u == v:
            continue
        if u != base:
            i = slot[u]
            entries[i][i] += 1
            if v != base:
                entries[i][slot[v]] -= 1
        if v != base:
            j = slot[v]
            entries[j][j] += 1
            if u != base:
                entries[j][slot[u]] -= 1
    return IntMatrix._of(tuple(map(tuple, entries)), k)


def spanning_tree_count(graph: MultiGraph) -> int:
    """Number of spanning trees, by the matrix-tree determinant."""
    if not graph.is_connected():
        raise ValueError("spanning trees need a connected graph")
    return reduced_laplacian(graph).det()


# ---------------------------------------------------------------------------
# Reduced divisors via burning
# ---------------------------------------------------------------------------


_Neighbors = tuple[tuple[tuple[int, int], ...], ...]


# Each graph is burnt and shifted in a run of calls, then left: from
# cold caches, torsion_sweep(5, rs=(2, 3, 4, 5)) misses _burn_data 4316 times
# and _reduced_smith 4637 times (8444 hits) at any maxsize from 2 up.
@lru_cache(maxsize=16)
def _burn_data(graph: MultiGraph) -> tuple[_Neighbors, tuple[int, ...], tuple[int, ...]]:
    # per-vertex (neighbor, multiplicity) pairs with loops dropped (loops
    # never move chips or carry fire), the non-loop degree, which is the
    # half-width of the degree box, and the distance from vertex 0 along
    # non-loop edges, -1 where vertex 0 never reaches
    nbs: list[dict[int, int]] = [{} for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        if u != v:
            nbs[u][v] = nbs[u].get(v, 0) + 1
            nbs[v][u] = nbs[v].get(u, 0) + 1
    neigh = tuple(tuple(sorted(nb.items())) for nb in nbs)
    dist = [-1] * graph.vertex_count
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for y, _ in neigh[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    degree = tuple(sum(mult for _, mult in nb) for nb in neigh)
    return neigh, degree, tuple(dist)


@lru_cache(maxsize=16)
def _reduced_smith(graph: MultiGraph):
    return smith_normal_form(reduced_laplacian(graph))


def _fire(d: list[int], neigh: _Neighbors, fire: Sequence[int]) -> None:
    """``d -= L fire`` in place, ``L`` the Laplacian of the neighbor lists:
    each vertex ``v`` fires ``fire[v]`` times, one chip along each edge."""
    for v, nb in enumerate(neigh):
        xv = fire[v]
        for w, mult in nb:
            d[v] += mult * (fire[w] - xv)


def _principal_shift(graph: MultiGraph, d: list[int]) -> list[int]:
    """Shift ``d`` by a principal divisor so its entries become small.

    Solves the reduced Laplacian system ``L x = d`` exactly through the
    cached Smith form, in integers over the common denominator: with ``D``
    the last invariant factor, ``x * D = V (D / d_i) (U d)_i``.  The form
    applies its recorded elimination steps to the vector, first ``U`` and
    then ``V``, so the shift costs time linear in those steps and no dense
    transform is built.  It rounds the solution to the nearest integer
    firing vector and applies that firing.  The result is ``L (x -
    round(x))`` away from vertex 0, so every entry there is bounded by the
    vertex's non-loop degree wherever ``d`` started.  Only the choice of
    representative changes: any integer firing vector, even one from a
    wrong Smith form, leaves the class alone.
    """
    snf = _reduced_smith(graph)
    big = snf.diagonal[-1]
    y = snf.left_times(d[1:])
    y = [u * (big // dgn) for u, dgn in zip(y, snf.diagonal)]
    fire = [(2 * x + big) // (2 * big) for x in snf.right_times(y)]
    out = list(d)
    _fire(out, _burn_data(graph)[0], [0, *fire])
    return out


def dhar_reduce(graph: MultiGraph, divisor: Divisor) -> Divisor:
    """The unique divisor reduced at vertex 0 equivalent to ``divisor``.

    When some entry off vertex 0 lies outside the degree box
    ``[-deg(v), deg(v)]`` (``deg`` the non-loop degree), the divisor is
    first shifted by the principal divisor of the rounded rational solution
    of the Laplacian system, which lands every such entry inside the box
    without leaving the class; a divisor already in the box is left as it
    is, so the rule never fires twice.  Phase one then makes the divisor
    effective away from vertex 0 by firing the balls around vertex 0,
    farthest layer first: firing the ball of radius k-1 pushes chips into
    layer k and touches nothing farther out, and the needed multiplicity
    has a closed form.  Phase two is Dhar's loop: burn from vertex 0, fire
    the unburnt set as many times as it stays effective, repeat until the
    fire eats everything.  All steps are integer set firings, so the class
    never changes.
    """
    if divisor.graph != graph:
        raise ValueError("divisor lives on a different graph")
    n = graph.vertex_count
    if n == 0:
        raise ValueError("reduction on the empty graph: it has no vertices")
    neigh, degree, dist = _burn_data(graph)
    if -1 in dist:
        raise ValueError("reduction needs a connected graph")

    d = list(divisor.coefficients)
    if any(abs(c) > deg for c, deg in zip(d[1:], degree[1:])):
        d = _principal_shift(graph, d)
    depth = max(dist)

    # phase one: effective away from vertex 0
    for layer in range(depth, 0, -1):
        need = 0
        for v in range(n):
            if dist[v] != layer or d[v] >= 0:
                continue
            k = sum(mult for w, mult in neigh[v] if dist[w] == layer - 1)
            need = max(need, (-d[v] + k - 1) // k)
        if need:
            # fire the ball of radius layer-1, `need` times
            _fire(d, neigh, [need if dv < layer else 0 for dv in dist])

    # phase two: burn, fire the unburnt, repeat
    while True:
        burnt = [False] * n
        burnt[0] = True
        threat = [0] * n
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for y, mult in neigh[x]:
                if burnt[y]:
                    continue
                threat[y] += mult
                if threat[y] > d[y]:
                    burnt[y] = True
                    frontier.append(y)
        unburnt = [v for v in range(n) if not burnt[v]]
        if not unburnt:
            return Divisor._of(graph, tuple(d))
        # threat[v] is the edge count from v into the burnt set, which is
        # exactly what one firing of the unburnt set costs v
        times = max(1, min(d[v] // threat[v] for v in unburnt if threat[v] > 0))
        _fire(d, neigh, [0 if b else times for b in burnt])


def divisors_equivalent(graph: MultiGraph, d1: Divisor, d2: Divisor) -> bool:
    """Linear equivalence via uniqueness of the representative reduced at
    vertex 0.

    The zero divisor is reduced on a connected graph, so ``d1`` and
    ``d2`` are equivalent exactly when ``d1 - d2`` reduces to zero: one
    reduction instead of two.
    """
    if d1.graph != graph or d2.graph != graph:
        raise ValueError("divisors live on a different graph")
    if d1.degree() != d2.degree():
        return False
    return not any(dhar_reduce(graph, d1 - d2).coefficients)


# ---------------------------------------------------------------------------
# Critical groups and torsion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalGroup:
    """The critical group in invariant-factor form with explicit generators.

    ``generators[i]`` is a degree-zero divisor whose class has order
    exactly ``invariant_factors[i]``; trivial factors are dropped.  The
    presentation is the reduced Laplacian at vertex 0.
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[Divisor, ...]

    def order(self) -> int:
        return prod(self.invariant_factors)

    def r_torsion(self, r: int) -> tuple[int, tuple[Divisor, ...]]:
        """Size and generators of the r-torsion subgroup.

        The factor of order d contributes gcd(d, r) torsion classes,
        generated by (d / gcd(d, r)) times the factor's generator.
        """
        if r < 1:
            raise ValueError("torsion index must be at least 1")
        count = 1
        gens: list[Divisor] = []
        for factor, gen in zip(self.invariant_factors, self.generators):
            k = gcd(factor, r)
            count *= k
            if k > 1:
                gens.append(gen.scale(factor // k))
        return count, tuple(gens)


def critical_group(graph: MultiGraph) -> CriticalGroup:
    """Critical group of a connected graph, with generator divisors.

    The Smith form of the reduced Laplacian at vertex 0 presents the
    cokernel.  Each surviving diagonal position becomes a concrete
    divisor: that column of the left transform's inverse, read from the
    form's recorded row steps, on vertices 1 .. n - 1, with vertex 0's
    coefficient balancing to degree zero.
    """
    if graph.vertex_count == 0:
        raise ValueError("critical group of the empty graph: it has no vertices")
    if not graph.is_connected():
        raise ValueError("critical group needs a connected graph")
    return _critical_group(graph)


def _critical_group(graph: MultiGraph) -> CriticalGroup:
    """``critical_group`` unchecked: ``graph`` connected and not empty."""
    snf = _reduced_smith(graph)
    positions = [i for i, d in enumerate(snf.diagonal) if d > 1]
    gens = tuple(
        Divisor._of(graph, (-sum(column), *column))
        for column in snf.left_inverse_columns(positions)
    )
    factors = tuple(snf.diagonal[i] for i in positions)
    return CriticalGroup(invariant_factors=factors, generators=gens)


@dataclass(frozen=True)
class TorsionReport:
    """Outcome of the torsion-on-subdivision check.

    ``subdivision`` is the subdivided graph, laid out as
    ``MultiGraph.subdivide`` describes; the invariant factors and the
    generator divisors live on it.  ``expected`` is r to the graph genus,
    the count the subdivision construction realizes; ``verdict``, derived
    from those two fields, says whether the computed torsion matched it.
    """

    subdivision: MultiGraph
    invariant_factors: tuple[int, ...]
    torsion_count: int
    expected: int
    generators: tuple[Divisor, ...]

    @property
    def verdict(self) -> bool:
        return self.torsion_count == self.expected


def verify_torsion_on_subdivision(
    graph: MultiGraph, r: int, mode: str = "all"
) -> TorsionReport:
    """Subdivide, take the critical group, count r-torsion, compare.

    ``mode`` selects which edges get divided into r parts: ``"all"`` or
    ``"nonsep"`` (non-separating edges only; separating edges never lie on
    cycles, so dividing them cannot matter).  The expected count is r to
    the graph genus of the parent.
    """
    if mode not in ("all", "nonsep"):
        raise ValueError("mode must be 'all' or 'nonsep'")
    if graph.vertex_count == 0:
        raise ValueError("torsion check on the empty graph: it has no vertices")
    if not graph.is_connected():
        raise ValueError("torsion check needs a connected graph")
    which = None if mode == "all" else graph.non_separating_edges()
    sub = graph.subdivide(r, which)
    # subdividing keeps the graph connected
    group = _critical_group(sub)
    count, gens = group.r_torsion(r)
    return TorsionReport(
        subdivision=sub,
        invariant_factors=group.invariant_factors,
        torsion_count=count,
        expected=r ** graph.genus(),
        generators=gens,
    )
