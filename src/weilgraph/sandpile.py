"""Chip firing: Laplacians, critical groups, reduced divisors, torsion.

Conventions.  The Laplacian has the non-loop degree on the diagonal and
minus the edge multiplicity off it; loops contribute nothing anywhere, so
firing a vertex never moves chips along a loop.  The critical group of a
connected graph is the cokernel of the reduced Laplacian (the base row and
column deleted), presented through its Smith normal form; the unimodular
transform witnesses give explicit generator divisors, one per nontrivial
invariant factor.

A divisor equivalence check rides on Dhar's burning algorithm: every class
has a unique base-reduced representative, found by making the divisor
effective away from the base and then repeatedly firing what the fire from
the base fails to burn.  Two divisors are equivalent exactly when their
difference reduces to zero, so an equivalence check burns once.  Burning
reads the cached Smith form only to pick a principal shift, taken exactly
when some entry off the base lies outside the degree box
``[-deg(v), deg(v)]`` (``deg`` the non-loop degree), the box the shift is
proven to land in.  Any integer firing vector keeps the divisor class: a
wrong Smith form could slow burning down but could not change its answer.
So the two routes can still be played against each other in tests.

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
from operator import add, mul, sub

from .graphs import MultiGraph, SubdivisionMap
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
        coeffs = tuple(int(c) for c in self.coefficients)
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

    def _same_graph(self, other: "Divisor") -> None:
        if self.graph != other.graph:
            raise ValueError("divisors live on different graphs")

    def __add__(self, other: "Divisor") -> "Divisor":
        self._same_graph(other)
        return Divisor._of(self.graph, tuple(map(add, self.coefficients, other.coefficients)))

    def __sub__(self, other: "Divisor") -> "Divisor":
        self._same_graph(other)
        return Divisor._of(self.graph, tuple(map(sub, self.coefficients, other.coefficients)))

    def __neg__(self) -> "Divisor":
        return Divisor._of(self.graph, tuple(-a for a in self.coefficients))

    def scale(self, k: int) -> "Divisor":
        k = int(k)
        return Divisor._of(self.graph, tuple(k * a for a in self.coefficients))


def laplacian(graph: MultiGraph) -> IntMatrix:
    """Graph Laplacian; loops contribute zero."""
    return _laplacian_rows(graph, graph.vertex_count)


def reduced_laplacian(graph: MultiGraph, base: int) -> IntMatrix:
    """The Laplacian with the base row and column deleted."""
    if not (0 <= base < graph.vertex_count):
        raise ValueError("base vertex out of range")
    return _laplacian_rows(graph, base)


def _laplacian_rows(graph: MultiGraph, base: int) -> IntMatrix:
    # the Laplacian without vertex `base`; base == vertex_count keeps all
    n = graph.vertex_count
    k = n - (base < n)
    index = [v - (v > base) for v in range(n)]
    entries = [[0] * k for _ in range(k)]
    for u, v in graph.edges:
        if u == v:
            continue
        if u != base:
            i = index[u]
            entries[i][i] += 1
            if v != base:
                entries[i][index[v]] -= 1
        if v != base:
            j = index[v]
            entries[j][j] += 1
            if u != base:
                entries[j][index[u]] -= 1
    return IntMatrix._of(tuple(map(tuple, entries)), k)


def spanning_tree_count(graph: MultiGraph) -> int:
    """Number of spanning trees, by the matrix-tree determinant."""
    if not graph.is_connected():
        raise ValueError("spanning trees need a connected graph")
    return reduced_laplacian(graph, 0).det()


# ---------------------------------------------------------------------------
# Reduced divisors via burning
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8192)
def _neighbor_lists(graph: MultiGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    # per-vertex (neighbor, multiplicity) pairs, loops dropped: loops never
    # move chips and never carry fire
    neigh: list[dict[int, int]] = [{} for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        if u == v:
            continue
        neigh[u][v] = neigh[u].get(v, 0) + 1
        neigh[v][u] = neigh[v].get(u, 0) + 1
    return tuple(tuple(sorted(nb.items())) for nb in neigh)


@lru_cache(maxsize=256)
def _burn_data(graph: MultiGraph, base: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # per-vertex non-loop degree, the half-width of the degree box, and
    # distance from base along non-loop edges, -1 where base never reaches
    neigh = _neighbor_lists(graph)
    dist = [-1] * graph.vertex_count
    dist[base] = 0
    frontier = [base]
    while frontier:
        nxt = []
        for x in frontier:
            for y, _ in neigh[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    degree = tuple(sum(mult for _, mult in nb) for nb in neigh)
    return degree, tuple(dist)


@lru_cache(maxsize=4096)
def _reduced_smith(graph: MultiGraph, base: int):
    return smith_normal_form(reduced_laplacian(graph, base))


def _principal_shift(graph: MultiGraph, base: int, d: list[int]) -> list[int]:
    """Shift ``d`` by a principal divisor so its entries become small.

    Solves the reduced Laplacian system ``L x = d`` exactly through the
    cached Smith form, in integers over the common denominator: with ``D``
    the last invariant factor, ``x * D = V (D / d_i) (U d)_i``.  It rounds
    the solution to the nearest integer firing vector and applies that
    firing.  The result is ``L (x - round(x))`` away from the base, so
    every entry there is bounded by the vertex's non-loop degree wherever
    ``d`` started.  Only the choice of representative changes: any integer
    firing vector, even one from a wrong Smith form, leaves the class
    alone.
    """
    snf = _reduced_smith(graph, base)
    rhs = [c for v, c in enumerate(d) if v != base]
    big = snf.diagonal[-1]
    y = [
        sum(map(mul, row, rhs)) * (big // dgn)
        for row, dgn in zip(snf.left.entries, snf.diagonal)
    ]
    fire = [(2 * sum(map(mul, row, y)) + big) // (2 * big) for row in snf.right.entries]
    fire.insert(base, 0)

    neigh = _neighbor_lists(graph)
    out = list(d)
    for v, nb in enumerate(neigh):
        xv = fire[v]
        for w, mult in nb:
            out[v] += mult * (fire[w] - xv)
    return out


def dhar_reduce(graph: MultiGraph, divisor: Divisor, base: int) -> Divisor:
    """The unique base-reduced divisor equivalent to ``divisor``.

    When some entry off the base lies outside the degree box
    ``[-deg(v), deg(v)]`` (``deg`` the non-loop degree), the divisor is
    first shifted by the principal divisor of the rounded rational solution
    of the Laplacian system, which lands every such entry inside the box
    without leaving the class; a divisor already in the box is left as it
    is, so the rule never fires twice.  Phase one then makes the divisor
    effective away from the base by firing the balls around the base,
    farthest layer first: firing the ball of radius k-1 pushes chips into
    layer k and touches nothing farther out, and the needed multiplicity
    has a closed form.  Phase two is Dhar's loop: burn from the base, fire
    the unburnt set as many times as it stays effective, repeat until the
    fire eats everything.  All steps are integer set firings, so the class
    never changes.
    """
    if divisor.graph != graph:
        raise ValueError("divisor lives on a different graph")
    n = graph.vertex_count
    if not (0 <= base < n):
        raise ValueError("base vertex out of range")
    degree, dist = _burn_data(graph, base)
    if -1 in dist:
        raise ValueError("reduction needs a connected graph")
    if n == 1:
        return divisor

    neigh = _neighbor_lists(graph)
    d = list(divisor.coefficients)
    if any(abs(c) > deg for v, (c, deg) in enumerate(zip(d, degree)) if v != base):
        d = _principal_shift(graph, base, d)
    depth = max(dist)

    # phase one: effective away from the base
    for layer in range(depth, 0, -1):
        need = 0
        for v in range(n):
            if dist[v] != layer or d[v] >= 0:
                continue
            k = sum(mult for w, mult in neigh[v] if dist[w] == layer - 1)
            need = max(need, (-d[v] + k - 1) // k)
        if need == 0:
            continue
        # fire the ball of radius layer-1, `need` times; edges inside the
        # ball cancel, so only layer-crossing edges move chips
        for v in range(n):
            dv = dist[v]
            if dv >= layer:
                continue
            for w, mult in neigh[v]:
                if dv < layer <= dist[w]:
                    d[v] -= need * mult
                    d[w] += need * mult

    # phase two: burn, fire the unburnt, repeat
    while True:
        burnt = [False] * n
        burnt[base] = True
        threat = [0] * n
        frontier = [base]
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
        times = min(d[v] // threat[v] for v in unburnt if threat[v] > 0)
        times = max(times, 1)
        for v in unburnt:
            for w, mult in neigh[v]:
                if burnt[w]:
                    d[v] -= times * mult
                    d[w] += times * mult


def divisors_equivalent(
    graph: MultiGraph, d1: Divisor, d2: Divisor, base: int = 0
) -> bool:
    """Linear equivalence via uniqueness of the base-reduced representative.

    The zero divisor is base-reduced on a connected graph, so ``d1`` and
    ``d2`` are equivalent exactly when ``d1 - d2`` reduces to zero: one
    reduction instead of two.
    """
    if d1.graph != graph or d2.graph != graph:
        raise ValueError("divisors live on a different graph")
    if d1.degree() != d2.degree():
        return False
    return not any(dhar_reduce(graph, d1 - d2, base).coefficients)


# ---------------------------------------------------------------------------
# Critical groups and torsion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalGroup:
    """The critical group in invariant-factor form with explicit generators.

    ``generators[i]`` is a degree-zero divisor whose class has order
    exactly ``invariant_factors[i]``; trivial factors are dropped.
    """

    graph: MultiGraph
    base_vertex: int
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


def critical_group(graph: MultiGraph, base: int = 0) -> CriticalGroup:
    """Critical group of a connected graph, with generator divisors.

    The Smith form of the reduced Laplacian presents the cokernel; the
    tracked left inverse turns each surviving diagonal position into a
    concrete divisor (column of the inverse on the non-base vertices, base
    coefficient balancing to degree zero).
    """
    if graph.vertex_count == 0:
        raise ValueError("critical group of the empty graph: it has no vertices")
    if not graph.is_connected():
        raise ValueError("critical group needs a connected graph")
    if not (0 <= base < graph.vertex_count):
        raise ValueError("base vertex out of range")
    return _critical_group(graph, base)


def _critical_group(graph: MultiGraph, base: int) -> CriticalGroup:
    """``critical_group`` unchecked: ``graph`` connected, ``base`` a vertex."""
    n = graph.vertex_count
    snf = _reduced_smith(graph, base)
    verts = [v for v in range(n) if v != base]
    factors: list[int] = []
    gens: list[Divisor] = []
    for i, dgn in enumerate(snf.diagonal):
        if dgn <= 1:
            continue
        factors.append(dgn)
        column = [snf.left_inverse.entries[r][i] for r in range(n - 1)]
        coeffs = [0] * n
        for v, c in zip(verts, column):
            coeffs[v] = c
        coeffs[base] = -sum(column)
        gens.append(Divisor._of(graph, tuple(coeffs)))
    return CriticalGroup(
        graph=graph,
        base_vertex=base,
        invariant_factors=tuple(factors),
        generators=tuple(gens),
    )


@dataclass(frozen=True)
class TorsionReport:
    """Outcome of the torsion-on-subdivision check.

    ``expected`` is r to the graph genus, the count the subdivision
    construction realizes; ``verdict`` records whether the computed
    torsion matched it.
    """

    graph: MultiGraph
    r: int
    mode: str
    subdivision: SubdivisionMap
    invariant_factors: tuple[int, ...]
    torsion_count: int
    expected: int
    generators: tuple[Divisor, ...]
    verdict: bool


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
    # subdividing keeps the graph connected and vertex 0 in place
    group = _critical_group(sub.child, 0)
    count, gens = group.r_torsion(r)
    expected = r ** graph.genus()
    return TorsionReport(
        graph=graph,
        r=r,
        mode=mode,
        subdivision=sub,
        invariant_factors=group.invariant_factors,
        torsion_count=count,
        expected=expected,
        generators=gens,
        verdict=(count == expected),
    )
