"""Undirected multigraphs with positional edge identity.

Vertices are the integers ``0 .. vertex_count - 1``.  Edges are unordered
endpoint pairs kept in a tuple; parallel edges and loops are allowed, and an
edge is identified by its index in that tuple, never by its endpoints.
Chains, cochains and stabilizer assignments all key off those indices, and a
subdivision lays its edges out in parent edge order, which is why the tuple
order is part of the value.

Nothing here is oriented.  The homology this feeds lives over GF(2), where an
edge is just the multiset of its endpoints.

One edge walk, ``MultiGraph._edge_components``, answers every connectivity
question, from the genus to the sheets of a cycle's lift.  It trusts its
edge indices and their ascending order, which every caller holds (a
range, a sorted support, a cycle's lifted edges), so it serves the inner
loops directly.  The component count (``component_count``, cached;
``_component_count`` for a graph read once, such as a double cover's
total graph) adds the vertices no edge touches to the walk's component
count and never reads ``spanning_forest``: the model sweep checks a
torsion order whose exponent is the genus against a form dimension that
counts fundamental cycles, and a count read off the forest would pass
that check by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable

__all__ = [
    "EdgeSubset",
    "MultiGraph",
    "bouquet_graph",
    "cycle_graph",
    "dumbbell_graph",
    "path_graph",
    "theta_graph",
]

# Edge subsets are plain frozensets of edge indices into MultiGraph.edges.
EdgeSubset = frozenset


@dataclass(frozen=True)
class MultiGraph:
    """A finite undirected multigraph.

    Parameters
    ----------
    vertex_count:
        Number of vertices, labeled ``0 .. vertex_count - 1``.
    edges:
        Tuple of ``(u, v)`` endpoint pairs.  Position in the tuple is the
        edge's identity; two parallel edges are distinct edges.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_count", index(self.vertex_count))
        edges = tuple((index(u), index(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for u, v in edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) out of range for {self.vertex_count} vertices"
                )

    @classmethod
    def _of(cls, vertex_count: int, edges: tuple[tuple[int, int], ...]) -> "MultiGraph":
        """A graph on trusted edges: int pairs already inside ``range(vertex_count)``."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "vertex_count", vertex_count)
        object.__setattr__(graph, "edges", edges)
        return graph

    # -- basic structure ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _edge_subset(self, edges: Iterable[int]) -> EdgeSubset:
        """``edges`` as a frozenset of ints, each checked to index an edge."""
        subset = frozenset(map(index, edges))
        for e in subset:
            if not (0 <= e < self.edge_count):
                raise ValueError(f"edge index {e} out of range")
        return subset

    # -- connectivity and genus --------------------------------------------

    def _edge_components(self, edges: Iterable[int]) -> tuple[list[list[int]], int]:
        """The one component walk, unchecked: ``edges`` must be distinct edge
        indices in ascending order, as every caller holds them (a range, a
        sorted support, a cycle's lifted edges).  Returns the edge list of
        each component of the subgraph they make, ordered by smallest
        member, and the number of vertices they touch.

        Edges are read in the order given, so a record's first edge is its
        smallest.  Each touched vertex carries, in a list indexed by vertex,
        the label of its component: a record
        ``[smallest edge, vertices, edges]``.  An edge between two labels
        relabels the vertices of the smaller side (Hopcroft and Ullman, SIAM
        J. Comput. 2, 1973), so no vertex is relabelled more than log2 of the
        touched count times.
        """
        ends = self.edges
        label: list = [None] * self.vertex_count
        records = []
        for e in edges:
            u, v = ends[e]
            a, b = label[u], label[v]
            if a is b:
                if a is None:
                    a = [e, [u] if u == v else [u, v], [e]]
                    records.append(a)
                    label[u] = label[v] = a
                else:
                    a[2].append(e)
            elif a is None:
                b[1].append(u)
                b[2].append(e)
                label[u] = b
            elif b is None:
                a[1].append(v)
                a[2].append(e)
                label[v] = a
            else:
                if len(a[1]) < len(b[1]):
                    a, b = b, a
                for x in b[1]:
                    label[x] = a
                a[0] = min(a[0], b[0])
                a[1] += b[1]
                a[2] += b[2]
                a[2].append(e)
                b[1] = None
        live = [r for r in records if r[1] is not None]
        live.sort()  # by smallest edge: a merge may keep the younger record
        return [r[2] for r in live], self.vertex_count - label.count(None)

    @cached_property
    def component_count(self) -> int:
        """Components of the edges, plus one for each vertex no edge touches:
        ``_component_count``, read once per graph."""
        return self._component_count()

    def _component_count(self) -> int:
        """``component_count`` uncached, for a graph whose count is read
        once, such as a double cover's total graph.

        Both numbers come from one unchecked ``_edge_components`` walk of
        every edge, and no sets are built.  The count never reads
        ``spanning_forest``, so the genus stays independent of the
        fundamental cycles that the model sweep checks it against.
        """
        components, touched = self._edge_components(range(self.edge_count))
        return len(components) + self.vertex_count - touched

    def is_connected(self) -> bool:
        return self.component_count <= 1

    def genus(self) -> int:
        """First Betti number: ``edges - vertices + components``."""
        return self.edge_count - self.vertex_count + self.component_count

    # -- forests, cycles, separating edges -----------------------------------

    def spanning_forest(self) -> EdgeSubset:
        """Greedy lowest-index spanning forest.  Loops never qualify."""
        parent = list(range(self.vertex_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        picked: list[int] = []
        for e, (u, v) in enumerate(self.edges):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                picked.append(e)
        return frozenset(picked)

    def fundamental_cycles(self) -> dict[int, EdgeSubset]:
        """The fundamental cycle of each non-forest edge of ``spanning_forest``,
        keyed by that edge, in edge order: the edge plus the forest path
        between its ends (a loop alone).

        One walk roots each forest component, recording every vertex's depth
        and its forest edge and vertex up; each cycle then climbs from its two
        ends to the vertex where they meet.
        """
        edges, n = self.edges, self.vertex_count
        forest = self.spanning_forest()
        at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e in forest:
            u, v = edges[e]
            at[u].append((e, v))
            at[v].append((e, u))
        depth, up = [-1] * n, [(-1, -1)] * n
        for root in range(n):
            if depth[root] < 0:
                depth[root], order = 0, [root]
                for x in order:  # grows while it is read: breadth first
                    for e, y in at[x]:
                        if depth[y] < 0:
                            depth[y], up[y] = depth[x] + 1, (e, x)
                            order.append(y)
        cycles: dict[int, EdgeSubset] = {}
        for e, (u, v) in enumerate(edges):
            if e not in forest:
                cycle = [e]
                while u != v:
                    if depth[u] < depth[v]:
                        u, v = v, u
                    f, u = up[u]
                    cycle.append(f)
                cycles[e] = frozenset(cycle)
        return cycles

    def non_separating_edges(self) -> EdgeSubset:
        """Edges lying on some cycle, whose deletion keeps the component
        count: the union of the ``fundamental_cycles``."""
        return frozenset().union(*self.fundamental_cycles().values())

    # -- derived graphs ------------------------------------------------------

    def subdivide(self, r: int, which: Iterable[int] | None = None) -> "MultiGraph":
        """Divide each edge in ``which`` into ``r`` equal parts.

        ``which`` defaults to every edge; ``r == 1`` leaves the graph
        unchanged.  Parent vertex ``i`` is child vertex ``i``.  Child edges
        follow parent edge order: an edge not divided stays one edge, and
        edge ``e = (u, v)`` divided becomes ``r`` consecutive child edges
        running from ``u`` to ``v``.  Their ``r - 1`` interior vertices are
        appended after the parent vertices, in parent edge order.
        """
        if r < 1:
            raise ValueError("subdivision parameter must be at least 1")
        chosen = range(self.edge_count) if which is None else self._edge_subset(which)

        new_edges: list[tuple[int, int]] = []
        next_vertex = self.vertex_count
        for e, (u, v) in enumerate(self.edges):
            if e not in chosen:
                new_edges.append((u, v))
                continue
            waypoints = [u] + [next_vertex + i for i in range(r - 1)] + [v]
            next_vertex += r - 1
            new_edges += zip(waypoints, waypoints[1:])
        return MultiGraph._of(next_vertex, tuple(new_edges))


# -- small stock graphs used throughout tests and demos ----------------------


def cycle_graph(k: int) -> MultiGraph:
    """Cycle of length ``k``: a loop for k=1, a parallel pair for k=2."""
    if k < 1:
        raise ValueError("cycle length must be at least 1")
    return MultiGraph(k, tuple((i, (i + 1) % k) for i in range(k)))


def path_graph(k: int) -> MultiGraph:
    """Path on ``k`` vertices (k - 1 edges)."""
    if k < 1:
        raise ValueError("path needs at least one vertex")
    return MultiGraph(k, tuple((i, i + 1) for i in range(k - 1)))


def theta_graph() -> MultiGraph:
    """Two vertices joined by three parallel edges.  Genus 2."""
    return MultiGraph(2, ((0, 1), (0, 1), (0, 1)))


def dumbbell_graph() -> MultiGraph:
    """Loop, bridge, loop.  Genus 2 with a separating middle edge."""
    return MultiGraph(2, ((0, 0), (0, 1), (1, 1)))


def bouquet_graph(k: int) -> MultiGraph:
    """Single vertex carrying ``k`` loops."""
    if k < 0:
        raise ValueError("loop count must be non-negative")
    return MultiGraph(1, ((0, 0),) * k)
