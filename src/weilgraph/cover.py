"""Double covers of graphs classified by GF(2) edge functions.

A cochain gamma on a graph picks out the edges that cross between the two
sheets of a double cover; edges off gamma stay inside their sheet.  The
cover is connected exactly when gamma is not a coboundary, and the lift of
a simple cycle of length l is either one cycle of length 2l or two disjoint
cycles of length l, according to whether the pairing of gamma with the
cycle is one or zero.  Both routes to that bit, the combinatorial lift and
the algebraic pairing, are exposed here so they can be checked against each
other wholesale.  A cover is built from gamma alone and covers the graph
gamma lives on; a lift is the tuple of its components, so their number is
the pairing's answer.

Numbering is fixed so tests can freeze values: sheet a is vertices
``0 .. n-1`` of the total graph, sheet b is ``n .. 2n-1``, and base edge
``e`` lifts to total edges ``2e`` (the lift whose first endpoint is on
sheet a) and ``2e + 1`` (its deck translate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .graphs import MultiGraph
from .homology import Chain1, Cochain1, is_simple_cycle

__all__ = [
    "DoubleCover",
    "build_double_cover",
    "cover_to_dot",
    "lift_cycle",
    "pairing_via_cover",
]


@dataclass(frozen=True)
class DoubleCover:
    """A double cover: its classifying cochain and its total graph.  The
    base graph is the one the cochain lives on."""

    classifying: Cochain1
    total: MultiGraph

    @property
    def base(self) -> MultiGraph:
        return self.classifying.graph

    def project_vertex(self, w: int) -> int:
        return w % self.base.vertex_count

    def project_edge(self, k: int) -> int:
        return k // 2

    def deck_vertex(self, w: int) -> int:
        """The sheet-swapping involution on total vertices."""
        n = self.base.vertex_count
        return (w + n) % (2 * n)

    def deck_edge(self, k: int) -> int:
        return k ^ 1

    def is_connected(self) -> bool:
        """Connectivity of the total graph over a connected base.

        Equivalent to the classifying cochain being cohomologically
        nontrivial; the implementation just walks the total graph so the
        equivalence stays checkable from outside.  The empty base has no
        such cochain (its one cochain is zero, a coboundary), so it raises.
        """
        if self.base.vertex_count == 0:
            raise ValueError("connectivity of a cover of the empty graph: it has no vertices")
        if not self.base.is_connected():
            raise ValueError("connectivity of the cover needs a connected base")
        return self.total._component_count() <= 1


def build_double_cover(gamma: Cochain1) -> DoubleCover:
    """Assemble the double cover of ``gamma.graph`` classified by ``gamma``.

    Sheet-crossing edges are exactly the support of ``gamma``.  A loop with
    gamma one lifts to the two parallel edges joining its endpoint's sheet
    copies, so the deck involution stays free on edges.
    """
    base = gamma.graph
    n = base.vertex_count
    crossing = gamma.edges
    lifted: list[tuple[int, int]] = []
    for e, (u, v) in enumerate(base.edges):
        if e in crossing:
            lifted += (u, v + n), (u + n, v)
        else:
            lifted += (u, v), (u + n, v + n)
    total = MultiGraph._of(2 * n, tuple(lifted))
    return DoubleCover(classifying=gamma, total=total)


def lift_cycle(cover: DoubleCover, alpha: Chain1) -> tuple[frozenset, ...]:
    """Connected components of the preimage of a simple cycle.

    Each component is a frozenset of total-graph edge indices, ordered by
    smallest member.  There are always one or two: one cycle of twice the
    length, or two disjoint copies.
    """
    if alpha.graph != cover.base:
        raise ValueError("cycle lives on a different graph")
    if not is_simple_cycle(alpha):
        raise ValueError("lift needs a single simple cycle")
    return tuple(map(frozenset, _lift_cycle(cover, _lifted_edges(alpha.edges))))


def _lifted_edges(edges: Collection[int]) -> list[int]:
    """The total-graph edges over the base edges ``edges``, ascending:
    ``2e`` and ``2e + 1`` for each.  The same list serves every cover of
    one base, so a sweep computes it once per cycle."""
    return [k for e in sorted(edges) for k in (2 * e, 2 * e + 1)]


def _lift_cycle(cover: DoubleCover, lifted: list[int]) -> list[list[int]]:
    """``lift_cycle`` without its checks, each component an edge list:
    ``lifted`` must be ``_lifted_edges`` of the support of a simple cycle
    of the base, which the total graph's unchecked walk takes as it is."""
    return cover.total._edge_components(lifted)[0]


def pairing_via_cover(gamma: Cochain1, alpha: Chain1) -> int:
    """The pairing bit read off the cover: one when the lift is connected.

    This is the independent route to ``graph_pairing(gamma, alpha)``: it
    never sums supports, it builds the cover and counts components.
    """
    return 1 if len(lift_cycle(build_double_cover(gamma), alpha)) == 1 else 0


def lift_shape_ok(components: Sequence[Collection[int]], length: int) -> bool:
    """Whether the components of a lift of an l-cycle, from ``lift_cycle``
    or ``_lift_cycle``, are one 2l-cycle or two l-cycles."""
    if len(components) == 1:
        return len(components[0]) == 2 * length
    return len(components) == 2 and len(components[0]) == len(components[1]) == length


def cover_to_dot(cover: DoubleCover) -> str:
    """Graphviz text for the total graph.

    Vertices are named ``v<i>_a`` and ``v<i>_b`` by sheet; sheet-crossing
    edges are dashed and every edge is labeled with its base edge index.
    Output is deterministic.
    """
    n = cover.base.vertex_count

    def name(w: int) -> str:
        return f"v{cover.project_vertex(w)}_{'a' if w < n else 'b'}"

    lines = ["graph cover {"]
    for w in range(2 * n):
        lines.append(f"  {name(w)};")
    for k, (u, v) in enumerate(cover.total.edges):
        e = cover.project_edge(k)
        style = ' style=dashed' if e in cover.classifying.edges else ""
        lines.append(f"  {name(u)} -- {name(v)} [label={e}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
