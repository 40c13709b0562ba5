"""Double covers of graphs classified by GF(2) edge functions.

A cochain gamma on a graph picks out the edges that cross between the two
sheets of a double cover; edges off gamma stay inside their sheet.  The
cover is connected exactly when gamma is not a coboundary, and the lift of
a simple cycle of length l is either one cycle of length 2l or two disjoint
cycles of length l, according to whether the pairing of gamma with the
cycle is one or zero.  Both routes to that bit, the combinatorial lift and
the algebraic pairing, are exposed here so they can be checked against each
other wholesale.

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
    """A double cover with its base, total graph and classifying cochain."""

    base: MultiGraph
    classifying: Cochain1
    total: MultiGraph

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
        return self.total.is_connected()


def build_double_cover(base: MultiGraph, gamma: Cochain1) -> DoubleCover:
    """Assemble the double cover classified by ``gamma``.

    Sheet-crossing edges are exactly the support of ``gamma``.  A loop with
    gamma one lifts to the two parallel edges joining its endpoint's sheet
    copies, so the deck involution stays free on edges.
    """
    if gamma.graph != base:
        raise ValueError("classifying cochain lives on a different graph")
    n = base.vertex_count
    lifted: list[tuple[int, int]] = []
    for e, (u, v) in enumerate(base.edges):
        if e in gamma.edges:
            lifted.append((u, v + n))
            lifted.append((u + n, v))
        else:
            lifted.append((u, v))
            lifted.append((u + n, v + n))
    total = MultiGraph._of(2 * n, tuple(lifted))
    return DoubleCover(base=base, classifying=gamma, total=total)


def lift_cycle(cover: DoubleCover, alpha: Chain1) -> tuple[int, tuple[frozenset, ...]]:
    """Connected components of the preimage of a simple cycle.

    Returns ``(count, components)`` with each component given as a
    frozenset of total-graph edge indices, ordered by smallest member.
    The count is always one or two: one cycle of twice the length, or two
    disjoint copies.
    """
    if alpha.graph != cover.base:
        raise ValueError("cycle lives on a different graph")
    if not is_simple_cycle(alpha):
        raise ValueError("lift needs a single simple cycle")
    count, components = _lift_cycle(cover, alpha.edges)
    return count, tuple(map(frozenset, components))


def _lift_cycle(cover: DoubleCover, edges: frozenset) -> tuple[int, list[list[int]]]:
    """``lift_cycle`` without its checks, each component an edge list:
    ``edges`` must be the support of a simple cycle of the base, so the
    total graph's unchecked walk can take their lifts as they are."""
    components, _ = cover.total._edge_components([k for e in edges for k in (2 * e, 2 * e + 1)])
    return len(components), components


def pairing_via_cover(base: MultiGraph, gamma: Cochain1, alpha: Chain1) -> int:
    """The pairing bit read off the cover: one when the lift is connected.

    This is the independent route to ``graph_pairing(gamma, alpha)``: it
    never sums supports, it builds the cover and counts components.
    """
    cover = build_double_cover(base, gamma)
    count, _ = lift_cycle(cover, alpha)
    return 1 if count == 1 else 0


def lift_shape_ok(lift: tuple[int, Sequence[Collection[int]]], length: int) -> bool:
    """Whether a lift of an l-cycle, from ``lift_cycle`` or ``_lift_cycle``,
    is one 2l-cycle or two l-cycles."""
    count, components = lift
    sizes = [len(c) for c in components]
    return (count, sizes) in ((1, [2 * length]), (2, [length, length]))


def cover_to_dot(cover: DoubleCover) -> str:
    """Graphviz text for the total graph.

    Vertices are named ``v<i>_a`` and ``v<i>_b`` by sheet; sheet-crossing
    edges are dashed and every edge is labeled with its base edge index.
    Output is deterministic.
    """
    n = cover.base.vertex_count

    def name(w: int) -> str:
        return f"v{w % n}_{'a' if w < n else 'b'}"

    lines = ["graph cover {"]
    for w in range(2 * n):
        lines.append(f"  {name(w)};")
    for k, (u, v) in enumerate(cover.total.edges):
        e = k // 2
        style = ' style=dashed' if e in cover.classifying.edges else ""
        lines.append(f"  {name(u)} -- {name(v)} [label={e}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
