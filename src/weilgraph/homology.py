"""Graph homology over GF(2) and the evaluation pairing.

A 1-chain over GF(2) is nothing but its support, a set of edge indices,
and likewise for cochains; addition is symmetric difference.  The three
wrapper types below pin the support to a specific graph and keep the
chain/cochain roles apart, because the pairing reads one argument as a
function on edges and the other as a formal sum of edges even though both
are edge sets under the hood.

The boundary of an edge is the sum of its endpoints, so loops die, and a
1-chain is a cycle exactly when every vertex meets an even number of its
non-loop support edges.  The coboundary of a vertex function marks the
edges whose endpoints get different values.  The pairing of a cocycle
with a cycle is the parity of their common support; on the canonical
bases hung off a spanning forest its Gram matrix is the identity, which
is the perfect-pairing statement this module exposes for testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Sequence

from .graphs import MultiGraph
from .linalg import GF2Matrix

__all__ = [
    "Chain1",
    "Cochain0",
    "Cochain1",
    "HomologyBasis",
    "graph_pairing",
    "homology_basis",
    "is_perfect_pairing",
    "is_simple_cycle",
    "pairing_gram",
]


@dataclass(frozen=True)
class _EdgeSet:
    """A set of edges of one graph, in the role its subclass names.  The
    generated ``__eq__`` compares classes first, so a chain never equals a
    cochain, and ``repr`` names the role."""

    graph: MultiGraph
    edges: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", self.graph._edge_subset(self.edges))

    @classmethod
    def _of(cls, graph: MultiGraph, edges: frozenset):
        """One on a trusted support: a frozenset of the graph's edge indices."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "graph", graph)
        object.__setattr__(obj, "edges", edges)
        return obj


class Chain1(_EdgeSet):
    """GF(2) 1-chain: a formal sum of edges, stored as its support."""

    def is_cycle(self) -> bool:
        """Whether the boundary is zero: the XOR over the support of each
        edge's endpoint bits, in which a loop's two bits cancel."""
        ends, boundary = self.graph.edges, 0
        for e in self.edges:
            u, v = ends[e]
            boundary ^= (1 << u) ^ (1 << v)
        return not boundary


@dataclass(frozen=True)
class Cochain0:
    """GF(2) vertex function, stored as the set where it equals one."""

    graph: MultiGraph
    vertices: frozenset

    def __post_init__(self) -> None:
        vertices = frozenset(map(index, self.vertices))
        for v in vertices:
            if not (0 <= v < self.graph.vertex_count):
                raise ValueError(f"vertex index {v} out of range")
        object.__setattr__(self, "vertices", vertices)

    def coboundary(self) -> "Cochain1":
        """Edges whose two endpoints get different values.  Loops never do."""
        marked = [
            e
            for e, (u, v) in enumerate(self.graph.edges)
            if (u in self.vertices) != (v in self.vertices)
        ]
        return Cochain1._of(self.graph, frozenset(marked))


class Cochain1(_EdgeSet):
    """GF(2) edge function, stored as the set where it equals one."""


def graph_pairing(gamma: Cochain1, alpha: Chain1) -> int:
    """Evaluate the cochain on the cycle: parity of the common support.

    ``alpha`` must be a cycle (lie in the kernel of the boundary); the
    pairing is only well defined on homology against cohomology.
    """
    if gamma.graph != alpha.graph:
        raise ValueError("pairing needs both arguments on the same graph")
    if not alpha.is_cycle():
        raise ValueError("second argument must be a cycle")
    return _parity(gamma.edges, alpha.edges)


def _parity(gamma_edges: frozenset, alpha_edges: frozenset) -> int:
    """The pairing bit of two supports, unchecked: the parity of their overlap."""
    return len(gamma_edges & alpha_edges) & 1


def _pairing_rows(rows_of: Sequence[frozenset], cols_of: Sequence[frozenset]) -> tuple[int, ...]:
    """Pairing bits as GF(2) bit rows, unchecked: row i, bit j is the parity
    of ``rows_of[i]`` against ``cols_of[j]``.  The parity is symmetric, so
    swapping the arguments gives the transpose."""
    return tuple(
        sum(_parity(r, c) << j for j, c in enumerate(cols_of)) for r in rows_of
    )


@dataclass(frozen=True)
class HomologyBasis:
    """Canonical dual bases of H1 and H^1 hung off a spanning forest.

    ``cycles[i]`` is the fundamental cycle of the i-th non-forest edge, as
    ``MultiGraph.fundamental_cycles`` gives it (that edge plus the forest
    path joining its endpoints), and ``cocycles[i]`` is the indicator
    cochain of the same edge.  Ordering follows ascending non-forest edge
    index, which makes the pairing Gram matrix the identity.
    """

    forest: frozenset
    cycles: tuple[Chain1, ...]
    cocycles: tuple[Cochain1, ...]

    @property
    def genus(self) -> int:
        return len(self.cycles)


# Only the model sweep reuses a basis, and then only within a run of
# neighbouring graphs: from cold caches, model_sweep(4) misses 410 times at
# any maxsize from 256 up (528 at 128), and perfect_pairing_sweep(6) misses
# all 3393 graphs at any maxsize.  model_sweep(5) misses 2518 times
# unbounded and 5383 at 256, about 0.05 s of recomputation in a sweep of
# several seconds, against megabytes of bases held for no later hit.
@lru_cache(maxsize=256)
def homology_basis(graph: MultiGraph) -> HomologyBasis:
    """Fundamental cycle and cocycle bases from the greedy spanning forest,
    read off ``graph.fundamental_cycles()``; the forest is every other edge."""
    cycles = graph.fundamental_cycles()
    return HomologyBasis(
        frozenset(range(graph.edge_count)).difference(cycles),
        tuple(Chain1._of(graph, c) for c in cycles.values()),
        tuple(Cochain1._of(graph, frozenset({e})) for e in cycles),
    )


def pairing_gram(graph: MultiGraph) -> GF2Matrix:
    """Gram matrix of the pairing on the canonical bases."""
    basis = homology_basis(graph)
    rows = _pairing_rows(
        [z.edges for z in basis.cocycles], [c.edges for c in basis.cycles]
    )
    return GF2Matrix._of(rows, basis.genus)


def is_perfect_pairing(graph: MultiGraph) -> tuple[bool, GF2Matrix]:
    """Whether the Gram matrix on the canonical bases is invertible."""
    gram = pairing_gram(graph)
    return gram.is_invertible(), gram


def is_simple_cycle(alpha: Chain1) -> bool:
    """True when the support is one cycle: distinct edges through distinct
    vertices, closed up.  A loop is a cycle of length one, a parallel pair
    a cycle of length two.

    Characterization used: the support makes exactly one component, and
    every vertex it touches has exactly two endpoints in it (a loop counts
    twice).  The empty support makes none.
    """
    support = alpha.edges
    graph = alpha.graph
    degree: dict[int, int] = {}
    for e in support:
        u, v = graph.edges[e]
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if any(d != 2 for d in degree.values()):
        return False
    components, _ = graph._edge_components(sorted(support))
    return len(components) == 1
