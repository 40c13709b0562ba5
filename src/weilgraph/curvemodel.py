"""Combinatorial models of stable stacky curves and their 2-torsion.

A model is a dual graph decorated with a geometric genus per vertex and a
stabilizer order per edge (order one meaning an ordinary node).  That data
already determines the size of the 2-torsion of the Picard group and an
explicit GF(2) Gram matrix for the Weil pairing on it, assembled from three
kinds of classes:

* h classes, pulled back from graph cohomology of the dual graph,
* component classes, 2-torsion on the normalization, one standard
  symplectic block of size twice the genus per vertex,
* q classes, indexed by cycles of the reduced graph (the dual graph with
  the odd-order edges deleted), pairing against the h classes through the
  graph pairing.

The h block is isotropic and pairs with nothing but the q block.  Blocks
the theory leaves undetermined (q with q, component with q) are set to
zero; that choice is a documented representative and nothing downstream
reads those blocks.  The form is non-degenerate exactly when every
non-separating edge has even stabilizer order.

Per graph: the cocycles that index the h block (``homology_basis``'s
cache).  Per graph and set of even edges, not per model: the reduced graph,
its cycle basis pushed into the parent graph and the h x q pairing bits.
``_reduced_blocks`` computes these, with the graph's cocycles alongside,
in an ``lru_cache`` of 16 ``(graph, even_edges)`` keys, which the models
of one key share, whether a sweep or the public model asks.  Per model
there remains only the genus bookkeeping, ``_two_torsion_order``, and the
assembly of the Gram rows around those blocks, ``_weil_form``.  The
methods of ``TwistedCurveModel`` call these two with the blocks of the
model's key; a sweep that holds the blocks of one even-edge set calls them
directly for every decoration that shares it, and builds no model.  The
reduced genus counts edges, vertices and components of the reduced graph
rather than the cycle basis that sizes the q block, so the torsion order
and the form dimension stay two independent counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import NamedTuple

from .graphs import EdgeSubset, MultiGraph
from .homology import Chain1, Cochain1, _pairing_rows, homology_basis
from .linalg import GF2Matrix

__all__ = [
    "TwistedCurveModel",
    "TwoTorsionClass",
    "WeilFormModel",
]


class _ReducedBlocks(NamedTuple):
    """What a model's torsion and Weil form read from its graph and reduced graph."""

    reduced: MultiGraph
    cocycles: tuple[Cochain1, ...]  # the parent graph's cohomology basis
    pushed: tuple[Chain1, ...]  # reduced cycle basis, in parent edge indices
    pairing: tuple[int, ...]  # row i, bit j: cocycle i paired with pushed j
    transposed: tuple[int, ...]  # row j, bit i: the same bit


# Test 3's literal models hit it 1,190,521 times on 40,090 misses; a
# model sweep asks once per key, so it only misses.
@lru_cache(maxsize=16)
def _reduced_blocks(graph: MultiGraph, even_edges: EdgeSubset) -> _ReducedBlocks:
    """The blocks of the models on ``graph`` with even edges ``even_edges``:
    the reduced graph keeps those edges, in parent edge order."""
    kept = sorted(even_edges)
    reduced = MultiGraph._of(graph.vertex_count, tuple(graph.edges[e] for e in kept))
    pushed = tuple(
        Chain1._of(graph, frozenset(kept[j] for j in c.edges))
        for c in homology_basis(reduced).cycles
    )
    cocycles = homology_basis(graph).cocycles
    cocycle_edges = [gamma.edges for gamma in cocycles]
    pushed_edges = [alpha.edges for alpha in pushed]
    pairing = _pairing_rows(cocycle_edges, pushed_edges)
    transposed = _pairing_rows(pushed_edges, cocycle_edges)
    return _ReducedBlocks(reduced, cocycles, pushed, pairing, transposed)


def _two_torsion_order(arithmetic_genus: int, graph_genus: int, reduced_genus: int) -> int:
    """Size of the 2-torsion of the Picard group from the three genera.

    Exponent: twice the arithmetic genus, minus the graph genus, plus the
    reduced graph genus.
    """
    return 2 ** (2 * arithmetic_genus - graph_genus + reduced_genus)


def _weil_form(blocks: _ReducedBlocks, vertex_genus: tuple[int, ...]) -> "WeilFormModel":
    """The Weil form of the models with these reduced-graph blocks and these
    vertex genera; see ``TwistedCurveModel.weil_form``."""
    pairing = blocks.pairing
    h_dim = len(pairing)
    q_dim = len(blocks.pushed)
    comp_dim = 2 * sum(vertex_genus)
    q_off = h_dim + comp_dim
    rows = [bits << q_off for bits in pairing]
    off = h_dim
    for gv in vertex_genus:
        # one symplectic block: row k pairs with row gv + k; plain loops,
        # since most genera are 0 and a comprehension costs a call
        for k in range(gv):
            rows.append(1 << (off + gv + k))
        for k in range(gv):
            rows.append(1 << (off + k))
        off += 2 * gv
    rows += blocks.transposed
    return WeilFormModel(
        gram=GF2Matrix._of(rows, q_off + q_dim),
        h_dim=h_dim,
        component_dim=comp_dim,
        q_dim=q_dim,
        cocycles=blocks.cocycles,
        reduced_cycles=blocks.pushed,
    )


@dataclass(frozen=True)
class TwistedCurveModel:
    """Dual graph plus per-vertex genus and per-edge stabilizer order."""

    graph: MultiGraph
    vertex_genus: tuple[int, ...]
    edge_order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_genus", tuple(map(index, self.vertex_genus)))
        object.__setattr__(self, "edge_order", tuple(map(index, self.edge_order)))
        if len(self.vertex_genus) != self.graph.vertex_count:
            raise ValueError("one genus per vertex required")
        if len(self.edge_order) != self.graph.edge_count:
            raise ValueError("one stabilizer order per edge required")
        if any(g < 0 for g in self.vertex_genus):
            raise ValueError("vertex genera must be non-negative")
        if any(s < 1 for s in self.edge_order):
            raise ValueError("stabilizer orders must be positive")

    # -- genus bookkeeping ---------------------------------------------------

    def graph_genus(self) -> int:
        return self.graph.genus()

    def arithmetic_genus(self) -> int:
        """Total genus: vertex genera plus the graph genus."""
        return sum(self.vertex_genus) + self.graph.genus()

    # -- the reduced graph and torsion count ---------------------------------

    def even_edges(self) -> EdgeSubset:
        return frozenset(e for e, s in enumerate(self.edge_order) if s % 2 == 0)

    def reduced_graph(self) -> MultiGraph:
        """The dual graph with the odd-order edges dropped."""
        return _reduced_blocks(self.graph, self.even_edges()).reduced

    def reduced_genus(self) -> int:
        return self.reduced_graph().genus()

    def two_torsion_order(self) -> int:
        """Size of the 2-torsion of the Picard group, ``_two_torsion_order``
        of the model's three genera.  Equals ``2 ** (2 g)`` exactly when
        every non-separating edge has even order.
        """
        return _two_torsion_order(
            self.arithmetic_genus(), self.graph_genus(), self.reduced_genus()
        )

    def is_nondegenerate(self) -> bool:
        """Even stabilizer order on every non-separating edge."""
        even = self.even_edges()
        return all(e in even for e in self.graph.non_separating_edges())

    # -- the Weil form --------------------------------------------------------

    def weil_form(self) -> "WeilFormModel":
        """Assemble the GF(2) Gram matrix of the Weil pairing.

        Coordinates are ordered h block, component block, q block.  The
        h x q corner is the graph pairing of the cohomology basis against
        the reduced graph's cycle basis pushed into the parent graph.
        """
        blocks = _reduced_blocks(self.graph, self.even_edges())
        return _weil_form(blocks, self.vertex_genus)


@dataclass(frozen=True)
class TwoTorsionClass:
    """A 2-torsion class in block coordinates (h, component, q)."""

    h_part: tuple[int, ...]
    component_part: tuple[int, ...]
    q_part: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_part", tuple(index(x) & 1 for x in self.h_part))
        object.__setattr__(
            self, "component_part", tuple(index(x) & 1 for x in self.component_part)
        )
        object.__setattr__(self, "q_part", tuple(index(x) & 1 for x in self.q_part))

    def vector(self) -> tuple[int, ...]:
        return self.h_part + self.component_part + self.q_part


@dataclass(frozen=True)
class WeilFormModel:
    """The Weil pairing Gram matrix with its block layout and provenance.

    ``cocycles[i]`` is the cochain behind h coordinate ``i``;
    ``reduced_cycles[j]`` is the parent-graph cycle behind q coordinate
    ``j``.  Those witnesses let the pairing be re-derived through double
    covers instead of through this matrix.
    """

    gram: GF2Matrix
    h_dim: int
    component_dim: int
    q_dim: int
    cocycles: tuple[Cochain1, ...]
    reduced_cycles: tuple[Chain1, ...]

    @property
    def total_dim(self) -> int:
        return self.h_dim + self.component_dim + self.q_dim

    def pair(self, x: TwoTorsionClass, y: TwoTorsionClass) -> int:
        """Evaluate the form: x transposed, Gram, y, over GF(2)."""
        shape = (self.h_dim, self.component_dim, self.q_dim)
        for cls in (x, y):
            got = (len(cls.h_part), len(cls.component_part), len(cls.q_part))
            if got != shape:
                raise ValueError(f"class blocks {got} do not match the form {shape}")
        gy = self.gram.mul_vec(y.vector())
        return int(sum(a * b for a, b in zip(x.vector(), gy)) & 1)

    def is_alternating(self) -> bool:
        """Whether the Gram is symmetric with a zero diagonal."""
        return self.gram.is_alternating()
