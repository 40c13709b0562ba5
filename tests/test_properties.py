"""Property tests on random connected multigraphs past the exhaustive range.

The sweeps cover every graph with up to six edges; these draw connected
multigraphs with 8 to 40 edges, loops and parallel edges included, and
check that the canonical pairing Gram is the identity and that the cover
route agrees with the support-parity pairing on fundamental cycles.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from weilgraph import (  # noqa: E402
    Cochain1,
    GF2Matrix,
    MultiGraph,
    build_double_cover,
    graph_pairing,
    homology_basis,
    is_simple_cycle,
    lift_cycle,
    pairing_gram,
    pairing_via_cover,
)
from weilgraph.cover import lift_shape_ok  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None)


@st.composite
def connected_multigraphs(draw, min_edges=8, max_edges=40):
    """A spanning tree on shuffled labels, then loops, parallel edges and
    chords up to the edge count, in a drawn order."""
    m = draw(st.integers(min_edges, max_edges))
    n = draw(st.integers(1, m + 1))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), min_size=m - n + 1, max_size=m - n + 1))
    order = draw(st.permutations(range(m)))
    return MultiGraph(n, tuple(edges[i] for i in order))


@PROPERTY_SETTINGS
@given(connected_multigraphs())
def test_pairing_gram_is_identity(graph):
    assert graph.is_connected()
    assert pairing_gram(graph) == GF2Matrix.identity(graph.genus())


@PROPERTY_SETTINGS
@given(connected_multigraphs(), st.data())
def test_cover_pairing_equals_graph_pairing(graph, data):
    cycles = homology_basis(graph).cycles
    m = graph.edge_count
    for _ in range(3):
        gamma = Cochain1(graph, frozenset(data.draw(st.sets(st.integers(0, m - 1)))))
        cover = build_double_cover(graph, gamma)
        for alpha in cycles:
            assert is_simple_cycle(alpha)
            lift = lift_cycle(cover, alpha)
            assert lift_shape_ok(lift, len(alpha.edges))
            assert pairing_via_cover(graph, gamma, alpha) == graph_pairing(gamma, alpha)
            assert (lift[0] == 1) == (graph_pairing(gamma, alpha) == 1)
