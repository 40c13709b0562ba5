"""Chains, cycles, the evaluation pairing, canonical bases."""

import random

import pytest

from oracles import random_connected
from weilgraph import (
    Chain1,
    Cochain0,
    Cochain1,
    GF2Matrix,
    MultiGraph,
    bouquet_graph,
    cycle_graph,
    dumbbell_graph,
    graph_pairing,
    homology_basis,
    is_perfect_pairing,
    is_simple_cycle,
    pairing_gram,
    path_graph,
    theta_graph,
)

BUTTERFLY = MultiGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)))


def test_chain_validation():
    g = theta_graph()
    with pytest.raises(ValueError):
        Chain1(g, frozenset({5}))
    with pytest.raises(ValueError):
        Cochain0(g, frozenset({2}))


def test_boundary():
    g = path_graph(3)
    assert Chain1(g, frozenset({0})).boundary().vertices == frozenset({0, 1})
    assert Chain1(g, frozenset({0, 1})).boundary().vertices == frozenset({0, 2})
    loop = bouquet_graph(1)
    assert Chain1(loop, frozenset({0})).boundary().vertices == frozenset()
    assert Chain1(loop, frozenset({0})).is_cycle()
    tri = cycle_graph(3)
    assert Chain1(tri, frozenset({0, 1, 2})).is_cycle()
    assert not Chain1(tri, frozenset({0, 1})).is_cycle()


def test_coboundary():
    g = cycle_graph(4)
    f = Cochain0(g, frozenset({0}))
    assert f.coboundary().edges == frozenset({0, 3})
    # loops never land in a coboundary
    loop = bouquet_graph(1)
    assert Cochain0(loop, frozenset({0})).coboundary().edges == frozenset()
    # constant functions have empty coboundary
    assert Cochain0(g, frozenset(range(4))).coboundary().edges == frozenset()


def test_pairing_frozen():
    g = theta_graph()
    gamma = Cochain1(g, frozenset({1}))
    alpha = Chain1(g, frozenset({0, 1}))
    assert graph_pairing(gamma, alpha) == 1
    assert graph_pairing(Cochain1(g, frozenset({1, 2})), alpha) == 1
    assert graph_pairing(Cochain1(g, frozenset()), alpha) == 0
    assert graph_pairing(Cochain1(g, frozenset({2})), alpha) == 0


def test_pairing_requires_cycle():
    g = theta_graph()
    with pytest.raises(ValueError):
        graph_pairing(Cochain1(g, frozenset({0})), Chain1(g, frozenset({0})))
    with pytest.raises(ValueError):
        graph_pairing(
            Cochain1(g, frozenset()), Chain1(dumbbell_graph(), frozenset())
        )


def test_pairing_bilinear_and_kills_coboundaries():
    rng = random.Random(3)
    for _ in range(60):
        g = random_connected(rng, 5, 5)
        m = g.edge_count
        basis = homology_basis(g)
        cycles = list(basis.cycles)
        if not cycles:
            continue
        g1 = Cochain1(g, frozenset(e for e in range(m) if rng.random() < 0.4))
        g2 = Cochain1(g, frozenset(e for e in range(m) if rng.random() < 0.4))
        a1 = cycles[rng.randrange(len(cycles))]
        a2 = cycles[rng.randrange(len(cycles))]
        assert graph_pairing(Cochain1(g, g1.edges ^ g2.edges), a1) == (
            graph_pairing(g1, a1) ^ graph_pairing(g2, a1)
        )
        assert graph_pairing(g1, Chain1(g, a1.edges ^ a2.edges)) == (
            graph_pairing(g1, a1) ^ graph_pairing(g1, a2)
        )
        # coboundaries pair to zero with every cycle
        f = Cochain0(g, frozenset(v for v in range(g.vertex_count) if rng.random() < 0.5))
        assert graph_pairing(f.coboundary(), a1) == 0


def test_homology_basis_frozen():
    basis = homology_basis(theta_graph())
    assert basis.forest == frozenset({0})
    assert [sorted(c.edges) for c in basis.cycles] == [[0, 1], [0, 2]]
    assert [sorted(z.edges) for z in basis.cocycles] == [[1], [2]]

    basis = homology_basis(dumbbell_graph())
    assert basis.forest == frozenset({1})
    assert [sorted(c.edges) for c in basis.cycles] == [[0], [2]]

    basis = homology_basis(cycle_graph(4))
    assert [sorted(c.edges) for c in basis.cycles] == [[0, 1, 2, 3]]
    assert [sorted(z.edges) for z in basis.cocycles] == [[3]]

    assert homology_basis(path_graph(4)).genus == 0
    assert homology_basis(bouquet_graph(3)).genus == 3


def test_perfect_pairing_examples():
    for g in (
        theta_graph(),
        dumbbell_graph(),
        cycle_graph(5),
        bouquet_graph(4),
        path_graph(3),
        BUTTERFLY,
        MultiGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))),
    ):
        ok, gram = is_perfect_pairing(g)
        assert ok
        assert gram == GF2Matrix.identity(homology_basis(g).genus)


def test_cycles_span_the_kernel_of_the_boundary():
    # independent dimension count: the cycle space is the GF(2) kernel of
    # the vertex-by-edge boundary matrix
    rng = random.Random(9)
    for _ in range(40):
        g = random_connected(rng, 5, 5)
        rows = [[0] * g.edge_count for _ in range(g.vertex_count)]
        for e, (u, v) in enumerate(g.edges):
            if u != v:
                rows[u][e] ^= 1
                rows[v][e] ^= 1
        boundary = GF2Matrix(rows, cols=g.edge_count)
        kernel_dim = g.edge_count - boundary.rank()
        basis = homology_basis(g)
        assert basis.genus == kernel_dim == g.genus()
        for c in basis.cycles:
            assert c.is_cycle()


def test_is_simple_cycle():
    g = theta_graph()
    assert is_simple_cycle(Chain1(g, frozenset({0, 1})))
    assert is_simple_cycle(Chain1(g, frozenset({1, 2})))
    assert not is_simple_cycle(Chain1(g, frozenset()))
    assert not is_simple_cycle(Chain1(g, frozenset({0})))

    assert is_simple_cycle(Chain1(bouquet_graph(1), frozenset({0})))
    # two disjoint loops are a cycle but not a simple one
    d = dumbbell_graph()
    assert Chain1(d, frozenset({0, 2})).is_cycle()
    assert not is_simple_cycle(Chain1(d, frozenset({0, 2})))
    # both triangles through the shared vertex: connected, degree four
    assert not is_simple_cycle(Chain1(BUTTERFLY, frozenset(range(6))))
    assert is_simple_cycle(Chain1(BUTTERFLY, frozenset({0, 1, 2})))


def test_pairing_gram_shape():
    gram = pairing_gram(path_graph(5))
    assert gram.rows == 0 and gram.cols == 0
    assert pairing_gram(bouquet_graph(2)) == GF2Matrix.identity(2)
