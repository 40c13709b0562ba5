"""Decorated dual graphs: 2-torsion counts and the Weil form."""

import random
from functools import lru_cache
from itertools import product

import pytest

from weilgraph import (
    Chain1,
    GF2Matrix,
    MultiGraph,
    TwistedCurveModel,
    TwoTorsionClass,
    bouquet_graph,
    connected_multigraphs,
    dumbbell_graph,
    graph_pairing,
    homology_basis,
    model_sweep,
    theta_graph,
)
from weilgraph import cli, curvemodel, homology

POINT = MultiGraph(1, ())


def test_validation():
    g = theta_graph()
    with pytest.raises(ValueError):
        TwistedCurveModel(g, (0,), (2, 2, 2))
    with pytest.raises(ValueError):
        TwistedCurveModel(g, (0, 0), (2, 2))
    with pytest.raises(ValueError):
        TwistedCurveModel(g, (0, -1), (2, 2, 2))
    with pytest.raises(ValueError):
        TwistedCurveModel(g, (0, 0), (2, 0, 2))


def test_theta_one_odd_edge():
    model = TwistedCurveModel(theta_graph(), (0, 0), (2, 3, 2))
    assert model.arithmetic_genus() == 2
    assert model.graph_genus() == 2
    assert model.reduced_genus() == 1
    assert model.even_edges() == frozenset({0, 2})
    assert model.two_torsion_order() == 8
    assert not model.is_nondegenerate()

    form = model.weil_form()
    assert (form.h_dim, form.component_dim, form.q_dim) == (2, 0, 1)
    assert form.total_dim == 3
    assert form.gram == GF2Matrix([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert form.is_alternating()
    assert not form.gram.is_invertible()


def test_theta_all_even():
    model = TwistedCurveModel(theta_graph(), (0, 0), (2, 2, 2))
    assert model.two_torsion_order() == 16 == 2 ** (2 * model.arithmetic_genus())
    assert model.is_nondegenerate()
    form = model.weil_form()
    assert (form.h_dim, form.component_dim, form.q_dim) == (2, 0, 2)
    assert form.gram == GF2Matrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    assert form.gram.is_invertible()


def test_dumbbell_odd_bridge():
    # the bridge separates, so an odd order there costs nothing
    model = TwistedCurveModel(dumbbell_graph(), (0, 0), (2, 1, 2))
    assert model.two_torsion_order() == 16
    assert model.is_nondegenerate()
    form = model.weil_form()
    assert (form.h_dim, form.component_dim, form.q_dim) == (2, 0, 2)
    assert form.gram == GF2Matrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )


def test_smooth_vertex():
    model = TwistedCurveModel(POINT, (1,), ())
    assert model.arithmetic_genus() == 1
    assert model.two_torsion_order() == 4
    form = model.weil_form()
    assert (form.h_dim, form.component_dim, form.q_dim) == (0, 2, 0)
    assert form.gram == GF2Matrix([[0, 1], [1, 0]])
    assert model.is_nondegenerate()


def test_genus_two_vertex_with_loop():
    odd = TwistedCurveModel(bouquet_graph(1), (2,), (1,))
    assert odd.arithmetic_genus() == 3
    assert odd.reduced_genus() == 0
    assert odd.two_torsion_order() == 32
    assert not odd.is_nondegenerate()
    form = odd.weil_form()
    assert (form.h_dim, form.component_dim, form.q_dim) == (1, 4, 0)
    # the h class pairs with nothing once its q partner is gone
    assert all(x == 0 for x in form.gram.tolist()[0])

    even = TwistedCurveModel(bouquet_graph(1), (2,), (2,))
    assert even.two_torsion_order() == 64 == 2 ** (2 * 3)
    assert even.is_nondegenerate()
    form = even.weil_form()
    assert (form.h_dim, form.component_dim, form.q_dim) == (1, 4, 1)
    assert form.gram == GF2Matrix(
        [
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
        ]
    )
    assert form.is_alternating()


def test_h_block_isotropic_everywhere():
    cases = [
        TwistedCurveModel(theta_graph(), (1, 0), (2, 3, 4)),
        TwistedCurveModel(dumbbell_graph(), (0, 2), (3, 2, 2)),
        TwistedCurveModel(bouquet_graph(3), (1,), (2, 3, 2)),
    ]
    for model in cases:
        form = model.weil_form()
        h = form.h_dim
        assert all(
            form.gram.entry(i, j) == 0 for i in range(h) for j in range(h)
        )
        assert form.is_alternating()


def test_pair_frozen():
    form = TwistedCurveModel(theta_graph(), (0, 0), (2, 3, 2)).weil_form()
    h0 = TwoTorsionClass((1, 0), (), (0,))
    h1 = TwoTorsionClass((0, 1), (), (0,))
    q0 = TwoTorsionClass((0, 0), (), (1,))
    assert form.pair(h0, q0) == 0
    assert form.pair(h1, q0) == 1
    assert form.pair(q0, h1) == 1
    assert form.pair(h0, h1) == 0
    assert form.pair(q0, q0) == 0
    with pytest.raises(ValueError):
        form.pair(h0, TwoTorsionClass((0,), (), (1,)))


def _reference_gram(model):
    """The Weil Gram assembled from scratch as nested 0/1 lists, with the
    reduced graph rebuilt and every h x q entry from ``graph_pairing``."""
    graph = model.graph
    cocycles = homology_basis(graph).cocycles
    odd = [e for e, s in enumerate(model.edge_order) if s % 2]
    reduced, kept = graph.delete_edges(odd)
    pushed = [
        Chain1(graph, frozenset(kept[j] for j in c.edges))
        for c in homology_basis(reduced).cycles
    ]
    h, comp = len(cocycles), 2 * sum(model.vertex_genus)
    total = h + comp + len(pushed)
    rows = [[0] * total for _ in range(total)]
    for i, gamma in enumerate(cocycles):
        for j, alpha in enumerate(pushed):
            bit = graph_pairing(gamma, alpha)
            rows[i][h + comp + j] = rows[h + comp + j][i] = bit
    off = h
    for gv in model.vertex_genus:
        for k in range(gv):
            rows[off + k][off + gv + k] = rows[off + gv + k][off + k] = 1
        off += 2 * gv
    return GF2Matrix(rows, cols=total), (h, comp, len(pushed)), reduced.genus()


def _assert_matches_reference(model):
    form = model.weil_form()
    gram, dims, reduced_genus = _reference_gram(model)
    assert form.gram == gram, (model.graph.edges, model.vertex_genus, model.edge_order)
    assert (form.h_dim, form.component_dim, form.q_dim) == dims
    assert model.reduced_genus() == reduced_genus


def test_weil_form_matches_reference_on_small_models():
    checked = 0
    for graph in connected_multigraphs(3):
        n = graph.vertex_count
        for orders in product((1, 2, 3, 4), repeat=graph.edge_count):
            for genera in product((0, 1), repeat=n):
                _assert_matches_reference(TwistedCurveModel(graph, genera, orders))
                checked += 1
    assert checked == 12922


def test_weil_form_matches_reference_on_random_models():
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randint(8, 20)
        n = rng.randint(1, m)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(m - len(edges))]
        rng.shuffle(edges)
        graph = MultiGraph(n, tuple(edges))
        genera = tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
        orders = tuple(rng.choice((1, 2, 3, 4)) for _ in range(m))
        _assert_matches_reference(TwistedCurveModel(graph, genera, orders))


def test_reduced_blocks_are_per_graph():
    # one even-edge set on different graphs, each asked right after the other
    path = MultiGraph(3, ((0, 1), (1, 2), (0, 1), (0, 0)))
    swapped = MultiGraph(3, ((0, 1), (0, 1), (1, 2), (0, 0)))
    loops = MultiGraph(3, ((0, 0), (1, 2), (1, 1), (0, 1)))
    expected = {
        path: {frozenset({0, 2})},  # the parallel pair
        swapped: set(),  # a path
        loops: {frozenset({0}), frozenset({2})},
    }
    for graph in (path, swapped, loops, path, loops, swapped):
        model = TwistedCurveModel(graph, (0, 1, 0), (2, 1, 2, 1))
        assert model.even_edges() == frozenset({0, 2})
        _assert_matches_reference(model)
        reduced = model.reduced_graph()
        assert reduced.edges == (graph.edges[0], graph.edges[2])
        form = model.weil_form()
        assert all(c.graph == graph for c in form.reduced_cycles)
        assert {c.edges for c in form.reduced_cycles} == expected[graph]


def test_gf2_caches_miss_as_if_unbounded(monkeypatch):
    # the model sweep reuses a basis only among neighbouring graphs and a
    # reduced block only within one even-edge set, so the bounds on both
    # caches cost no misses; homology_basis is bound by name in three modules
    def misses():
        homology.homology_basis.cache_clear()
        curvemodel._reduced_blocks.cache_clear()
        assert model_sweep(4).ok
        return [
            homology.homology_basis.cache_info().misses,
            curvemodel._reduced_blocks.cache_info().misses,
        ]

    bounded = misses()
    basis = lru_cache(maxsize=None)(homology.homology_basis.__wrapped__)
    for module in (homology, curvemodel, cli):
        monkeypatch.setattr(module, "homology_basis", basis)
    blocks = lru_cache(maxsize=None)(curvemodel._reduced_blocks.__wrapped__)
    monkeypatch.setattr(curvemodel, "_reduced_blocks", blocks)
    assert misses() == bounded
