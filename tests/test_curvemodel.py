"""Decorated dual graphs: 2-torsion counts and the Weil form."""

import pytest

from weilgraph import (
    GF2Matrix,
    MultiGraph,
    TwistedCurveModel,
    TwoTorsionClass,
    bouquet_graph,
    coarse_pairing,
    dumbbell_graph,
    theta_graph,
)

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


def test_coarse_pairing():
    model = TwistedCurveModel(POINT, (1,), ())
    assert coarse_pairing(model, (1, 0), (0, 1)) == 1
    assert coarse_pairing(model, (1, 0), (1, 0)) == 0
    two = TwistedCurveModel(MultiGraph(2, ((0, 1),)), (1, 1), (2,))
    assert coarse_pairing(two, (1, 0, 0, 0), (0, 1, 0, 0)) == 1
    assert coarse_pairing(two, (1, 0, 1, 0), (0, 1, 0, 1)) == 0
    with pytest.raises(ValueError):
        coarse_pairing(two, (1, 0), (0, 1))
