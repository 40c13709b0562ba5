"""Double covers: construction, lifting cycles, the sheet-swap pairing."""

import random
from dataclasses import fields

import pytest

from oracles import random_connected
from weilgraph import (
    Chain1,
    Cochain0,
    Cochain1,
    TwistedCurveModel,
    bouquet_graph,
    build_double_cover,
    connected_multigraphs,
    cover_to_dot,
    cycle_graph,
    dumbbell_graph,
    graph_pairing,
    homology_basis,
    is_simple_cycle,
    lift_cycle,
    pairing_via_cover,
    theta_graph,
)
from weilgraph.cover import lift_shape_ok


def test_build_frozen():
    g = theta_graph()
    cov = build_double_cover(Cochain1(g, frozenset()))
    # a cover keeps its cochain and total graph; the base is the cochain's
    assert [f.name for f in fields(cov)] == ["classifying", "total"]
    assert cov.base is g
    assert cov.total.vertex_count == 4
    assert cov.total.edges == ((0, 1), (2, 3), (0, 1), (2, 3), (0, 1), (2, 3))
    assert not cov.total.is_connected()

    cov = build_double_cover(Cochain1(g, frozenset({1})))
    assert cov.total.edges == ((0, 1), (2, 3), (0, 3), (2, 1), (0, 1), (2, 3))
    assert cov.total.is_connected()


def test_connectivity_tracks_coboundaries():
    # the cover splits exactly when gamma is a coboundary
    g = cycle_graph(4)
    gamma = Cochain0(g, frozenset({0})).coboundary()
    assert not build_double_cover(gamma).total.is_connected()
    assert build_double_cover(Cochain1(g, frozenset({0}))).total.is_connected()


def test_projection_and_deck():
    g = theta_graph()
    cov = build_double_cover(Cochain1(g, frozenset({1})))
    assert cov.project_vertex(3) == 1
    assert cov.deck_vertex(0) == 2
    assert cov.deck_vertex(2) == 0
    assert cov.deck_edge(4) == 5
    assert cov.project_edge(5) == 2
    for e in range(cov.total.edge_count):
        assert cov.deck_edge(cov.deck_edge(e)) == e
        assert cov.project_edge(e) == cov.project_edge(cov.deck_edge(e))
    for v in range(cov.total.vertex_count):
        assert cov.deck_vertex(cov.deck_vertex(v)) == v


def test_lift_frozen():
    g = theta_graph()
    cov = build_double_cover(Cochain1(g, frozenset({1})))
    assert lift_cycle(cov, Chain1(g, frozenset({0, 1}))) == (frozenset({0, 1, 2, 3}),)
    assert lift_cycle(cov, Chain1(g, frozenset({0, 2}))) == (
        frozenset({0, 4}),
        frozenset({1, 5}),
    )


def test_lift_loop():
    loop = bouquet_graph(1)
    cov = build_double_cover(Cochain1(loop, frozenset({0})))
    assert cov.total.edges == ((0, 1), (1, 0))
    assert lift_cycle(cov, Chain1(loop, frozenset({0}))) == (frozenset({0, 1}),)

    cov = build_double_cover(Cochain1(loop, frozenset()))
    assert cov.total.edges == ((0, 0), (1, 1))
    assert lift_cycle(cov, Chain1(loop, frozenset({0}))) == (frozenset({0}), frozenset({1}))


def test_lift_rejects_bad_input():
    g = theta_graph()
    cov = build_double_cover(Cochain1(g, frozenset({1})))
    with pytest.raises(ValueError):
        lift_cycle(cov, Chain1(g, frozenset({0})))
    d = dumbbell_graph()
    with pytest.raises(ValueError):
        lift_cycle(cov, Chain1(d, frozenset({0})))
    # disjoint union of loops is a cycle but not simple
    with pytest.raises(ValueError):
        covd = build_double_cover(Cochain1(d, frozenset()))
        lift_cycle(covd, Chain1(d, frozenset({0, 2})))


def test_pairing_via_cover_matches_algebra():
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        g = random_connected(rng, 5, 4)
        m = g.edge_count
        basis = homology_basis(g)
        simple = [c for c in basis.cycles if is_simple_cycle(c)]
        if not simple:
            continue
        gamma = Cochain1(g, frozenset(e for e in range(m) if rng.random() < 0.4))
        alpha = simple[rng.randrange(len(simple))]
        assert pairing_via_cover(gamma, alpha) == graph_pairing(gamma, alpha)
        cov = build_double_cover(gamma)
        assert lift_shape_ok(lift_cycle(cov, alpha), len(alpha.edges))
        checked += 1


def test_lift_shape_component_sizes():
    # one component of twice the length, or two deck-swapped copies
    rng = random.Random(31)
    for _ in range(100):
        g = random_connected(rng, 5, 4)
        basis = homology_basis(g)
        simple = [c for c in basis.cycles if is_simple_cycle(c)]
        if not simple:
            continue
        alpha = simple[rng.randrange(len(simple))]
        gamma = Cochain1(
            g, frozenset(e for e in range(g.edge_count) if rng.random() < 0.4)
        )
        cov = build_double_cover(gamma)
        comps = lift_cycle(cov, alpha)
        if len(comps) == 1:
            assert len(comps[0]) == 2 * len(alpha.edges)
            assert frozenset(cov.deck_edge(e) for e in comps[0]) == comps[0]
        else:
            a, b = comps
            assert len(a) == len(b) == len(alpha.edges)
            assert frozenset(cov.deck_edge(e) for e in a) == b


def test_lift_shape_rejects_wrong_shapes():
    # the shapes a lift of an l-cycle can have, and the ones it cannot
    for length in (1, 2, 3, 5):
        assert lift_shape_ok([list(range(2 * length))], length)
        assert lift_shape_ok([list(range(length)), list(range(length, 2 * length))], length)
        assert not lift_shape_ok([list(range(length))], length)
        assert not lift_shape_ok([list(range(length)), list(range(length + 1))], length)
        assert not lift_shape_ok([list(range(length + 1)), list(range(length))], length)
        assert not lift_shape_ok([list(range(2 * length)), []], length)
        assert not lift_shape_ok([list(range(length))] * 3, length)
        assert not lift_shape_ok([], length)


def test_cover_pairing_matches_weil_form_on_every_even_set():
    # the h x q corner of every genus-free model with at most five edges,
    # every set of even edges, against the cover pairing of its witnesses;
    # the model sweep makes this check on all-even models only
    keys = checks = 0
    for g in connected_multigraphs(5):
        m = g.edge_count
        for even_mask in range(1 << m):
            orders = tuple(2 if even_mask >> e & 1 else 1 for e in range(m))
            form = TwistedCurveModel(g, (0,) * g.vertex_count, orders).weil_form()
            h = form.h_dim
            assert form.component_dim == 0
            for i, gamma in enumerate(form.cocycles):
                for j, alpha in enumerate(form.reduced_cycles):
                    assert pairing_via_cover(gamma, alpha) == form.gram.entry(i, h + j)
                    checks += 1
            keys += 1
    assert (keys, checks) == (18245, 26906)


def test_dot_output():
    loop = bouquet_graph(1)
    cov = build_double_cover(Cochain1(loop, frozenset({0})))
    assert cover_to_dot(cov) == (
        "graph cover {\n"
        "  v0_a;\n"
        "  v0_b;\n"
        "  v0_a -- v0_b [label=0 style=dashed];\n"
        "  v0_b -- v0_a [label=0 style=dashed];\n"
        "}\n"
    )
    g = theta_graph()
    dot = cover_to_dot(build_double_cover(Cochain1(g, frozenset({1}))))
    assert "v1_b;" in dot
    assert "style=dashed" in dot
    # only the twisted edge pair is dashed
    assert dot.count("style=dashed") == 2
