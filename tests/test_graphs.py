"""Multigraph structure: incidence, genus, forests, derived graphs."""

import random

import pytest

from weilgraph import (
    Chain1,
    Cochain0,
    Cochain1,
    Divisor,
    GF2Matrix,
    IntMatrix,
    MultiGraph,
    TwistedCurveModel,
    TwoTorsionClass,
    bouquet_graph,
    cycle_graph,
    dumbbell_graph,
    is_simple_cycle,
    path_graph,
    theta_graph,
)
from weilgraph.sweeps import connected_multigraphs


def test_stock_graph_shapes():
    assert theta_graph().edges == ((0, 1), (0, 1), (0, 1))
    assert dumbbell_graph().edges == ((0, 0), (0, 1), (1, 1))
    assert cycle_graph(1).edges == ((0, 0),)
    assert cycle_graph(2).edges == ((0, 1), (1, 0))
    assert cycle_graph(4).edges == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert path_graph(3).edges == ((0, 1), (1, 2))
    assert bouquet_graph(3).edges == ((0, 0), (0, 0), (0, 0))


def test_validation():
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        MultiGraph(-1, ())
    with pytest.raises(ValueError):
        cycle_graph(0)
    with pytest.raises(ValueError):
        bouquet_graph(-1)


@pytest.mark.parametrize(
    "build",
    [
        Chain1,
        Cochain1,
        lambda g, es: g.subdivide(2, which=es),
    ],
    ids=["Chain1", "Cochain1", "subdivide"],
)
@pytest.mark.parametrize("bad", [-1, theta_graph().edge_count])
def test_edge_subsets_are_range_checked(build, bad):
    g = theta_graph()
    with pytest.raises(ValueError, match=f"^edge index {bad} out of range$"):
        build(g, frozenset({0, bad}))


NON_INTEGER_INPUTS = {
    "MultiGraph vertex_count": lambda g: MultiGraph(2.5, ()),
    "MultiGraph endpoint": lambda g: MultiGraph(2, ((0, 1.0),)),
    "edge subset": lambda g: Chain1(g, frozenset({0.0})),
    "vertex subset": lambda g: Cochain0(g, frozenset({0.5})),
    "TwistedCurveModel genus": lambda g: TwistedCurveModel(g, (0.5, 0), (2, 2, 2)),
    "TwistedCurveModel order": lambda g: TwistedCurveModel(g, (0, 0), (2.5, 2, 2)),
    "TwoTorsionClass": lambda g: TwoTorsionClass((0.5,), (), ()),
    "Divisor": lambda g: Divisor(g, (0.5, -0.5)),
    "Divisor.scale": lambda g: Divisor(g, (1, -1)).scale(0.5),
    "IntMatrix entry": lambda g: IntMatrix([[1.5]]),
    "IntMatrix cols": lambda g: IntMatrix([], cols=2.0),
    "IntMatrix cols beside rows": lambda g: IntMatrix([[1, 2]], cols=2.0),
    "GF2Matrix cols": lambda g: GF2Matrix([], cols=2.0),
}


@pytest.mark.parametrize("build", NON_INTEGER_INPUTS.values(), ids=NON_INTEGER_INPUTS.keys())
def test_constructors_reject_non_integers(build):
    # int() would truncate these: 0.5 chips to zero, an odd order 2.5 to even 2
    with pytest.raises(TypeError):
        build(theta_graph())


def test_components_and_genus():
    assert theta_graph().genus() == 2
    assert dumbbell_graph().genus() == 2
    assert cycle_graph(5).genus() == 1
    assert path_graph(4).genus() == 0
    assert bouquet_graph(3).genus() == 3

    two_triangles = MultiGraph(
        6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))
    )
    assert two_triangles.component_count == 2
    assert not two_triangles.is_connected()
    assert two_triangles.genus() == 2
    assert two_triangles._edge_components(range(6)) == ([[0, 1, 2], [3, 4, 5]], 6)

    isolated = MultiGraph(3, ((0, 1),))
    assert isolated.component_count == 2
    assert isolated.genus() == 0

    # edge 2 starts a component after the loop's, then edge 4 merges it
    # with edge 0's smaller one: the kept record is younger than the loop's,
    # yet the output stays ordered by smallest member.  Vertex 6 is untouched.
    merged = MultiGraph(7, ((0, 1), (4, 4), (2, 3), (3, 5), (1, 2)))
    components, touched = merged._edge_components(range(5))
    assert [sorted(c) for c in components] == [[0, 2, 3, 4], [1]]
    assert touched == 6
    assert merged.component_count == 3
    assert merged.genus() == 1


def test_spanning_forest_greedy_lowest_index():
    assert theta_graph().spanning_forest() == frozenset({0})
    assert dumbbell_graph().spanning_forest() == frozenset({1})
    assert cycle_graph(4).spanning_forest() == frozenset({0, 1, 2})
    assert bouquet_graph(2).spanning_forest() == frozenset()
    # forest spans each component separately
    g = MultiGraph(4, ((0, 1), (2, 3), (0, 1)))
    assert g.spanning_forest() == frozenset({0, 1})


def test_non_separating_edges():
    assert dumbbell_graph().non_separating_edges() == frozenset({0, 2})
    assert theta_graph().non_separating_edges() == frozenset({0, 1, 2})
    assert path_graph(3).non_separating_edges() == frozenset()
    k4 = MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert k4.non_separating_edges() == frozenset(range(6))


def _cycle_edges_by_deletion(g):
    # oracle: delete each edge and count components; walks no forest path
    return frozenset(
        e
        for e in range(g.edge_count)
        if MultiGraph(g.vertex_count, g.edges[:e] + g.edges[e + 1 :]).component_count
        == g.component_count
    )


def _seeded_graphs():
    # loops, isolated vertices and split graphs, each in more than 30 of 300
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = [rng.choices(range(n), k=2) for _ in range(rng.randint(0, 12))]
        yield MultiGraph(n, tuple(edges))


def test_non_separating_edges_against_deletion():
    for g in connected_multigraphs(6):
        assert g.non_separating_edges() == _cycle_edges_by_deletion(g)
    seen = {"loop": 0, "isolated": 0, "split": 0}
    for g in _seeded_graphs():
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["isolated"] += g.vertex_count > len({x for edge in g.edges for x in edge})
        seen["split"] += g.component_count > 1
        assert g.non_separating_edges() == _cycle_edges_by_deletion(g)
    assert min(seen.values()) > 30, seen


def test_fundamental_cycles():
    assert cycle_graph(4).fundamental_cycles() == {3: frozenset(range(4))}
    assert dumbbell_graph().fundamental_cycles() == {0: {0}, 2: {2}}
    assert path_graph(3).fundamental_cycles() == {}
    for g in [*connected_multigraphs(6), *_seeded_graphs()]:
        forest = g.spanning_forest()
        cycles = g.fundamental_cycles()
        # one cycle per non-forest edge, in edge order, genus of them in all
        assert list(cycles) == [e for e in range(g.edge_count) if e not in forest]
        assert len(cycles) == g.genus()
        for e, support in cycles.items():
            assert is_simple_cycle(Chain1(g, support))
            assert e in support
            assert support <= forest | {e}


def test_subdivide_all_edges():
    sub = theta_graph().subdivide(2)
    assert sub.vertex_count == 5
    assert sub.edges == ((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1))
    # subdivision never changes the genus
    assert sub.genus() == 2


def test_subdivide_loop():
    sub = bouquet_graph(1).subdivide(3)
    assert sub.edges == ((0, 1), (1, 2), (2, 0))
    assert sub.genus() == 1


def test_subdivide_selected_edges():
    sub = dumbbell_graph().subdivide(3, which={1})
    assert sub.edges == ((0, 0), (0, 2), (2, 3), (3, 1), (1, 1))


def test_subdivide_identity():
    g = theta_graph()
    assert g.subdivide(1) == g
    with pytest.raises(ValueError):
        g.subdivide(0)
    with pytest.raises(ValueError):
        g.subdivide(2, which={9})


def test_graphs_hash_and_compare():
    assert theta_graph() == theta_graph()
    assert hash(theta_graph()) == hash(theta_graph())
    assert theta_graph() != dumbbell_graph()
    assert len({theta_graph(), theta_graph(), dumbbell_graph()}) == 2
