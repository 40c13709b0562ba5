"""Property tests on random connected multigraphs past the exhaustive range.

The sweeps cover every graph with up to six edges; these draw connected
multigraphs with 8 to 40 edges, loops and parallel edges included, and
check that the canonical pairing Gram is the identity, that the cover
route agrees with the support-parity pairing on fundamental cycles and a
cover is connected exactly when its cochain is no coboundary, that
burning agrees with an exact rational solve and is idempotent, that
burning's principal shift is the rounded rational solution, that
subdividing each edge into r parts realizes r to the genus r-torsion
classes of order r, that the critical group has one element per spanning
tree, that the Smith form of subdivided reduced Laplacians, and of their
multiples, has the determinant as its product and agrees with sympy's on
the smaller ones, and that the 2-torsion count of a decorated model meets
the Weil form and the nondegeneracy criterion.  On any multigraph of up
to 40 vertices, connected or not, the components and the genus agree
with networkx's.
Every test runs on the same draws each time.
"""

from fractions import Fraction
from math import floor, prod
from operator import mul

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, note, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import check_smith_form, in_laplacian_image, rational_solution  # noqa: E402
from weilgraph import (  # noqa: E402
    Cochain1,
    Divisor,
    GF2Matrix,
    IntMatrix,
    MultiGraph,
    TwistedCurveModel,
    build_double_cover,
    critical_group,
    dhar_reduce,
    divisors_equivalent,
    graph_pairing,
    homology_basis,
    is_simple_cycle,
    laplacian,
    lift_cycle,
    pairing_gram,
    pairing_via_cover,
    reduced_laplacian,
    smith_normal_form,
    spanning_tree_count,
    verify_torsion_on_subdivision,
)
from weilgraph.cover import lift_shape_ok  # noqa: E402
from weilgraph.sandpile import _principal_shift  # noqa: E402
from weilgraph.sweeps import _coboundary_basis, _is_coboundary  # noqa: E402

# the same draws on every run, so a failure replays
SEEDED_SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True)


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


@SEEDED_SETTINGS
@given(connected_multigraphs())
def test_pairing_gram_is_identity(graph):
    assert graph.is_connected()
    assert pairing_gram(graph) == GF2Matrix.identity(graph.genus())


@SEEDED_SETTINGS
@given(connected_multigraphs(), st.data())
def test_cover_pairing_equals_graph_pairing(graph, data):
    cycles = homology_basis(graph).cycles
    basis = _coboundary_basis(graph)
    m = graph.edge_count
    for _ in range(3):
        gamma = Cochain1(graph, frozenset(data.draw(st.sets(st.integers(0, m - 1)))))
        cover = build_double_cover(gamma)
        bits = sum(1 << e for e in gamma.edges)
        assert cover.is_connected() == (not _is_coboundary(basis, bits))
        for alpha in cycles:
            assert is_simple_cycle(alpha)
            lift = lift_cycle(cover, alpha)
            assert lift_shape_ok(lift, len(alpha.edges))
            assert pairing_via_cover(gamma, alpha) == graph_pairing(gamma, alpha)
            assert (len(lift) == 1) == (graph_pairing(gamma, alpha) == 1)


@st.composite
def multigraphs(draw, max_vertices=40):
    """Any multigraph on 0 to 40 vertices: random edges, then loops and
    repeats of drawn edges, in a drawn order; isolated vertices as they fall."""
    n = draw(st.integers(0, max_vertices))
    if n == 0:
        return MultiGraph(0)
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=n + 5))
    edges += draw(st.lists(vertex.map(lambda v: (v, v)), max_size=3))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    order = draw(st.permutations(range(len(edges))))
    return MultiGraph(n, tuple(edges[i] for i in order))


def _nx_edge_components(nx, graph, subset):
    # networkx's components of the edges in ``subset``, as edge-index sets
    # ordered by smallest member, and the vertices they touch; the edge
    # index is the networkx edge key
    sub = nx.MultiGraph()
    sub.add_edges_from((*graph.edges[e], e) for e in subset)
    components = (
        frozenset(k for _, _, k in sub.subgraph(vertices).edges(keys=True))
        for vertices in nx.connected_components(sub)
    )
    return sorted(components, key=min), sub.number_of_nodes()


def _edge_components(graph, subset):
    # the walk on ascending edge indices, as every caller in the package
    # holds them, with each component as a set
    components, touched = graph._edge_components(sorted(subset))
    return list(map(frozenset, components)), touched


@SEEDED_SETTINGS
@given(multigraphs(), st.data())
def test_connectivity_agrees_with_networkx(graph, data):
    nx = pytest.importorskip("networkx")
    whole = nx.MultiGraph()
    whole.add_nodes_from(range(graph.vertex_count))
    whole.add_edges_from(graph.edges)
    count = nx.number_connected_components(whole)
    assert graph.component_count == count
    assert graph.genus() == graph.edge_count - graph.vertex_count + count
    m = graph.edge_count
    everything = range(m)
    assert _edge_components(graph, everything) == _nx_edge_components(nx, graph, everything)
    for _ in range(3):
        subset = {e for e in everything if data.draw(st.booleans())}
        assert _edge_components(graph, subset) == _nx_edge_components(nx, graph, subset)


@st.composite
def divisors(draw, graph, degree=None):
    """A small divisor (of the given degree, if one is given) minus the
    principal divisor of a random firing.  The firing's reach puts the
    entries inside the degree box ``[-deg(v), deg(v)]`` on some draws and
    far outside it on others, so burning runs both with and without its
    principal shift."""
    n = graph.vertex_count
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    if degree is not None:
        coeffs[0] += degree - sum(coeffs)
    reach = draw(st.sampled_from((0, 1, 5, 1000)))
    fire = draw(st.lists(st.integers(-reach, reach), min_size=n, max_size=n))
    lap = laplacian(graph).entries
    return Divisor(
        graph, tuple(c - sum(map(mul, row, fire)) for c, row in zip(coeffs, lap))
    )


def _in_degree_box(graph, divisor):
    lap = laplacian(graph).entries
    return all(abs(c) <= lap[v][v] for v, c in enumerate(divisor.coefficients) if v)


@SEEDED_SETTINGS
@given(connected_multigraphs(), st.data())
def test_burning_agrees_with_rational_oracle(graph, data):
    d1 = data.draw(divisors(graph))
    d2 = data.draw(divisors(graph, degree=d1.degree()))
    diff = d1 - d2
    note(f"difference inside the degree box: {_in_degree_box(graph, diff)}")
    assert divisors_equivalent(graph, d1, d2) == in_laplacian_image(
        graph, diff.coefficients
    )


@SEEDED_SETTINGS
@given(connected_multigraphs(), st.data())
def test_dhar_reduce_is_idempotent(graph, data):
    d = data.draw(divisors(graph))
    red = dhar_reduce(graph, d)
    assert red.degree() == d.degree()
    # reduced means 0 <= red[v] < deg(v) off vertex 0, inside the box
    assert all(c >= 0 for c in red.coefficients[1:])
    assert _in_degree_box(graph, red)
    assert dhar_reduce(graph, red) == red


@SEEDED_SETTINGS
@given(connected_multigraphs(), st.data())
def test_principal_shift_is_the_rounded_rational_solution(graph, data):
    # the shift applies the Smith form's recorded steps to its vector; the
    # oracle solves the same system on its own and rounds half up
    assume(graph.vertex_count > 1)
    d = list(data.draw(divisors(graph)).coefficients)
    fire = [floor(x + Fraction(1, 2)) for x in rational_solution(graph, 0, d)]
    lap = laplacian(graph).entries
    expect = [c - sum(map(mul, row, fire)) for c, row in zip(d, lap)]
    assert _principal_shift(graph, d) == expect


@SEEDED_SETTINGS
@given(st.integers(2, 5), st.data())
def test_subdivision_torsion_past_six_edges(r, data):
    # the tropical claim the torsion sweep checks up to six edges, here on
    # 8 to 40 edges with r * edges <= 120, in both subdivision modes
    graph = data.draw(connected_multigraphs(max_edges=120 // r))
    for mode in ("all", "nonsep"):
        rep = verify_torsion_on_subdivision(graph, r, mode)
        assert rep.verdict and rep.torsion_count == r ** graph.genus()
        child = rep.subdivision
        for gen in rep.generators:
            assert gen.degree() == 0
            assert divisors_equivalent(child, gen.scale(r), Divisor.zero(child))


@SEEDED_SETTINGS
@given(connected_multigraphs())
def test_critical_group_order_counts_spanning_trees(graph):
    assert critical_group(graph).order() == spanning_tree_count(graph)


# sympy's own Smith form has a heavy tail on larger draws: up to 1.1 s on
# random 38 x 38 and 42 x 42 draws of this test, and 18 s, 60 s and over 6
# minutes on some 42 x 42 draws of an earlier seeded version.  So it runs
# only on draws with at most 30 rows: 82 of the 100 fixed draws under
# hypothesis 6.155.2, where its slowest call took 0.004 s.
SYMPY_MAX_ROWS = 30


@SEEDED_SETTINGS
@given(connected_multigraphs(max_edges=20), st.integers(2, 3), st.integers(1, 3))
def test_smith_agrees_with_sympy_on_subdivided_laplacians(graph, r, k):
    # r stays at 2 or 3: sympy's own Smith form took 89 s on one 57 x 57
    # reduced Laplacian at r = 4.  For k > 1 no entry is a unit, so phase
    # one runs on divisor pivots alone.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    child = graph.subdivide(r)
    rows = [[k * x for x in row] for row in reduced_laplacian(child).entries]
    snf = smith_normal_form(IntMatrix(rows))
    # unimodular transforms and the divisibility chain make the diagonal the
    # Smith form; the Bareiss determinant checks it on its own
    check_smith_form(snf)
    assert prod(snf.diagonal) == abs(IntMatrix(rows).det())
    if len(rows) <= SYMPY_MAX_ROWS:
        oracle = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        assert snf.diagonal == tuple(abs(int(oracle[i, i])) for i in range(len(rows)))


@SEEDED_SETTINGS
@given(connected_multigraphs(), st.data())
def test_two_torsion_criterion(graph, data):
    n, m = graph.vertex_count, graph.edge_count
    genera = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    orders = data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    model = TwistedCurveModel(graph, genera, orders)
    form = model.weil_form()
    order = model.two_torsion_order()
    nondegenerate = model.is_nondegenerate()
    assert order == 2**form.total_dim
    assert (order == 2 ** (2 * model.arithmetic_genus())) == nondegenerate
    assert form.gram.is_invertible() == nondegenerate
    assert form.is_alternating()
    assert form.gram.block_is_zero(range(form.h_dim), range(form.h_dim))
