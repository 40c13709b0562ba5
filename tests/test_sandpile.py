"""Chip firing: reduced divisors, critical groups, torsion on subdivisions."""

import dataclasses
import random
from functools import lru_cache

import pytest

from oracles import check_smith_form, random_connected
from weilgraph import (
    Divisor,
    InputDocument,
    MultiGraph,
    bouquet_graph,
    critical_group,
    cycle_graph,
    dhar_reduce,
    divisors_equivalent,
    dumbbell_graph,
    laplacian,
    path_graph,
    reduced_laplacian,
    smith_normal_form,
    spanning_tree_count,
    theta_graph,
    torsion_sweep,
    verify_torsion_on_subdivision,
)
from weilgraph import sandpile
from weilgraph.sandpile import _burn_data, _fire, _principal_shift

K4 = MultiGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))


def test_laplacian_frozen():
    assert laplacian(cycle_graph(3)).entries == (
        (2, -1, -1),
        (-1, 2, -1),
        (-1, -1, 2),
    )
    # loops drop out of the Laplacian entirely
    assert laplacian(dumbbell_graph()).entries == ((1, -1), (-1, 1))
    assert laplacian(theta_graph()).entries == ((3, -3), (-3, 3))
    assert reduced_laplacian(cycle_graph(3)).entries == ((2, -1), (-1, 2))
    assert reduced_laplacian(theta_graph()).entries == ((3,),)
    assert reduced_laplacian(path_graph(3)).entries == ((2, -1), (-1, 1))


def test_laplacian_rows_sum_to_zero():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected(rng, 5, 4, min_vertices=2)
        lap = laplacian(g)
        assert all(sum(row) == 0 for row in lap.entries)
        assert lap.entries == tuple(zip(*lap.entries))


def test_spanning_tree_count():
    assert spanning_tree_count(cycle_graph(3)) == 3
    assert spanning_tree_count(K4) == 16
    assert spanning_tree_count(theta_graph()) == 3
    assert spanning_tree_count(dumbbell_graph()) == 1
    assert spanning_tree_count(path_graph(3)) == 1
    assert spanning_tree_count(bouquet_graph(2)) == 1
    with pytest.raises(ValueError):
        spanning_tree_count(MultiGraph(2, ()))
    with pytest.raises(ValueError, match="empty graph: it has no vertices"):
        spanning_tree_count(MultiGraph(0, ()))


def test_divisor_arithmetic():
    g = cycle_graph(3)
    a = Divisor(g, (1, 2, -3))
    b = Divisor(g, (0, 1, 0))
    assert a.degree() == 0
    assert (a - b).coefficients == (1, 1, -3)
    assert a.scale(2).coefficients == (2, 4, -6)
    with pytest.raises(ValueError):
        Divisor(g, (1, 2))
    with pytest.raises(ValueError):
        a - Divisor(theta_graph(), (0, 0))


def test_dhar_frozen():
    g = cycle_graph(3)
    assert dhar_reduce(g, Divisor(g, (0, 1, -1))).coefficients == (-1, 0, 1)
    assert dhar_reduce(g, Divisor(g, (0, -1, 1))).coefficients == (-1, 1, 0)
    zero = Divisor.zero(g)
    assert dhar_reduce(g, zero) == zero
    # one vertex: the fire burns it at once and every divisor is reduced
    one = bouquet_graph(2)
    for coefficients in ((5,), (-3,)):
        assert dhar_reduce(one, Divisor(one, coefficients)).coefficients == coefficients


def test_dhar_validation():
    g = cycle_graph(3)
    d = Divisor(g, (0, 0, 0))
    with pytest.raises(ValueError):
        dhar_reduce(theta_graph(), d)
    empty = MultiGraph(0, ())
    with pytest.raises(ValueError, match="empty graph"):
        dhar_reduce(empty, Divisor.zero(empty))
    disconnected = MultiGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        dhar_reduce(disconnected, Divisor.zero(disconnected))


def test_dhar_properties():
    rng = random.Random(11)
    for _ in range(120):
        g = random_connected(rng, 5, 4, min_vertices=2)
        n = g.vertex_count
        d = Divisor(g, tuple(rng.randint(-4, 4) for _ in range(n)))
        red = dhar_reduce(g, d)
        # effective away from vertex 0, stable under reduction, same class
        assert all(c >= 0 for c in red.coefficients[1:])
        assert dhar_reduce(g, red) == red
        assert red.degree() == d.degree()
        assert divisors_equivalent(d, red)


def test_dhar_reduced_is_class_invariant():
    # firing any vertex must not change the reduced form
    rng = random.Random(13)
    for _ in range(60):
        g = random_connected(rng, 5, 4, min_vertices=2)
        n = g.vertex_count
        lap = laplacian(g)
        d = Divisor(g, tuple(rng.randint(-3, 3) for _ in range(n)))
        v = rng.randrange(n)
        fired = Divisor(g, tuple(
            c - lap.entries[v][w] for w, c in enumerate(d.coefficients)
        ))
        assert dhar_reduce(g, d) == dhar_reduce(g, fired)


def test_equivalence_cases():
    g = cycle_graph(3)
    zero = Divisor.zero(g)
    assert not divisors_equivalent(Divisor(g, (1, -1, 0)), zero)
    assert divisors_equivalent(Divisor(g, (3, -3, 0)), zero)
    # degree mismatch short-circuits
    assert not divisors_equivalent(Divisor(g, (1, 0, 0)), zero)
    with pytest.raises(ValueError):
        divisors_equivalent(zero, Divisor.zero(theta_graph()))


def test_critical_group_frozen():
    assert critical_group(theta_graph()).invariant_factors == (3,)
    assert critical_group(cycle_graph(3)).invariant_factors == (3,)
    assert critical_group(K4).invariant_factors == (4, 4)
    assert critical_group(K4).order() == 16
    assert critical_group(dumbbell_graph()).invariant_factors == ()
    assert critical_group(dumbbell_graph()).order() == 1


def test_critical_group_order_counts_trees():
    rng = random.Random(19)
    for _ in range(40):
        g = random_connected(rng, 5, 4, min_vertices=2)
        assert critical_group(g).order() == spanning_tree_count(g)


def test_generator_orders():
    for g in (theta_graph(), K4, cycle_graph(5)):
        group = critical_group(g)
        zero = Divisor.zero(g)
        for factor, gen in zip(group.invariant_factors, group.generators):
            assert gen.degree() == 0
            assert divisors_equivalent(gen.scale(factor), zero)
            assert not divisors_equivalent(gen, zero)
            for k in range(2, factor):
                if factor % k == 0:
                    assert not divisors_equivalent(gen.scale(factor // k), zero)


def test_r_torsion():
    theta = critical_group(theta_graph())
    assert theta.r_torsion(2)[0] == 1
    count, gens = theta.r_torsion(3)
    assert count == 3 and len(gens) == 1
    assert critical_group(K4).r_torsion(2)[0] == 4
    with pytest.raises(ValueError):
        theta.r_torsion(0)


def test_torsion_on_subdivision_frozen():
    rep = verify_torsion_on_subdivision(theta_graph(), 2)
    assert rep.invariant_factors == (2, 6)
    assert rep.torsion_count == 4
    assert rep.expected == 4
    assert rep.verdict
    assert rep.subdivision.edge_count == 6

    rep = verify_torsion_on_subdivision(bouquet_graph(1), 2)
    assert rep.torsion_count == 2 and rep.verdict

    rep = verify_torsion_on_subdivision(dumbbell_graph(), 3, mode="nonsep")
    assert rep.invariant_factors == (3, 3)
    assert rep.torsion_count == 9 == rep.expected
    assert rep.verdict
    # the bridge edge 1 stayed undivided
    assert rep.subdivision.edges == (
        (0, 2), (2, 3), (3, 0), (0, 1), (1, 4), (4, 5), (5, 1)
    )

    rep = verify_torsion_on_subdivision(theta_graph(), 1)
    assert rep.torsion_count == 1 and rep.verdict


def test_torsion_report_generators():
    rep = verify_torsion_on_subdivision(theta_graph(), 3)
    assert rep.verdict and rep.invariant_factors == (3, 9)
    child = rep.subdivision
    zero = Divisor.zero(child)
    for gen in rep.generators:
        # generators live on the subdivided graph, degree 0, order dividing r
        assert gen.graph == child
        assert gen.degree() == 0
        assert divisors_equivalent(gen.scale(3), zero)
        assert not divisors_equivalent(gen, zero)


def test_torsion_modes_and_errors():
    with pytest.raises(ValueError):
        verify_torsion_on_subdivision(theta_graph(), 2, mode="some")
    with pytest.raises(ValueError):
        verify_torsion_on_subdivision(theta_graph(), 0)
    with pytest.raises(ValueError):
        verify_torsion_on_subdivision(MultiGraph(2, ()), 2)
    full = verify_torsion_on_subdivision(K4, 2)
    nonsep = verify_torsion_on_subdivision(K4, 2, mode="nonsep")
    assert full.torsion_count == nonsep.torsion_count == 2 ** 3


def test_undivided_graph_misses_the_count():
    # without subdivision the cycle C3 has no 2-torsion at all
    assert critical_group(cycle_graph(3)).r_torsion(2)[0] == 1
    assert verify_torsion_on_subdivision(cycle_graph(3), 2).torsion_count == 2


def test_principal_shift_preserves_class():
    rng = random.Random(29)
    for _ in range(60):
        g = random_connected(rng, 5, 4, min_vertices=2)
        n = g.vertex_count
        coeffs = [rng.randint(-500, 500) for _ in range(n)]
        shifted = _principal_shift(g, list(coeffs))
        assert sum(shifted) == sum(coeffs)
        a = dhar_reduce(g, Divisor(g, tuple(coeffs)))
        b = dhar_reduce(g, Divisor(g, tuple(shifted)))
        assert a == b
        # rounding leaves at most a non-loop degree's worth of residue off
        # vertex 0: the Laplacian diagonal, where a loop counts nothing
        lap = laplacian(g).entries
        for v in range(1, n):
            assert abs(shifted[v]) <= lap[v][v]


def test_fire_subtracts_the_laplacian_image():
    # the one firing step against the dense Laplacian, which is built
    # without the burn table
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 7)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12)))
        g = MultiGraph(n, edges)
        d = [rng.randint(-50, 50) for _ in range(n)]
        fire = [rng.randint(-5, 5) for _ in range(n)]
        lap = laplacian(g).entries
        expect = [d[v] - sum(x * f for x, f in zip(lap[v], fire)) for v in range(n)]
        _fire(d, _burn_data(g)[0], fire)
        assert d == expect, (edges, fire)


def test_burn_caches_miss_as_if_unbounded(monkeypatch):
    # a graph is done with before the next one starts, so the
    # small bound on both caches costs no misses
    caches = ("_burn_data", "_reduced_smith")

    def misses():
        for name in caches:
            getattr(sandpile, name).cache_clear()
        assert torsion_sweep(3, rs=(2, 3)).ok
        return [getattr(sandpile, name).cache_info().misses for name in caches]

    bounded = misses()
    for name in caches:
        unbounded = lru_cache(maxsize=None)(getattr(sandpile, name).__wrapped__)
        monkeypatch.setattr(sandpile, name, unbounded)
    assert misses() == bounded


def _noisy_shears(rng, records=("_row_record", "_col_record")):
    # a corruption: seeded noise on every shear coefficient of the named
    # records, so the transforms stay unimodular but are no longer the form's
    def noisy(record):
        steps, order = record
        steps = tuple(
            (s[0], s[1], s[2] + rng.randint(-3, 3)) if len(s) == 3 else s for s in steps
        )
        return steps, order

    def corrupt(snf):
        return dataclasses.replace(snf, **{name: noisy(getattr(snf, name)) for name in records})

    return corrupt


def _hand_out(monkeypatch, corrupt):
    # every cached Smith form handed out as corrupt(form)
    honest = sandpile._reduced_smith
    monkeypatch.setattr(sandpile, "_reduced_smith", lambda g: corrupt(honest(g)))


def test_burning_survives_a_corrupted_smith_form(monkeypatch):
    # the shift reads the cached Smith form, but any integer firing keeps
    # the class: garbage transforms may slow burning, never change it
    rng = random.Random(31)
    cases = []
    for _ in range(40):
        g = random_connected(rng, 5, 4, min_vertices=2)
        n = g.vertex_count
        coeffs = tuple(rng.randint(-1000, 1000) for _ in range(n))
        cases.append((g, Divisor(g, coeffs)))
    clean = [dhar_reduce(g, d) for g, d in cases]
    clean_shifts = [_principal_shift(g, list(d.coefficients)) for g, d in cases]

    _hand_out(monkeypatch, _noisy_shears(rng))
    shifts = [_principal_shift(g, list(d.coefficients)) for g, d in cases]
    assert shifts != clean_shifts
    assert [dhar_reduce(g, d) for g, d in cases] == clean


# Forty edges at r = 4: the 132 x 132 reduced Laplacian whose Smith form
# once grew transform entries of over 380000 bits and took about 19 s.
FORTY_EDGES = (
    '{"vertices": 13, "edges": [[8, 8], [10, 10], [3, 10], [9, 9], [1, 5],'
    ' [1, 11], [0, 1], [6, 2], [3, 12], [2, 3], [1, 2], [4, 0], [3, 4], [5, 9],'
    ' [0, 6], [5, 5], [0, 1], [11, 3], [1, 8], [9, 12], [4, 1], [7, 7], [3, 9],'
    ' [2, 3], [6, 6], [3, 12], [9, 7], [1, 8], [6, 6], [1, 5], [12, 5], [6, 7],'
    ' [2, 5], [9, 11], [5, 8], [3, 7], [1, 5], [3, 4], [3, 9], [2, 5]]}'
)


def test_forty_edge_subdivision_keeps_transforms_small():
    g = InputDocument.parse(FORTY_EDGES).graph()
    rep = verify_torsion_on_subdivision(g, 4)
    assert rep.verdict and rep.torsion_count == 4 ** g.genus() == 4 ** 28
    snf = smith_normal_form(reduced_laplacian(rep.subdivision))
    assert snf.matrix.rows == 132
    for mat in check_smith_form(snf):
        assert max(abs(x).bit_length() for row in mat for x in row) <= 65536


def test_shift_fires_exactly_outside_the_degree_box(monkeypatch):
    # the shift is taken when some entry off vertex 0 leaves [-deg, deg],
    # the box it is proven to land in, and never otherwise
    shifted = []
    honest = sandpile._principal_shift

    def spy(graph, d):
        shifted.append(tuple(d))
        return honest(graph, d)

    monkeypatch.setattr(sandpile, "_principal_shift", spy)
    g = K4  # every degree is 3
    for coeffs, expect in (
        ((0, 3, -3, 0), False),
        ((-100, 3, 3, 3), False),  # vertex 0's entry never counts
        ((0, 4, -4, 0), True),
        ((0, 0, -4, 4), True),
        ((3, -3, 0, 0), False),
    ):
        shifted.clear()
        red = dhar_reduce(g, Divisor(g, coeffs))
        assert bool(shifted) == expect, coeffs
        assert dhar_reduce(g, red) == red
    # a dumbbell's vertices have degree 1 whatever their loops
    g = dumbbell_graph()
    shifted.clear()
    dhar_reduce(g, Divisor(g, (-1, 1)))
    assert not shifted
    dhar_reduce(g, Divisor(g, (-2, 2)))
    assert shifted


def test_torsion_sweep_catches_wrong_generators(monkeypatch):
    # generators are undone from the recorded row steps; burning must see
    # that r times a wrong one is not principal, whatever shift it takes
    _hand_out(monkeypatch, _noisy_shears(random.Random(37), records=("_row_record",)))
    res = torsion_sweep(4, rs=(2, 3, 4, 5))
    assert res.instances == 1080
    assert res.failure_count > 0
    assert all(f["kind"] == "generator-order" for f in res.failures)


def test_torsion_sweep_ignores_a_wrong_shift(monkeypatch):
    # the column steps feed only the shift (the row steps feed the
    # generators too): a wrong shift lands outside the degree box, but no
    # shift can change a verdict
    _hand_out(monkeypatch, _noisy_shears(random.Random(43), records=("_col_record",)))
    outside = []
    honest = sandpile._principal_shift

    def spy(graph, d):
        out = honest(graph, d)
        lap = laplacian(graph).entries
        outside.append(any(abs(c) > lap[v][v] for v, c in enumerate(out) if v))
        return out

    monkeypatch.setattr(sandpile, "_principal_shift", spy)
    res = torsion_sweep(4, rs=(2, 3, 4, 5))
    assert res.instances == 1080
    assert res.ok, res.failures
    assert any(outside)
