"""The exhaustive sweeps and the enumerator that feeds them."""

import gc
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from weilgraph import (
    Chain1,
    Cochain1,
    GF2Matrix,
    MultiGraph,
    SweepResult,
    all_cochains,
    all_simple_cycles,
    connected_multigraphs,
    is_simple_cycle,
    model_sweep,
    pairing_equivalence_sweep,
    perfect_pairing_sweep,
    theta_graph,
    torsion_sweep,
)
from weilgraph import sweeps
from weilgraph.sweeps import _MAX_RECORDED, _coboundary_basis, _is_coboundary

K4 = MultiGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))


def _canonical(graph):
    """Isomorphism-class key: the minimal relabeled sorted edge list."""
    n = graph.vertex_count
    best = None
    for perm in permutations(range(n)):
        code = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges)
        )
        if best is None or code < best:
            best = code
    return (n, best)


def _brute_force_classes(m):
    """Every connected multigraph with exactly m edges, up to isomorphism."""
    classes = set()
    for n in range(1, m + 2):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        for combo in combinations_with_replacement(pairs, m):
            g = MultiGraph(n, combo)
            if g.is_connected():
                classes.add(_canonical(g))
    return classes


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_enumerator_hits_every_isomorphism_class(m):
    generated = set()
    for g in connected_multigraphs(m):
        assert g.is_connected()
        if g.edge_count == m:
            generated.add(_canonical(g))
    assert generated == _brute_force_classes(m)


def test_enumerator_counts_frozen():
    assert sum(1 for _ in connected_multigraphs(4)) == 135
    assert sum(1 for _ in connected_multigraphs(5)) == 647
    assert sum(1 for _ in connected_multigraphs(6)) == 3393
    assert [g.edges for g in connected_multigraphs(0)] == [()]
    with pytest.raises(ValueError):
        list(connected_multigraphs(-1))


def test_all_cochains():
    g = theta_graph()
    chains = list(all_cochains(g))
    assert len(chains) == 8
    assert len({c.edges for c in chains}) == 8
    assert all(isinstance(c, Cochain1) for c in chains)


def test_all_simple_cycles():
    assert len(all_simple_cycles(theta_graph())) == 3
    # four triangles plus three quadrilaterals
    assert len(all_simple_cycles(K4)) == 7
    assert all_simple_cycles(MultiGraph(2, ((0, 1),))) == ()


def test_all_simple_cycles_match_plain_subset_search():
    # the boundary filter drops only subsets that are no cycle at all
    total = 0
    for g in connected_multigraphs(6):
        m = g.edge_count
        plain = []
        for size in range(1, m + 1):
            for combo in combinations(range(m), size):
                chain = Chain1(g, frozenset(combo))
                if is_simple_cycle(chain):
                    plain.append(chain)
        assert all_simple_cycles(g) == tuple(plain), g.edges
        total += len(plain)
    assert total == 7929


def test_enumerator_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        assert sum(1 for _ in connected_multigraphs(5)) == 647
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_is_coboundary():
    g = theta_graph()
    basis = _coboundary_basis(g)
    assert _is_coboundary(basis, Cochain1(g, frozenset()))
    assert _is_coboundary(basis, Cochain1(g, frozenset({0, 1, 2})))
    assert not _is_coboundary(basis, Cochain1(g, frozenset({0, 1})))
    assert not _is_coboundary(basis, Cochain1(g, frozenset({0})))


def test_is_coboundary_against_solve():
    # the per-graph echelon basis against solving the incidence system
    checked = 0
    for g in connected_multigraphs(4):
        n = g.vertex_count
        rows = [[int(u != v and w in (u, v)) for w in range(n)] for u, v in g.edges]
        incidence = GF2Matrix(rows, cols=n)
        basis = _coboundary_basis(g)
        for gamma in all_cochains(g):
            target = [int(e in gamma.edges) for e in range(g.edge_count)]
            assert _is_coboundary(basis, gamma) == (incidence.solve(target) is not None)
            checked += 1
    assert checked == sum(2**g.edge_count for g in connected_multigraphs(4))


def test_sweep_result_bookkeeping():
    res = SweepResult("demo")
    assert res.ok and res.summary() == "demo: 0 instances, ok"
    for i in range(25):
        res.record(detail=i)
    assert not res.ok
    assert res.failure_count == 25
    assert len(res.failures) == _MAX_RECORDED
    assert "FAIL (25 counterexamples)" in res.summary()


def test_perfect_pairing_sweep_small():
    res = perfect_pairing_sweep(4)
    assert res.ok
    assert res.instances == 135


def test_pairing_equivalence_sweep_small():
    res = pairing_equivalence_sweep(3)
    assert res.ok
    assert res.instances > 0


def test_model_sweep_small():
    res = model_sweep(3)
    assert res.ok
    assert res.instances > 0


def test_torsion_sweep_small():
    res = torsion_sweep(3, rs=(2,))
    assert res.ok
    assert res.instances > 0


def test_torsion_sweep_rejects_nonpositive_r(monkeypatch):
    # rs is checked once, before any graph is enumerated
    def no_graphs(max_edges):
        raise AssertionError("enumerated before checking rs")

    monkeypatch.setattr(sweeps, "connected_multigraphs", no_graphs)
    with pytest.raises(ValueError, match="torsion indices must be positive"):
        torsion_sweep(2, rs=(2, 0))


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: pairing_equivalence_sweep(2, inject_fault=True),
        lambda: model_sweep(2, inject_fault=True),
        lambda: torsion_sweep(2, rs=(2,), inject_fault=True),
    ],
)
def test_fault_injection_is_detected(sweep):
    res = sweep()
    assert not res.ok
    assert res.failure_count > 0
    assert res.failures
