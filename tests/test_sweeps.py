"""The exhaustive sweeps and the enumerator that feeds them."""

import gc
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from weilgraph import (
    Chain1,
    Cochain1,
    Divisor,
    GF2Matrix,
    MultiGraph,
    SweepResult,
    TwistedCurveModel,
    all_cochains,
    all_simple_cycles,
    bouquet_graph,
    build_double_cover,
    connected_multigraphs,
    is_simple_cycle,
    lift_cycle,
    model_sweep,
    pairing_equivalence_sweep,
    perfect_pairing_sweep,
    theta_graph,
    torsion_sweep,
    verify_torsion_on_subdivision,
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
    # order and content: the cochain at index mask has the support of mask
    for m in range(7):
        g = bouquet_graph(m)
        chains = list(all_cochains(g))
        assert len(chains) == 2**m
        for mask, gamma in enumerate(chains):
            assert gamma.graph is g
            assert gamma.edges == {e for e in range(m) if mask >> e & 1}


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
    # a cochain goes in as its bit row: bit e set when e is in its support
    assert _is_coboundary(basis, 0)
    assert _is_coboundary(basis, 0b111)
    assert not _is_coboundary(basis, 0b011)
    assert not _is_coboundary(basis, 0b001)


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
            bits = sum(1 << e for e in gamma.edges)
            assert _is_coboundary(basis, bits) == (incidence.solve(target) is not None)
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


def test_perfect_pairing_sweep_catches_a_wrong_gram(monkeypatch):
    # the identity Gram with its first entry flipped, on every graph of
    # positive genus
    def flipped(graph):
        rows = GF2Matrix.identity(graph.genus()).tolist()
        if rows:
            rows[0][0] ^= 1
        return GF2Matrix(rows, cols=graph.genus())

    monkeypatch.setattr(sweeps, "pairing_gram", flipped)
    res = perfect_pairing_sweep(3)
    assert res.failure_count == sum(g.genus() > 0 for g in connected_multigraphs(3)) > 0
    assert {f["kind"] for f in res.failures} == {"gram"}


def test_pairing_equivalence_sweep_small():
    res = pairing_equivalence_sweep(3)
    assert res.ok
    assert res.instances > 0


def test_pairing_equivalence_sweep_catches_a_wrong_connectivity(monkeypatch):
    # every cochain of every graph, each recorded once under its one kind
    is_coboundary = sweeps._is_coboundary
    monkeypatch.setattr(
        sweeps, "_is_coboundary", lambda basis, bits: not is_coboundary(basis, bits)
    )
    res = pairing_equivalence_sweep(3)
    assert res.failure_count == sum(2**g.edge_count for g in connected_multigraphs(3)) > 0
    assert {f["kind"] for f in res.failures} == {"connectivity"}


def _theta_lift():
    # theta's 2-cycle {0, 1} through the cover of gamma = {1}: one 4-cycle
    graph = theta_graph()
    gamma = Cochain1(graph, frozenset({1}))
    alpha = Chain1(graph, frozenset({0, 1}))
    return lift_cycle(build_double_cover(gamma), alpha)


# one wrong value each, as keyword arguments for the check
WRONG_PAIRING_VALUES = {
    # the cover bit disagrees with the algebraic one; the lift is untouched
    "pairing": lambda components: {"cover_bit": 0},
    # the one component of the lift, one edge short
    "lift-shape": lambda components: {"components": (sorted(components[0])[1:],)},
}


@pytest.mark.parametrize("kind", WRONG_PAIRING_VALUES)
def test_pairing_check_fires_on_its_kind_alone(kind):
    components = _theta_lift()
    assert [len(c) for c in components] == [4]
    args = {"cover_bit": 1, "algebraic_bit": 1, "components": components, "length": 2}
    assert sweeps._pairing_problems(**args) == []
    args.update(WRONG_PAIRING_VALUES[kind](components))
    assert sweeps._pairing_problems(**args) == [kind]


def test_model_sweep_small():
    # models plus the h x q cover checks of each graph's all-even model
    for k, instances in enumerate((15, 142, 1738, 25230), start=1):
        res = model_sweep(k)
        assert res.ok, res.failures
        assert res.instances == instances
    faulted = model_sweep(3, inject_fault=True)
    assert faulted.instances == 1738
    assert faulted.failure_count == 1
    assert [f["kind"] for f in faulted.failures] == ["invertibility-criterion,alternating"]


def _with_entries(form, *entries):
    rows = form.gram.tolist()
    for i, j in entries:
        rows[i][j] ^= 1
    return replace(form, gram=GF2Matrix(rows))


# one wrong value each, as keyword arguments for the check, with the one
# kind it must fail
WRONG_MODEL_VALUES = [
    # the form's dimension, one too large: the Gram is untouched
    pytest.param(
        "order-vs-dimension",
        lambda genus, form: {"form": replace(form, q_dim=form.q_dim + 1)},
        id="order-vs-dimension",
    ),
    # a smaller genus than that of the model whose order and form are given
    pytest.param(
        "full-size-criterion",
        lambda genus, form: {"arithmetic_genus": genus - 1},
        id="full-size-criterion",
    ),
    # the zero Gram is alternating and isotropic, and singular
    pytest.param(
        "invertibility-criterion",
        lambda genus, form: {"form": replace(form, gram=GF2Matrix([[0] * 6] * 6))},
        id="invertibility-criterion",
    ),
    # a diagonal entry in the component block keeps the Gram invertible
    pytest.param(
        "alternating",
        lambda genus, form: {"form": _with_entries(form, (2, 2))},
        id="alternating",
    ),
    # one q x q entry without its mirror: the diagonal stays zero
    pytest.param(
        "alternating",
        lambda genus, form: {"form": _with_entries(form, (4, 5))},
        id="alternating-asymmetric",
    ),
    # an h class pairing with a component class, symmetrically
    pytest.param(
        "h-isotropy",
        lambda genus, form: {"form": _with_entries(form, (0, 2), (2, 0))},
        id="h-isotropy",
    ),
]


@pytest.mark.parametrize("kind, wrong", WRONG_MODEL_VALUES)
def test_model_check_fires_on_its_kind_alone(kind, wrong):
    model = TwistedCurveModel(theta_graph(), (1, 0), (2, 2, 2))
    genus, form, order = model.arithmetic_genus(), model.weil_form(), model.two_torsion_order()
    assert (form.h_dim, form.component_dim, form.q_dim) == (2, 2, 2)
    args = {"arithmetic_genus": genus, "form": form, "order": order, "full_size": True}
    assert sweeps._model_problems(**args) == []
    args.update(wrong(genus, form))
    assert sweeps._model_problems(**args) == [kind]


def test_model_sweep_catches_a_wrong_cover_pairing(monkeypatch):
    # every lift with its components merged into one, or its one
    # component split in two
    lift = sweeps._lift_cycle

    def wrong_lift(cover, lifted):
        components = lift(cover, lifted)
        if len(components) == 2:
            return [components[0] + components[1]]
        half = len(components[0]) // 2
        return [components[0][:half], components[0][half:]]

    monkeypatch.setattr(sweeps, "_lift_cycle", wrong_lift)
    res = model_sweep(3)
    # every h x q entry of every all-even genus-free model: genus squared
    assert res.failure_count == sum(g.genus() ** 2 for g in connected_multigraphs(3)) > 0
    assert {f["kind"] for f in res.failures} == {"cover-consistency"}


def test_model_sweep_checks_what_the_validated_model_computes(monkeypatch):
    # the sweep's hoisted genus and order and its Gram, model by model in
    # enumeration order, against the public, validating constructor and
    # methods
    seen = []
    check = sweeps._model_problems

    def capture(arithmetic_genus, form, order, full_size):
        seen.append((arithmetic_genus, form, order, full_size))
        return check(arithmetic_genus, form, order, full_size)

    monkeypatch.setattr(sweeps, "_model_problems", capture)
    assert model_sweep(3).ok
    expected = []
    for g in connected_multigraphs(3):
        m, n = g.edge_count, g.vertex_count
        for parity_mask in range(1 << m):
            orders = tuple(2 if parity_mask >> e & 1 else 1 for e in range(m))
            for genera_mask in range(1 << n):
                genera = tuple(genera_mask >> v & 1 for v in range(n))
                model = TwistedCurveModel(g, genera, orders)
                expected.append(
                    (
                        model.arithmetic_genus(),
                        model.weil_form(),
                        model.two_torsion_order(),
                        model.is_nondegenerate(),
                    )
                )
    assert len(expected) == sum(
        2 ** (g.edge_count + g.vertex_count) for g in connected_multigraphs(3)
    )
    assert seen == expected


def test_torsion_sweep_small():
    res = torsion_sweep(3, rs=(2,))
    assert res.ok
    assert res.instances > 0


def _plus(divisor, *chips):
    # the divisor with ``chips`` added, vertex by vertex from vertex 0
    chips += (0,) * (len(divisor.coefficients) - len(chips))
    return Divisor(divisor.graph, tuple(a + b for a, b in zip(divisor.coefficients, chips)))


# one wrong value each, as fields of theta's report at r = 2 to replace
WRONG_TORSION_VALUES = {
    # one class too many
    "count": lambda report: {"torsion_count": report.torsion_count + 1},
    # r chips added at vertex 0 of the first generator
    "generator-degree": lambda report: {
        "generators": (_plus(report.generators[0], 2), *report.generators[1:])
    },
    # a chip moved from vertex 0 to vertex 1 of the first generator: twice
    # that move is no principal divisor
    "generator-order": lambda report: {
        "generators": (_plus(report.generators[0], -1, 1), *report.generators[1:])
    },
}


@pytest.mark.parametrize("kind", WRONG_TORSION_VALUES)
def test_torsion_check_fires_on_its_kind_alone(kind):
    report = verify_torsion_on_subdivision(theta_graph(), 2, "all")
    assert (report.invariant_factors, report.torsion_count) == ((2, 6), 4)
    assert sweeps._torsion_problems(report, 2) == []
    wrong = replace(report, **WRONG_TORSION_VALUES[kind](report))
    assert sweeps._torsion_problems(wrong, 2) == [kind]


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
