"""Acceptance gate: seven checks, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
go by; the gate is the slowest part of the suite (37 s on a quiet two-core
machine) because several checks are exhaustive sweeps.  Checks 3 and 4 share one
enumeration of decorated models, split into tiers: every stabilizer
assignment from {1,2,3,4} up to 4 edges, and at 5 edges the even/odd
parity classes exhaustively plus a verified parity collapse for every
literal assignment and a seeded random sample of full checks.
"""

import random
import time
from itertools import product

import pytest

from oracles import in_laplacian_image
from weilgraph import (
    Divisor,
    TwistedCurveModel,
    bouquet_graph,
    connected_multigraphs,
    critical_group,
    cycle_graph,
    dhar_reduce,
    model_sweep,
    pairing_equivalence_sweep,
    perfect_pairing_sweep,
    spanning_tree_count,
    theta_graph,
    torsion_sweep,
    verify_torsion_on_subdivision,
)

ORDER_CHOICES = (1, 2, 3, 4)


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {state}{suffix}")


def _model_battery(model, nonsep, c3_failures, c4_failures):
    """All per-instance checks for criteria 3 and 4."""
    order = model.two_torsion_order()
    form = model.weil_form()
    g = model.arithmetic_genus()
    exponent = 2 * g - model.graph_genus() + model.reduced_genus()
    all_even = all(model.edge_order[e] % 2 == 0 for e in nonsep)
    tag = (model.graph.edges, model.vertex_genus, model.edge_order)
    if order != 2 ** exponent:
        c3_failures.append(("order-formula",) + tag)
    if (order == 2 ** (2 * g)) != all_even:
        c3_failures.append(("full-size",) + tag)
    if order != 2 ** form.total_dim:
        c3_failures.append(("log2-vs-dimension",) + tag)
    if form.gram.is_invertible() != all_even:
        c4_failures.append(("invertibility",) + tag)
    if not form.is_alternating():
        c4_failures.append(("alternating",) + tag)
    h = form.h_dim
    if h and any(form.gram.entry(i, j) for i in range(h) for j in range(h)):
        c4_failures.append(("h-isotropy",) + tag)


@pytest.fixture(scope="module")
def model_checks():
    """One pass over the decorated-model population for checks 3 and 4."""
    c3, c4 = [], []
    literal = 0
    # tier 1: every order assignment from {1,2,3,4}, graphs up to 4 edges
    for graph in connected_multigraphs(4):
        m, n = graph.edge_count, graph.vertex_count
        nonsep = graph.non_separating_edges()
        for orders in product(ORDER_CHOICES, repeat=m):
            for gmask in range(1 << n):
                genera = tuple(gmask >> v & 1 for v in range(n))
                _model_battery(
                    TwistedCurveModel(graph, genera, orders), nonsep, c3, c4
                )
                literal += 1

    # tier 2a: 5-edge graphs, exhaustive over parity classes and genera
    parity = model_sweep(5)

    # tier 2b: every literal 5-edge order assignment collapses onto the
    # parity class tier 2a already checked
    graphs5 = [g for g in connected_multigraphs(5) if g.edge_count == 5]
    collapse = 0
    collapse_bad = 0
    for graph in graphs5:
        zeros = (0,) * graph.vertex_count
        for orders in product(ORDER_CHOICES, repeat=5):
            expected = frozenset(e for e in range(5) if orders[e] % 2 == 0)
            model = TwistedCurveModel(graph, zeros, orders)
            if model.even_edges() != expected:
                collapse_bad += 1
            collapse += 1

    # tier 2c: seeded random full checks over the literal 5-edge models
    rng = random.Random(20260817)
    sampled = 0
    for _ in range(20000):
        graph = graphs5[rng.randrange(len(graphs5))]
        orders = tuple(rng.choice(ORDER_CHOICES) for _ in range(5))
        genera = tuple(rng.randint(0, 1) for _ in range(graph.vertex_count))
        _model_battery(
            TwistedCurveModel(graph, genera, orders),
            graph.non_separating_edges(),
            c3,
            c4,
        )
        sampled += 1

    return {
        "c3": c3,
        "c4": c4,
        "parity": parity,
        "literal": literal,
        "collapse": collapse,
        "collapse_bad": collapse_bad,
        "sampled": sampled,
    }


def test_1_perfect_pairing_all_small_graphs():
    start = time.monotonic()
    res = perfect_pairing_sweep(6)
    elapsed = time.monotonic() - start
    ok = res.ok and res.instances == 3393
    _verdict(
        "1 perfect graph pairing",
        ok,
        f"{res.instances} graphs, {elapsed:.1f}s",
    )
    assert res.instances == 3393
    assert res.ok, res.failures


def test_2_cover_pairing_equivalence_and_lift_shape():
    start = time.monotonic()
    res = pairing_equivalence_sweep(6)
    elapsed = time.monotonic() - start
    ok = res.ok and res.instances >= 10**4 and elapsed < 60.0
    _verdict(
        "2 cover pairing equals algebraic pairing",
        ok,
        f"{res.instances} triples, {elapsed:.1f}s",
    )
    assert res.instances >= 10**4
    assert elapsed < 60.0
    assert res.ok, res.failures


def test_3_two_torsion_order(model_checks):
    mc = model_checks
    ok = (
        not mc["c3"]
        and mc["parity"].ok
        and mc["collapse_bad"] == 0
        and mc["literal"] == 384122
        and mc["collapse"] == 524288
    )
    _verdict(
        "3 two-torsion order",
        ok,
        f"{mc['literal']} literal + {mc['collapse']} collapse"
        f" + {mc['sampled']} sampled + {mc['parity'].instances} parity-class",
    )
    assert mc["literal"] == 384122
    assert mc["collapse"] == 524288 and mc["collapse_bad"] == 0
    assert mc["parity"].ok, mc["parity"].failures
    assert not mc["c3"], mc["c3"][:5]


def test_4_nondegeneracy_criterion(model_checks):
    mc = model_checks
    ok = not mc["c4"] and mc["parity"].ok
    _verdict("4 non-degeneracy criterion", ok, f"{mc['literal'] + mc['sampled']} models")
    assert mc["parity"].ok, mc["parity"].failures
    assert not mc["c4"], mc["c4"][:5]


def test_5_subdivision_torsion():
    start = time.monotonic()
    res = torsion_sweep(6, rs=(2, 3, 4, 5))
    elapsed = time.monotonic() - start
    # necessity: without subdividing, the 3-cycle has no 2-torsion
    undivided = critical_group(cycle_graph(3)).r_torsion(2)[0]
    divided = verify_torsion_on_subdivision(cycle_graph(3), 2).torsion_count
    ok = res.ok and undivided == 1 and divided == 2
    _verdict(
        "5 r-torsion on r-subdivisions",
        ok,
        f"{res.instances} instances, {elapsed:.1f}s",
    )
    assert undivided == 1 and divided == 2
    assert res.ok, res.failures


def test_6_chip_firing_against_independent_oracles():
    # part one: burning-based equivalence against the exact solver, every
    # degree-zero divisor pair with entries in [-2, 2], graphs up to 4
    # vertices (edge count capped at 5 to keep the family finite)
    pair_instances = 0
    mismatches = []
    for graph in connected_multigraphs(5):
        n = graph.vertex_count
        if n > 4:
            continue
        divisors = [
            coeffs
            for coeffs in product(range(-2, 3), repeat=n)
            if sum(coeffs) == 0
        ]
        reduced = {
            coeffs: dhar_reduce(graph, Divisor(graph, coeffs))
            for coeffs in divisors
        }
        oracle_cache = {}
        for i, d1 in enumerate(divisors):
            for d2 in divisors[i:]:
                pair_instances += 1
                diff = tuple(p - q for p, q in zip(d1, d2))
                if diff not in oracle_cache:
                    oracle_cache[diff] = in_laplacian_image(graph, diff)
                by_oracle = oracle_cache[diff]
                by_burning = reduced[d1] == reduced[d2]
                if by_burning != by_oracle:
                    mismatches.append((graph.edges, d1, d2))

    # part two: critical group order equals the spanning tree count
    kirchhoff_instances = 0
    kirchhoff_bad = []
    for graph in connected_multigraphs(7):
        kirchhoff_instances += 1
        if critical_group(graph).order() != spanning_tree_count(graph):
            kirchhoff_bad.append(graph.edges)

    ok = not mismatches and not kirchhoff_bad and kirchhoff_instances == 19022
    _verdict(
        "6 oracle agreement",
        ok,
        f"{pair_instances} divisor pairs, {kirchhoff_instances} tree counts",
    )
    assert kirchhoff_instances == 19022
    assert not mismatches, mismatches[:5]
    assert not kirchhoff_bad, kirchhoff_bad[:5]


def test_7_specific_values():
    theta = theta_graph()
    loop = bouquet_graph(1)
    checks = {
        "theta genus": theta.genus() == 2,
        "theta all-even order": TwistedCurveModel(
            theta, (0, 0), (2, 2, 2)
        ).two_torsion_order() == 16,
        "theta critical group": critical_group(theta).invariant_factors == (3,),
        "theta 2-subdivision torsion": verify_torsion_on_subdivision(
            theta, 2
        ).torsion_count == 4,
        "loop 2-subdivision torsion": verify_torsion_on_subdivision(
            loop, 2
        ).torsion_count == 2,
    }
    ok = all(checks.values())
    _verdict("7 specific values", ok, ", ".join(k for k, v in checks.items() if not v) or "all exact")
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}
