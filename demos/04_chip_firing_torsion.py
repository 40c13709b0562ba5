"""Chip firing, critical groups, and r-torsion realized on subdivisions.

Degree-zero chip configurations on a graph, modulo firing moves, form a
finite group whose order is the number of spanning trees.  Subdividing
every edge into r parts makes room for r-torsion: the subdivided graph's
critical group contains exactly r^genus classes killed by r.  The same
count survives if only the non-separating edges are divided.
"""

from weilgraph import (
    Divisor,
    critical_group,
    cycle_graph,
    dhar_reduce,
    divisors_equivalent,
    spanning_tree_count,
    theta_graph,
    verify_torsion_on_subdivision,
)


def main() -> None:
    graph = theta_graph()
    print("theta graph, spanning trees:", spanning_tree_count(graph))
    group = critical_group(graph)
    print("critical group invariant factors:", group.invariant_factors)
    print("group order:", group.order())
    print()

    # reduction finds the canonical representative of a chip class
    d = Divisor(graph, (5, -5))
    reduced = dhar_reduce(graph, d, base=0)
    print("divisor (5, -5) reduces to:", reduced.coefficients)
    print("equivalent to zero:", divisors_equivalent(graph, d, Divisor.zero(graph)))
    gen = group.generators[0]
    print("order-3 generator:", gen.coefficients)
    print("3 * generator ~ 0:",
          divisors_equivalent(graph, gen.scale(3), Divisor.zero(graph)))
    print()

    # the 3-cycle has genus 1 but its critical group Z/3 has no 2-torsion;
    # subdividing each edge in two fixes that
    c3 = cycle_graph(3)
    print("3-cycle critical group:", critical_group(c3).invariant_factors)
    print("2-torsion before subdividing:", critical_group(c3).r_torsion(2)[0])
    report = verify_torsion_on_subdivision(c3, 2)
    print("after 2-subdivision:", report.invariant_factors,
          "-> 2-torsion", report.torsion_count, "expected", report.expected)
    print()

    # on the theta graph (genus 2) the count is r^2 for every r
    for r in (2, 3, 4, 5):
        report = verify_torsion_on_subdivision(graph, r)
        nonsep = verify_torsion_on_subdivision(graph, r, mode="nonsep")
        print(
            f"theta, r = {r}: torsion {report.torsion_count}"
            f" (expected {report.expected}),"
            f" nonsep-only mode agrees: {nonsep.torsion_count == report.torsion_count}"
        )
        for gen in report.generators:
            child = report.subdivision
            assert gen.degree() == 0
            assert divisors_equivalent(child, gen.scale(r), Divisor.zero(child))
    print("every torsion generator has degree 0 and r * generator ~ 0")


if __name__ == "__main__":
    main()
