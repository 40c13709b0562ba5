"""Double covers of a graph and the sheet-swap route to the pairing.

A GF(2) edge function gamma classifies a 2-sheeted cover: walking an
edge with gamma = 1 switches sheets.  Lifting a simple cycle of length l
upstairs yields either one cycle of length 2l or two disjoint copies of
length l, and which one happens IS the pairing bit.  This script builds
covers, lifts cycles, and checks the bit against the algebraic pairing.
"""

from weilgraph import (
    Chain1,
    Cochain1,
    build_double_cover,
    cover_to_dot,
    graph_pairing,
    lift_cycle,
    pairing_via_cover,
    theta_graph,
)


def main() -> None:
    graph = theta_graph()
    print("base graph edges:", graph.edges)
    print()

    # gamma = 0 everywhere: the cover is two disjoint copies of the base
    trivial = build_double_cover(Cochain1(graph, frozenset()))
    print("trivial cover connected:", trivial.is_connected())

    # gamma supported on edge 1: crossing that edge switches sheets
    gamma = Cochain1(graph, frozenset({1}))
    cover = build_double_cover(gamma)
    print("twisted cover connected:", cover.is_connected())
    print("total graph edges:", cover.total.edges)
    print()

    # cycle {0,1} hits gamma once: upstairs it stays one long cycle
    alpha = Chain1(graph, frozenset({0, 1}))
    components = lift_cycle(cover, alpha)
    print(f"lift of cycle {sorted(alpha.edges)}: {len(components)} component(s),",
          [sorted(c) for c in components])

    # cycle {0,2} misses gamma: upstairs it splits into two copies
    beta = Chain1(graph, frozenset({0, 2}))
    components = lift_cycle(cover, beta)
    print(f"lift of cycle {sorted(beta.edges)}: {len(components)} component(s),",
          [sorted(c) for c in components])
    print()

    # the shape of the lift recovers the pairing: one component means 1
    for cycle in (alpha, beta):
        via_cover = pairing_via_cover(gamma, cycle)
        via_algebra = graph_pairing(gamma, cycle)
        print(
            f"cycle {sorted(cycle.edges)}: pairing via cover {via_cover},"
            f" via intersection {via_algebra}"
        )
    print()

    print("DOT rendering of the twisted cover (dashed = sheet-crossing):")
    print(cover_to_dot(cover))


if __name__ == "__main__":
    main()
