"""Cycles, cocycles and the evaluation pairing on a multigraph.

Run as a script: prints a walkthrough on the theta graph (two vertices
joined by three parallel edges) and a couple of friends.
"""

from weilgraph import (
    Chain1,
    Cochain0,
    Cochain1,
    MultiGraph,
    graph_pairing,
    homology_basis,
    is_perfect_pairing,
    theta_graph,
)


def main() -> None:
    graph = theta_graph()
    print("theta graph:", graph.vertex_count, "vertices, edges", graph.edges)
    print("genus (independent cycles):", graph.genus())
    print()

    # the canonical bases come from a spanning forest: forest edge set,
    # one fundamental cycle per non-forest edge, one cut per non-forest edge
    basis = homology_basis(graph)
    print("spanning forest edges:", sorted(basis.forest))
    for i, cycle in enumerate(basis.cycles):
        print(f"  cycle c{i}: edges {sorted(cycle.edges)}")
    for i, cut in enumerate(basis.cocycles):
        print(f"  cocycle z{i}: edges {sorted(cut.edges)}")
    print()

    # the pairing of a cochain with a cycle is the parity of the edges
    # they share; on the canonical bases the Gram matrix is the identity
    perfect, gram = is_perfect_pairing(graph)
    print("gram matrix of the canonical bases:")
    for row in gram.tolist():
        print("  ", "".join(map(str, row)))
    print("pairing is perfect:", perfect)
    print()

    # coboundaries pair to zero with every cycle: the pairing really
    # lives on cohomology classes, not on raw edge functions
    f = Cochain0(graph, frozenset({0}))
    delta = f.coboundary()
    print("coboundary of the vertex function {0}:", sorted(delta.edges))
    for cycle in basis.cycles:
        print(
            f"  <delta f, cycle {sorted(cycle.edges)}> =",
            graph_pairing(delta, cycle),
        )
    print()

    # a graph with a loop and a bridge: loops are cycles of length one,
    # bridges never appear in any cycle
    dumbbell = MultiGraph(2, ((0, 0), (0, 1), (1, 1)))
    basis = homology_basis(dumbbell)
    print("dumbbell cycles:", [sorted(c.edges) for c in basis.cycles])
    gamma = Cochain1(dumbbell, frozenset({0, 1}))
    alpha = Chain1(dumbbell, frozenset({0}))
    print(
        "pairing of the cochain {0,1} with the loop cycle {0}:",
        graph_pairing(gamma, alpha),
    )


if __name__ == "__main__":
    main()
