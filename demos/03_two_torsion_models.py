"""Two-torsion of decorated dual graphs and the Weil form.

A model is a multigraph with a geometric genus attached to every vertex
and a stabilizer order attached to every edge.  That data pins down the
size of the 2-torsion of the Picard group and a GF(2) Gram matrix for
the Weil pairing on it.  The punchline: the form is non-degenerate
exactly when every NON-SEPARATING edge has even order; odd orders on
bridges are harmless.
"""

from weilgraph import TwistedCurveModel, TwoTorsionClass, dumbbell_graph, theta_graph


def describe(label: str, model: TwistedCurveModel) -> None:
    form = model.weil_form()
    print(f"{label}:")
    print("  arithmetic genus:", model.arithmetic_genus())
    print("  two-torsion order:", model.two_torsion_order(),
          f"(2^{2 * model.arithmetic_genus()} would be full size)")
    print("  form dimension:", form.total_dim,
          f"= {form.h_dim} (h) + {form.component_dim} (components) + {form.q_dim} (q)")
    print("  gram matrix:")
    for row in form.gram.tolist():
        print("    ", "".join(map(str, row)))
    print("  alternating:", form.is_alternating())
    print("  non-degenerate:", model.is_nondegenerate())
    print()


def main() -> None:
    theta = theta_graph()

    # all three edges even: full-size torsion, perfect form
    describe("theta, stabilizers (2,2,2)", TwistedCurveModel(theta, (0, 0), (2, 2, 2)))

    # one odd edge on a cycle: the torsion halves and the form degenerates
    describe("theta, stabilizers (2,3,2)", TwistedCurveModel(theta, (0, 0), (2, 3, 2)))

    # odd order on a bridge: bridges lie on no cycle, nothing is lost
    describe(
        "dumbbell, odd bridge (2,1,2)",
        TwistedCurveModel(dumbbell_graph(), (0, 0), (2, 1, 2)),
    )

    # positive vertex genus contributes standard symplectic blocks
    describe("theta, vertex genera (1,0)", TwistedCurveModel(theta, (1, 0), (2, 2, 2)))

    # evaluating the form on explicit classes, blocks ordered (h | comp | q)
    model = TwistedCurveModel(theta, (0, 0), (2, 2, 2))
    form = model.weil_form()
    h1 = TwoTorsionClass((0, 1), (), (0, 0))
    q0 = TwoTorsionClass((0, 0), (), (1, 0))
    q1 = TwoTorsionClass((0, 0), (), (0, 1))
    print("pair(h1, q0) =", form.pair(h1, q0))
    print("pair(h1, q1) =", form.pair(h1, q1))
    print("pair(q0, q1) =", form.pair(q0, q1))


if __name__ == "__main__":
    main()
