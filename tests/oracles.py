"""Oracles the tests share, each written once: a random connected
multigraph, an exact rational solver for the Laplacian, and a Smith form
checker that builds the dense transforms from the form's step records.

The solvers call no package code but ``laplacian``: no Smith form and no
burning (``test_package.test_routes_stay_independent`` enforces it).
"""

from fractions import Fraction
from operator import mul

from weilgraph import IntMatrix, MultiGraph, laplacian


def random_connected(rng, max_vertices, max_extra, min_vertices=1):
    """A connected multigraph on ``min_vertices`` to ``max_vertices``
    vertices with up to ``max_extra`` edges past a tree's; loops and
    parallel edges fall as they are drawn, and disconnected draws are
    thrown away."""
    while True:
        n = rng.randint(min_vertices, max_vertices)
        m = rng.randint(0, max_extra) + n - 1
        edges = tuple(
            tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(m)
        )
        g = MultiGraph(n, edges)
        if g.is_connected():
            return g


def rational_solution(graph, base, d):
    """The solution ``x`` of ``L x = d`` with ``x[base] == 0`` on the rows
    off the base, ``L`` the Laplacian of the connected ``graph``: the
    reduced system (the base row and column deleted) solved over the
    rationals by elimination and back substitution."""
    lap = laplacian(graph).entries
    keep = [v for v in range(graph.vertex_count) if v != base]
    a = [[Fraction(lap[v][w]) for w in keep] + [Fraction(d[v])] for v in keep]
    k = len(keep)
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, k):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, k + 1):
                    a[r][c] -= f * a[col][c]
    x = [Fraction(0)] * graph.vertex_count
    for r in range(k - 1, -1, -1):
        s = a[r][k] - sum(a[r][c] * x[keep[c]] for c in range(r + 1, k))
        x[keep[r]] = s / a[r][r]
    return x


def in_laplacian_image(graph, d, base=0):
    """Whether ``d`` is ``L x`` for an integer vector ``x``: ``d`` has
    degree zero and the reduced system's rational solution is integral.
    The reduced system drops the base row, so it cannot see the degree."""
    return sum(d) == 0 and all(x.denominator == 1 for x in rational_solution(graph, base, d))


def matmul(a, b):
    """The product of two matrices given as sequences of rows."""
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def check_smith_form(snf):
    """Assert that ``snf`` is a Smith form of its matrix, and return its
    dense ``(left, right, left_inverse)`` as tuples of rows.

    The transforms are built from the form's step readers alone: column
    ``k`` of ``left`` and ``right`` is ``left_times`` and ``right_times`` of
    unit vector ``k``, and ``left_inverse`` is ``left_inverse_columns`` at
    every position.  Then ``left @ matrix @ right`` is the diagonal,
    ``left @ left_inverse`` is the identity, both transforms have
    determinant 1 or -1, and the diagonal is non-negative, each entry
    dividing the next, zeros last.
    """
    rows, cols = snf.matrix.rows, snf.matrix.cols

    def dense(times, n):
        return tuple(zip(*(times([int(i == k) for i in range(n)]) for k in range(n))))

    left, right = dense(snf.left_times, rows), dense(snf.right_times, cols)
    left_inverse = tuple(zip(*snf.left_inverse_columns(range(rows))))
    d = snf.diagonal
    diag = [[d[i] if i == j < len(d) else 0 for j in range(cols)] for i in range(rows)]
    assert matmul(matmul(left, snf.matrix.entries), right) == diag, "left @ matrix @ right"
    identity = [[int(i == j) for j in range(rows)] for i in range(rows)]
    assert matmul(left, left_inverse) == identity, "left @ left_inverse"
    assert abs(IntMatrix(left).det()) == 1 == abs(IntMatrix(right).det()), "unimodular"
    assert all(x >= 0 for x in d), d
    for a, b in zip(d, d[1:]):
        assert (b == 0) if a == 0 else (b % a == 0), d
    return left, right, left_inverse
