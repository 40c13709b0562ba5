"""Exact linear algebra: GF(2) matrices and integer Smith forms.

The Smith form property sweep cross-checks the divisor chain against the
gcd-of-minors characterization, computed here with an independent
recursive cofactor determinant so nothing is shared with the Bareiss code
under test.
"""

import random
from itertools import combinations, product
from math import gcd, prod

import pytest

from oracles import check_smith_form, matmul
from weilgraph import GF2Matrix, IntMatrix, reduced_laplacian, smith_normal_form, theta_graph


# -- GF(2) -------------------------------------------------------------------


def test_gf2_construction_reduces_mod_2():
    m = GF2Matrix([[2, 3], [4, 5]])
    assert m == GF2Matrix([[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        GF2Matrix([1, 0, 1])


def test_gf2_identity_and_zeros():
    assert GF2Matrix.identity(3).rank() == 3
    assert GF2Matrix.identity(0).is_invertible()


def test_gf2_mul_vec():
    a = GF2Matrix([[1, 1, 0], [0, 1, 1]])
    assert list(a.mul_vec([1, 1, 1])) == [0, 0]
    assert list(a.mul_vec([1, 0, 1])) == [1, 1]
    with pytest.raises(ValueError):
        a.mul_vec([1, 0])


def test_gf2_rank_and_inverse_flags():
    assert GF2Matrix([[1, 1], [1, 1]]).rank() == 1
    assert not GF2Matrix([[1, 1], [1, 1]]).is_invertible()
    assert GF2Matrix([[0, 1], [1, 0]]).is_invertible()
    assert not GF2Matrix([[1, 0, 0], [0, 1, 0]]).is_invertible()


def test_gf2_solve_frozen():
    a = GF2Matrix([[1, 1], [0, 1]])
    assert list(a.solve([0, 1])) == [1, 1]
    assert GF2Matrix([[1, 1], [1, 1]]).solve([0, 1]) is None


def test_gf2_solve_rejects_non_integers():
    # the right-hand side is packed as mul_vec packs its vector, so a float
    # raises instead of truncating to a bit
    a = GF2Matrix.identity(2)
    assert a.solve([1, 0]) == (1, 0)
    for vec in ([1.5, 0], [0, 2.0]):
        with pytest.raises(TypeError):
            a.solve(vec)
        with pytest.raises(TypeError):
            a.mul_vec(vec)


def test_gf2_symmetry_flags():
    assert GF2Matrix([[0, 1], [1, 0]]).is_symmetric()
    assert GF2Matrix([[0, 1], [1, 0]]).has_zero_diagonal()
    assert not GF2Matrix([[1, 1], [1, 0]]).has_zero_diagonal()
    assert not GF2Matrix([[0, 1], [0, 0]]).is_symmetric()


def test_gf2_entries_and_empty_shapes():
    a = GF2Matrix([[1, 0, 1], [0, 1, 1]])
    assert a.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert [a.entry(0, j) for j in range(3)] == [1, 0, 1]
    with pytest.raises(IndexError):
        a.entry(0, 3)
    assert a.transpose().tolist() == [[1, 0], [0, 1], [1, 1]]
    wide = GF2Matrix([], cols=3)
    assert (wide.rows, wide.cols) == (0, 3)
    assert (wide.transpose().rows, wide.transpose().cols) == (3, 0)
    assert GF2Matrix([[], []]).solve([1, 0]) is None
    with pytest.raises(ValueError):
        GF2Matrix([[1, 0], [1]])
    with pytest.raises(ValueError):
        GF2Matrix([[0, 0]], cols=3)
    assert GF2Matrix([], cols=2) != GF2Matrix([], cols=3)
    with pytest.raises(ValueError):
        GF2Matrix([], cols=-2)


def test_gf2_kernel_and_solve_against_enumeration():
    rng = random.Random(11)
    for _ in range(120):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 5)
        a = GF2Matrix(
            [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        assert (a.rows, a.cols) == (rows, cols)
        vectors = list(product((0, 1), repeat=cols))
        kernel = {tuple(v) for v in vectors if not any(a.mul_vec(v))}
        assert len(kernel) == 2 ** (cols - a.rank())
        b = [rng.randint(0, 1) for _ in range(rows)]
        x = a.solve(b)
        solvable = any(list(a.mul_vec(v)) == list(b) for v in vectors)
        assert (x is not None) == solvable
        if x is not None:
            assert list(a.mul_vec(x)) == list(b)


def _list_rank(rows, cols):
    """Rank by Gaussian elimination on nested 0/1 lists."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(cols):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_gf2_bit_kernels_against_nested_lists():
    rng = random.Random(5)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (7, 7)]
    shapes += [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(400)]
    for rows, cols in shapes:
        density = rng.choice((0.1, 0.5, 0.9))
        entries = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
        if rows == cols and rng.random() < 0.5:
            # mirror the upper triangle, so symmetric matrices come up too
            entries = [[entries[min(i, j)][max(i, j)] for j in range(cols)] for i in range(rows)]
        a = GF2Matrix(entries, cols=cols)
        listed = a.tolist()
        assert listed == entries
        assert a.rank() == _list_rank(listed, cols)
        t = a.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t.tolist() == [[listed[i][j] for i in range(rows)] for j in range(cols)]
        assert t.transpose() == a
        symmetric = rows == cols and all(
            listed[i][j] == listed[j][i] for i in range(rows) for j in range(cols)
        )
        assert a.is_symmetric() == symmetric
        r0, r1 = sorted(rng.randint(0, rows) for _ in range(2))
        c0, c1 = sorted(rng.randint(0, cols) for _ in range(2))
        assert a.block_is_zero(range(r0, r1), range(c0, c1)) == (
            not any(listed[i][j] for i in range(r0, r1) for j in range(c0, c1))
        )
        v = [rng.randint(0, 1) for _ in range(cols)]
        assert list(a.mul_vec(v)) == [sum(r[k] * v[k] for k in range(cols)) % 2 for r in listed]
    with pytest.raises(IndexError):
        GF2Matrix.identity(2).block_is_zero(range(3), range(2))
    with pytest.raises(IndexError):
        GF2Matrix.identity(2).block_is_zero(range(0, 2, 2), range(2))


# -- integers ----------------------------------------------------------------


def _cofactor_det(rows):
    # recursive cofactor expansion, used as an oracle against Bareiss
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _cofactor_det(minor)
    return total


def test_intmatrix_shapes():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.entries == ((1, 2), (3, 4)) and (a.rows, a.cols) == (2, 2)
    empty = IntMatrix((), cols=3)
    assert (empty.rows, empty.cols) == (0, 3)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix((), cols=-3)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], cols=-2)


def test_det_frozen_values():
    assert IntMatrix([[1, 2], [3, 4]]).det() == -2
    assert IntMatrix([[2, 4], [6, 8]]).det() == -8
    assert IntMatrix([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0
    assert IntMatrix((), cols=0).det() == 1
    with pytest.raises(ValueError):
        IntMatrix([[1, 2, 3]]).det()


def test_det_against_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert IntMatrix(rows).det() == _cofactor_det(rows)


def test_smith_frozen_values():
    assert smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal == (2, 4)
    assert smith_normal_form(IntMatrix([[1, 2], [3, 4]])).diagonal == (1, 2)
    assert smith_normal_form(IntMatrix([[0, 0], [0, 0]])).diagonal == (0, 0)
    assert smith_normal_form(IntMatrix([[6]])).diagonal == (6,)
    assert smith_normal_form(IntMatrix([[-5]])).diagonal == (5,)
    assert smith_normal_form(IntMatrix([[2, 0, 0], [0, 3, 0]])).diagonal == (1, 6)
    # reduced Laplacian of the triangle
    assert smith_normal_form(IntMatrix([[2, -1], [-1, 2]])).diagonal == (1, 3)
    # reduced Laplacian of the complete graph on four vertices
    k4 = IntMatrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    assert smith_normal_form(k4).diagonal == (1, 4, 4)


def test_smith_transforms_verify():
    cases = [
        IntMatrix([[2, 4], [6, 8]]),
        IntMatrix([[0, 0], [0, 0]]),
        IntMatrix([[1, 0], [0, 1]]),
        IntMatrix([[4, 6, 10], [6, 12, 18]]),
        IntMatrix((), cols=0),
    ]
    for mat in cases:
        check_smith_form(smith_normal_form(mat))


def _scrambled_diagonal():
    # diag(2, 4, 12) as U·D·V with fixed unimodular U and V
    u = [[1, 1, 0], [2, 3, 2], [1, 4, 7]]
    v = [[6, 4, 1], [4, 3, 1], [3, 2, 1]]
    assert abs(IntMatrix(u).det()) == abs(IntMatrix(v).det()) == 1
    return IntMatrix(matmul(matmul(u, [[2, 0, 0], [0, 4, 0], [0, 0, 12]]), v))


def test_smith_divisor_pivots():
    # no unit entry anywhere: phase one pivots on entries that divide
    # their row and column, or leaves the matrix to phase two
    cases = [
        (IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), (2, 2, 2)),
        (_scrambled_diagonal(), (2, 4, 12)),
        (IntMatrix([[3, 6, 0, 9, -3], [0, 3, 12, 6, 3], [6, 0, -3, 3, 9]]), (3, 3, 9)),
        (IntMatrix([[0, 0, 0, 0], [0, 6, 4, 2], [0, -6, -4, -2]]), (2, 0, 0)),
    ]
    for mat, diagonal in cases:
        snf = smith_normal_form(mat)
        assert snf.diagonal == diagonal
        check_smith_form(snf)


def test_smith_transforms_pinned():
    # the witnesses entry for entry, not only the diagonal: any change to
    # the pivot order, the steps or the way they are read back shows
    k4 = IntMatrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    theta = reduced_laplacian(theta_graph().subdivide(3))
    cases = [
        (
            k4,
            (1, 4, 4),
            ((-1, 0, 0), (-3, -1, 0), (2, 1, 1)),
            ((0, 0, 1), (1, -1, 1), (0, 1, 2)),
            ((-1, 0, 0), (3, -1, 0), (-1, 1, 1)),
        ),
        (
            theta,
            (1, 1, 1, 1, 1, 3, 9),
            (
                (0, -1, 0, 0, 0, 0, 0),
                (0, 0, 0, -1, 0, 0, 0),
                (0, 0, 0, 0, 0, -1, 0),
                (0, -2, -1, 0, 0, 0, 0),
                (1, 1, 1, 1, 1, 1, 1),
                (3, 1, 2, 3, 3, 5, 4),
                (3, 1, 2, 1, 2, 7, 5),
            ),
            (
                (0, 0, 0, 1, 3, -3, 3),
                (0, 0, 0, 0, 1, -1, 1),
                (1, 0, 0, 0, 2, -2, 2),
                (0, 0, 0, 0, 0, 1, -2),
                (0, 1, 0, 0, 0, 2, -4),
                (0, 0, 0, 0, 0, 0, 1),
                (0, 0, 1, 0, 0, 0, 2),
            ),
            (
                (-1, -1, -1, 3, 7, -3, 1),
                (-1, 0, 0, 0, 0, 0, 0),
                (2, 0, 0, -1, 0, 0, 0),
                (0, -1, 0, 0, 0, 0, 0),
                (0, 2, 0, -1, -3, 2, -1),
                (0, 0, -1, 0, 0, 0, 0),
                (0, 0, 2, -1, -3, 1, 0),
            ),
        ),
        (
            _scrambled_diagonal(),
            (2, 4, 12),
            ((-63, 35, -10), (-88, 49, -14), (-155, 87, -25)),
            ((0, 0, -1), (-1, 1, 2), (1, 0, -2)),
            ((-7, 5, 0), (-30, 25, -2), (-61, 56, -7)),
        ),
    ]
    for mat, diagonal, left, right, left_inverse in cases:
        snf = smith_normal_form(mat)
        assert snf.diagonal == diagonal
        assert check_smith_form(snf) == (left, right, left_inverse)


def test_smith_random_property_sweep():
    rng = random.Random(23)
    for _ in range(250):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        snf = smith_normal_form(IntMatrix(rows))
        check_smith_form(snf)
        # gcd of k-by-k minors equals the product of the first k diagonals
        for k in range(1, min(r, c) + 1):
            minors = [
                abs(_cofactor_det([[rows[i][j] for j in js] for i in iis]))
                for iis in combinations(range(r), k)
                for js in combinations(range(c), k)
            ]
            g = 0
            for m in minors:
                g = gcd(g, m)
            assert prod(snf.diagonal[:k]) == g


def test_smith_records_shears_as_shears():
    # a unit triangular 2 x 2 step is a shear and is kept as (i, j, c): on
    # the rows as taken, on the columns transposed
    rng = random.Random(41)
    mats = [reduced_laplacian(theta_graph().subdivide(3))]
    mats += [
        IntMatrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]) for _ in range(100)
    ]
    shears = 0
    for mat in mats:
        snf = smith_normal_form(mat)
        for steps, _ in (snf._row_record, snf._col_record):
            for step in steps:
                if len(step) == 6:
                    _, _, x, y, z, w = step
                    assert not (x == w == 1 and 0 in (y, z)), step
                shears += len(step) == 3
    assert shears


def test_smith_applies_its_steps_to_vectors():
    # left @ matrix @ right == diag, and left_inverse's columns, read on
    # vectors through the recorded steps alone
    rng = random.Random(29)
    for _ in range(300):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        snf = smith_normal_form(IntMatrix(rows, cols=c))
        y = [rng.randint(-50, 50) for _ in range(c)]
        x = snf.right_times(y)
        image = snf.left_times([sum(a * b for a, b in zip(row, x)) for row in rows])
        assert image == [d * t for d, t in zip(snf.diagonal, y)] + [0] * (r - len(snf.diagonal))
        # columns of left's inverse, undone from the row steps: left maps
        # column k back to unit vector k
        positions = rng.sample(range(r), rng.randint(0, r))
        columns = snf.left_inverse_columns(positions)
        assert snf.left_inverse_columns([]) == []
        for k, column in zip(positions, columns):
            assert snf.left_times(column) == [int(i == k) for i in range(r)]
        # a few columns undone in one pass are those of the whole inverse
        left_inverse = check_smith_form(snf)[2]
        assert columns == [tuple(row[k] for row in left_inverse) for k in positions]
        for outside in (-1, r):
            with pytest.raises(IndexError):
                snf.left_inverse_columns([outside])
        with pytest.raises(ValueError):
            snf.left_times([0] * (r + 1))
        with pytest.raises(ValueError):
            snf.right_times([0] * (c + 1))


def test_smith_against_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(41)
    for _ in range(300):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        bound = rng.choice((1, 3, 9, 40))
        density = rng.random()
        rows = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(c)]
            for _ in range(r)
        ]
        snf = smith_normal_form(IntMatrix(rows))
        oracle = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        assert snf.diagonal == tuple(abs(int(oracle[i, i])) for i in range(min(r, c)))
        check_smith_form(snf)
