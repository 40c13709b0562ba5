"""Exact linear algebra: GF(2) matrices and integer Smith normal form.

Two worlds live here.  ``GF2Matrix`` keeps each row as a Python int whose
bit ``j`` is column ``j``: elimination XORs whole rows, and rank, kernel
and solve follow deterministic conventions (free variables are set to
zero, kernel vectors follow ascending free columns).  ``IntMatrix`` and
``smith_normal_form`` work over native Python ints, because spanning-tree
counts overflow fixed-width integers quickly; the Smith form carries
unimodular transforms on both sides plus the inverse of the left one,
which the critical-group generator construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "GF2Matrix",
    "IntMatrix",
    "SmithForm",
    "smith_normal_form",
]


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------


def _pack(values: Iterable[int]) -> int:
    """The bit row of a sequence of integers: bit ``j`` is entry ``j`` mod 2."""
    return sum(1 << j for j, x in enumerate(values) if x & 1)


def _row_reduce(rows: list[int], cols: int) -> list[int]:
    """In-place reduced row echelon form of bit rows.  Returns pivot columns."""
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
    return pivots


class GF2Matrix:
    """Immutable dense matrix over GF(2), built from nested rows of integers
    reduced mod 2 (``cols`` sets the width when there are no rows).  Row
    ``i`` is kept as a private int whose bit ``j`` is entry ``(i, j)``."""

    __slots__ = ("_bits", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[int]], *, cols: int | None = None):
        try:
            rows = [tuple(row) for row in entries]
        except TypeError:
            raise ValueError("GF2Matrix needs nested rows") from None
        width = len(rows[0]) if rows else (cols or 0)
        if any(len(row) != width for row in rows) or cols not in (None, width):
            raise ValueError("ragged rows, or cols disagrees with the row width")
        self._bits = tuple(map(_pack, rows))
        self.rows, self.cols = len(rows), width

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"no entry ({i}, {j}) in a {self.rows}x{self.cols} matrix")
        return self._bits[i] >> j & 1

    def tolist(self) -> list[list[int]]:
        return [[row >> j & 1 for j in range(self.cols)] for row in self._bits]

    def __eq__(self, other) -> bool:
        same_type = isinstance(other, GF2Matrix)
        return same_type and (self._bits, self.cols) == (other._bits, other.cols)

    def __hash__(self):
        return hash((self._bits, self.cols))

    def __repr__(self) -> str:
        body = ";".join("".join(map(str, row)) for row in self.tolist())
        return f"GF2Matrix({self.rows}x{self.cols}:{body})"

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        columns = other.transpose()._bits
        prod = [[(row & col).bit_count() & 1 for col in columns] for row in self._bits]
        return GF2Matrix(prod, cols=other.cols)

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = _pack(vec)
        return tuple((row & v).bit_count() & 1 for row in self._bits)

    def transpose(self) -> "GF2Matrix":
        columns = [[row >> j & 1 for row in self._bits] for j in range(self.cols)]
        return GF2Matrix(columns, cols=self.rows)

    def rank(self) -> int:
        return len(_row_reduce(list(self._bits), self.cols))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of the right kernel, one vector per free column.

        Free columns are visited in ascending index order; each basis
        vector sets its free variable to one, all other free variables to
        zero, and back-substitutes the pivots.
        """
        reduced = list(self._bits)
        pivots = _row_reduce(reduced, self.cols)
        basis = []
        for f in sorted(set(range(self.cols)).difference(pivots)):
            vec = {p: row >> f & 1 for row, p in zip(reduced, pivots)}
            vec[f] = 1
            basis.append(tuple(vec.get(j, 0) for j in range(self.cols)))
        return tuple(basis)

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One solution of ``A x = b`` or None.  Free variables are zero."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        n = self.cols
        aug = [row | (int(x) & 1) << n for row, x in zip(self._bits, b)]
        pivots = _row_reduce(aug, n + 1)
        if pivots and pivots[-1] == n:
            return None
        x = {p: row >> n & 1 for row, p in zip(aug, pivots)}
        return tuple(x.get(j, 0) for j in range(n))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def has_zero_diagonal(self) -> bool:
        diagonal = (row >> i & 1 for i, row in enumerate(self._bits))
        return self.rows == self.cols and not any(diagonal)


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------


class IntMatrix:
    """Dense integer matrix over native Python ints."""

    __slots__ = ("entries", "_cols")

    def __init__(self, entries: Iterable[Iterable[int]], *, cols: int | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols disagrees with row width")
            self._cols = width
        else:
            self._cols = 0 if cols is None else int(cols)
        self.entries = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(((int(i == j) for j in range(n)) for i in range(n)), cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(((0,) * cols for _ in range(rows)), cols=cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self._cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.entries == other.entries
            and self._cols == other._cols
        )

    def __hash__(self):
        return hash((self.entries, self._cols))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        out = []
        for row in self.entries:
            out.append(tuple(sum(a * b for a, b in zip(row, col)) for col in ot))
        return IntMatrix(out, cols=other.cols)

    def transpose(self) -> "IntMatrix":
        if self.entries:
            return IntMatrix(zip(*self.entries), cols=self.rows)
        return IntMatrix(((),) * self._cols, cols=0)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            x == int(i == j) for i, row in enumerate(self.entries) for j, x in enumerate(row)
        )

    def det(self) -> int:
        """Exact determinant, Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """Smith normal form ``left @ matrix @ right == diag(diagonal)``.

    ``left`` and ``right`` are unimodular; ``left_inverse`` is the exact
    inverse of ``left`` (tracked during elimination, not recomputed).
    Diagonal entries are non-negative, each divides the next, zeros trail.
    """

    matrix: IntMatrix
    diagonal: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix
    left_inverse: IntMatrix

    def diagonal_matrix(self) -> IntMatrix:
        r, c = self.matrix.rows, self.matrix.cols
        d = self.diagonal
        return IntMatrix(
            ((d[i] if i == j and i < len(d) else 0 for j in range(c)) for i in range(r)),
            cols=c,
        )

    def verify(self) -> bool:
        if (self.left @ self.matrix @ self.right) != self.diagonal_matrix():
            return False
        if not (self.left @ self.left_inverse).is_identity():
            return False
        if abs(self.left.det()) != 1 or abs(self.right.det()) != 1:
            return False
        d = self.diagonal
        if any(x < 0 for x in d):
            return False
        for a, b in zip(d, d[1:]):
            if a == 0 and b != 0:
                return False
            if a != 0 and b % a != 0:
                return False
        return True


def smith_normal_form(mat: IntMatrix) -> SmithForm:
    """Smith normal form with unimodular transforms on both sides.

    Pivoting always grabs the smallest nonzero magnitude in the remaining
    submatrix, which keeps intermediate entries tame for the Laplacians this
    package feeds it.  Output is deterministic for a given input.
    """
    R, C = mat.rows, mat.cols
    a = [list(row) for row in mat.entries]
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    uinv = [[int(i == j) for j in range(R)] for i in range(R)]
    v = [[int(i == j) for j in range(C)] for i in range(C)]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in range(R):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def row_add(i: int, j: int, c: int) -> None:
        # row i += c * row j; the inverse transform takes column j -= c * column i
        ai, aj = a[i], a[j]
        for k in range(C):
            ai[k] += c * aj[k]
        ui, uj = u[i], u[j]
        for k in range(R):
            ui[k] += c * uj[k]
        for r in range(R):
            uinv[r][j] -= c * uinv[r][i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in range(R):
            uinv[r][i] = -uinv[r][i]

    def col_swap(i: int, j: int) -> None:
        for r in range(R):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(C):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def col_add(j: int, i: int, c: int) -> None:
        # column j += c * column i
        for r in range(R):
            a[r][j] += c * a[r][i]
        for r in range(C):
            v[r][j] += c * v[r][i]

    t = 0
    limit = min(R, C)
    while t < limit:
        # smallest nonzero magnitude in the remaining submatrix becomes the pivot
        best = None
        for i in range(t, R):
            for j in range(t, C):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)

        while True:
            for i in range(t + 1, R):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t]:
                        row_swap(i, t)
            for j in range(t + 1, C):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j]:
                        col_swap(j, t)
            # column swaps can drop fresh entries into column t below the pivot
            if all(a[i][t] == 0 for i in range(t + 1, R)):
                break

        # the pivot must divide the whole remaining submatrix before moving on
        offender = None
        p = a[t][t]
        for i in range(t + 1, R):
            for j in range(t + 1, C):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    for i in range(limit):
        if a[i][i] < 0:
            row_negate(i)

    return SmithForm(
        matrix=mat,
        diagonal=tuple(a[i][i] for i in range(limit)),
        left=IntMatrix(u, cols=R),
        right=IntMatrix(v, cols=C),
        left_inverse=IntMatrix(uinv, cols=R),
    )
