"""Exact linear algebra: GF(2) matrices and integer Smith normal form.

Two worlds live here.  ``GF2Matrix`` keeps each row as a Python int whose
bit ``j`` is column ``j``.  Its one elimination, ``_echelon``, XORs whole
rows into a basis keyed by lowest set bit; kernel and solve add a
back-substitution pass to the unique reduced echelon form, so their
conventions are fixed (free variables are set to zero, kernel vectors
follow ascending free columns).  ``IntMatrix`` and
``smith_normal_form`` work over native Python ints, because spanning-tree
counts overflow fixed-width integers quickly.  The Smith form carries
unimodular transforms on both sides plus the inverse of the left one.
The inverse is built during elimination, since every critical group reads
its generators from it; the two transforms, which only the principal shift
of burning reads, are built from the recorded elimination steps on first
read.  Its elimination pivots on any entry that divides its whole row
and column, units first; the pivots it settles need not divide one
another, and gcd steps on pairs of diagonal entries restore the chain at
the end (see ``smith_normal_form``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import InitVar, dataclass
from functools import cached_property
from math import gcd
from operator import mul
from typing import Iterable, Mapping, Sequence

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


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """An echelon basis of the span of bit rows, keyed by lowest set bit."""
    basis: dict[int, int] = {}
    for row in rows:
        row = _reduce(row, basis)
        if row:
            basis[row & -row] = row
    return basis


def _reduce(row: int, basis: Mapping[int, int]) -> int:
    """``row`` minus basis rows until its lowest set bit has no pivot; zero
    exactly when ``row`` lies in the span of ``basis``."""
    while row:
        pivot = basis.get(row & -row)
        if pivot is None:
            break
        row ^= pivot
    return row


def _back_substitute(basis: Mapping[int, int]) -> dict[int, int]:
    """The reduced echelon form of an ``_echelon`` basis, keyed by pivot bit:
    highest pivot first, each row is cleared at every pivot above its own."""
    reduced: dict[int, int] = {}
    for pivot in sorted(basis, reverse=True):
        row = basis[pivot]
        for bit, done in reduced.items():
            if row & bit:
                row ^= done
        reduced[pivot] = row
    return reduced


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
        if width < 0:
            raise ValueError(f"negative width {width}")
        if any(len(row) != width for row in rows) or cols not in (None, width):
            raise ValueError("ragged rows, or cols disagrees with the row width")
        self._bits = tuple(map(_pack, rows))
        self.rows, self.cols = len(rows), width

    @classmethod
    def _of(cls, bits: Iterable[int], cols: int) -> "GF2Matrix":
        """A matrix on trusted bit rows: non-negative ints below ``2 ** cols``."""
        mat = object.__new__(cls)
        mat._bits = tuple(bits)
        mat.rows, mat.cols = len(mat._bits), cols
        return mat

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls._of((0,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls._of((1 << i for i in range(n)), n)

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
        prod = (
            sum(((row & col).bit_count() & 1) << j for j, col in enumerate(columns))
            for row in self._bits
        )
        return GF2Matrix._of(prod, other.cols)

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = _pack(vec)
        return tuple((row & v).bit_count() & 1 for row in self._bits)

    def transpose(self) -> "GF2Matrix":
        columns = [0] * self.cols
        for i, row in enumerate(self._bits):
            while row:
                low = row & -row
                columns[low.bit_length() - 1] |= 1 << i
                row ^= low
        return GF2Matrix._of(columns, self.rows)

    def rank(self) -> int:
        return len(_echelon(self._bits))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of the right kernel, one vector per free column.

        Free columns are visited in ascending index order; each basis
        vector sets its free variable to one, all other free variables to
        zero, and back-substitutes the pivots.
        """
        reduced = _back_substitute(_echelon(self._bits))
        free = (f for f in range(self.cols) if 1 << f not in reduced)
        vecs = (1 << f | sum(p for p, row in reduced.items() if row >> f & 1) for f in free)
        return tuple(tuple(v >> j & 1 for j in range(self.cols)) for v in vecs)

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One solution of ``A x = b`` or None.  Free variables are zero."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        n = self.cols
        aug = (row | (int(x) & 1) << n for row, x in zip(self._bits, b))
        reduced = _back_substitute(_echelon(aug))
        if 1 << n in reduced:
            return None
        x = sum(p for p, row in reduced.items() if row >> n & 1)
        return tuple(x >> j & 1 for j in range(n))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self._bits == self.transpose()._bits

    def block_is_zero(self, rows: range, cols: range) -> bool:
        """Whether every entry ``(i, j)`` with ``i`` in ``rows`` and ``j`` in
        ``cols`` is zero; both are step-one ranges inside the shape."""
        for span, size in ((rows, self.rows), (cols, self.cols)):
            if span.step != 1 or not 0 <= span.start <= span.stop <= size:
                raise IndexError(f"{span} is not a block of a {self.rows}x{self.cols} matrix")
        mask = (1 << cols.stop) - (1 << cols.start)
        return not any(row & mask for row in self._bits[rows.start : rows.stop])

    def has_zero_diagonal(self) -> bool:
        diagonal = (row >> i & 1 for i, row in enumerate(self._bits))
        return self.rows == self.cols and not any(diagonal)


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------


class IntMatrix:
    """Dense integer matrix over native Python ints.

    The constructor validates and converts its input; matrices built inside
    the package from rows already known to be equal-length int tuples go
    through ``_of`` instead.
    """

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
        elif cols is not None and int(cols) < 0:
            raise ValueError(f"negative width {cols}")
        else:
            self._cols = 0 if cols is None else int(cols)
        self.entries = rows

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """A matrix on trusted rows: a tuple of int tuples, each ``cols`` long."""
        mat = object.__new__(cls)
        mat.entries = rows
        mat._cols = cols
        return mat

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(((0,) * cols,) * rows, cols)

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
        ot = other.transpose().entries
        out = tuple(tuple(sum(map(mul, row, col)) for col in ot) for row in self.entries)
        return IntMatrix._of(out, other.cols)

    def transpose(self) -> "IntMatrix":
        if self.entries:
            return IntMatrix._of(tuple(zip(*self.entries)), self.rows)
        return IntMatrix._of(((),) * self._cols, 0)

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
    inverse of ``left``.  Diagonal entries are non-negative, each divides
    the next, zeros trail.

    ``left_inverse`` is built during elimination: every critical group
    reads its generators from it.  Only burning's principal shift reads
    ``left`` and ``right``, so the form is given the elimination's steps
    in order instead: ``row_steps`` and ``col_steps``, each ``(i, j, c)``
    for ``ri += c * rj``, ``(i, j, x, y, z, w)`` for ``ri, rj = x*ri +
    y*rj, z*ri + w*rj``, or ``(i,)`` for ``ri = -ri``.  The first read of
    ``left`` replays the row steps on the identity and takes its rows in
    ``row_order``; ``right`` does the same with columns.  Each is kept on
    the form and its steps dropped.
    """

    matrix: IntMatrix
    diagonal: tuple[int, ...]
    left_inverse: IntMatrix
    row_steps: InitVar[tuple[tuple[int, ...], ...]]
    col_steps: InitVar[tuple[tuple[int, ...], ...]]
    row_order: InitVar[tuple[int, ...]]
    col_order: InitVar[tuple[int, ...]]

    def __post_init__(self, row_steps, col_steps, row_order, col_order):
        vars(self).update(_left_record=(row_steps, row_order), _right_record=(col_steps, col_order))

    @cached_property
    def left(self) -> IntMatrix:
        steps, order = vars(self).pop("_left_record")
        n = self.matrix.rows
        rows = _replay(steps, n)
        return IntMatrix._of(tuple(_dense(rows[i], n) for i in order), n)

    @cached_property
    def right(self) -> IntMatrix:
        steps, order = vars(self).pop("_right_record")
        n = self.matrix.cols
        cols = _replay(steps, n)
        picked = [_dense(cols[j], n) for j in order]
        return IntMatrix._of(tuple(zip(*picked)) if picked else (), n)

    def diagonal_matrix(self) -> IntMatrix:
        r, c = self.matrix.rows, self.matrix.cols
        d = self.diagonal
        return IntMatrix._of(
            tuple(tuple(d[i] if i == j < len(d) else 0 for j in range(c)) for i in range(r)),
            c,
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


def _axpy(dst: dict[int, int], src: dict[int, int], c: int) -> None:
    """Sparse ``dst += c * src``, dropping entries that cancel."""
    if not c:
        return
    for k, x in src.items():
        y = dst.get(k, 0) + c * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _combine(rows: list[dict[int, int]], i: int, j: int, x: int, y: int, z: int, w: int) -> None:
    """Sparse rows ``i, j`` become ``x*ri + y*rj`` and ``z*ri + w*rj``."""
    if (x, z, w) == (1, 0, 1):
        _axpy(rows[i], rows[j], y)
    elif (x, y, w) == (1, 0, 1):
        _axpy(rows[j], rows[i], z)
    else:
        ri, rj = rows[i], rows[j]
        rows[i], rows[j] = {}, {}
        for k in ri.keys() | rj.keys():
            p, q = ri.get(k, 0), rj.get(k, 0)
            if x * p + y * q:
                rows[i][k] = x * p + y * q
            if z * p + w * q:
                rows[j][k] = z * p + w * q


def _replay(steps: Iterable[tuple[int, ...]], n: int) -> list[dict[int, int]]:
    """The sparse rows of the ``n x n`` identity put through recorded
    steps, as ``SmithForm`` describes them."""
    rows = [{i: 1} for i in range(n)]
    for step in steps:
        if len(step) == 3:
            i, j, c = step
            _axpy(rows[i], rows[j], c)
        elif len(step) == 1:
            (i,) = step
            rows[i] = {k: -x for k, x in rows[i].items()}
        else:
            _combine(rows, *step)
    return rows


def _dense(row: dict[int, int], n: int) -> tuple[int, ...]:
    out = [0] * n
    for k, x in row.items():
        out[k] = x
    return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``x * a + y * b == g == gcd(a, b) >= 0``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _hermite(m: list[list[int]], ids: list[int], track) -> None:
    """Row Hermite form of the dense rows ``m``, by unimodular row operations.

    Rows enter one at a time and are combined into the echelon rows above
    them by gcd steps; after each entry, every echelon row is reduced
    modulo the pivots below it.  That keeps the entries bounded by the
    pivots (Kannan and Bachem, SIAM J. Comput. 8, 1979), where eliminating
    column by column lets them grow exponentially.  Each operation sets
    rows ``i, j`` to ``x*mi + y*mj, z*mi + w*mj`` with ``xw - yz = 1`` and
    is passed on as ``track(ids[i], ids[j], x, y, z, w)``; moving a row of
    ``m`` moves its entry of ``ids``.
    """

    def op(i, j, x, y, z, w):
        mi, mj = m[i], m[j]
        m[i] = [x * p + y * q for p, q in zip(mi, mj)]
        m[j] = [z * p + w * q for p, q in zip(mi, mj)]
        track(ids[i], ids[j], x, y, z, w)

    piv: list[int] = []  # pivot column of each echelon row, increasing
    for i in range(len(m)):
        e = len(piv)
        m[e], m[i] = m[i], m[e]
        ids[e], ids[i] = ids[i], ids[e]
        while True:
            c = next((c for c, x in enumerate(m[e]) if x), None)
            if c is None:
                break
            k = bisect_left(piv, c)
            if k == e or piv[k] != c:
                m.insert(k, m.pop(e))
                ids.insert(k, ids.pop(e))
                piv.insert(k, c)
                break
            p, b = m[k][c], m[e][c]
            if b % p == 0:
                op(e, k, 1, -(b // p), 0, 1)
            else:
                g, x, y = _xgcd(p, b)
                op(k, e, x, y, -b // g, p // g)
        for k, c in enumerate(piv):
            p = m[k][c]
            for k2 in range(k):
                q = m[k2][c] // p
                if q:
                    op(k2, k, 1, -q, 0, 1)


def _unit_pivot(
    rows: list[dict[int, int]], cols: list[set[int]], i: int
) -> tuple[int, int, int] | None:
    """Row ``i``'s best unit pivot ``(cost, i, column)``, or None without a
    unit: least Markowitz cost ``(row nnz - 1) * (column nnz - 1)``, then
    lowest column.  Within one row the cost grows with the column count."""
    best = None
    for j, x in rows[i].items():
        if x == 1 or x == -1:
            count = len(cols[j])
            if best is None or count < best[0] or count == best[0] and j < best[1]:
                best = count, j
    if best is None:
        return None
    return (len(rows[i]) - 1) * (best[0] - 1), i, best[1]


def _divisor_pivot(
    rows: list[dict[int, int]], cols: list[set[int]], active: list[int]
) -> tuple[int, int] | None:
    """Among the entries ``x`` of the active rows that divide every entry
    of their row and column, the least by ``|x|``, then Markowitz cost,
    then row, then column, as ``(row, column)``; None when there is none.
    A row holds a candidate only at entries of absolute value equal to
    its gcd.
    """
    best = None
    for i in active:
        row = rows[i]
        g = gcd(*row.values())
        if best is not None and g > best[0]:
            continue
        rest = len(row) - 1
        for j, x in row.items():
            if abs(x) != g:
                continue
            key = (g, rest * (len(cols[j]) - 1), i, j)
            if (best is None or key < best) and all(rows[k][j] % x == 0 for k in cols[j]):
                best = key
    return None if best is None else best[2:]


def smith_normal_form(mat: IntMatrix) -> SmithForm:
    """Smith normal form with unimodular transforms on both sides.

    Two phases.  The first eliminates over sparse rows on pivots ``x``
    that divide every entry of their row and column, chosen by least
    ``|x|``, then least Markowitz cost ``(row nnz - 1) * (column nnz - 1)``,
    then lowest row and column (Havas, Holt and Rees, Linear Algebra Appl.
    192, 1993; Dumas, Saunders and Villard, J. Symbolic Comput. 32, 2001).
    Such a pivot clears its row and column in one pass with exact
    quotients and settles ``|x|`` as a diagonal entry.  Units come first,
    and on the Laplacians this package feeds it every subdivision vertex
    brings them.  Each active row keeps its best unit pivot, recomputed
    only when the row or the count of a column it meets changes; divisors
    are scanned for only when no unit is left.  They leave the second
    phase a few rows, which it brings to a diagonal by alternating row and
    column Hermite forms.

    A divisor pivot need not divide the rest of the matrix, so the settled
    entries do not yet form a chain.  The matrix is now equivalent to a
    diagonal, and ``diag(p, b)`` is equivalent to ``diag(gcd, lcm)``, so a
    last pass of such gcd steps on pairs, over the settled entries and the
    second phase's diagonal together, makes each entry divide the next,
    zeros last.  Units divide everything and stay in front.

    ``left_inverse`` is kept as the sparse rows of its transpose and
    updated at each step; a phase-one step changes one entry.  The steps
    are recorded, and ``left`` and ``right`` are built from them on first
    read (see ``SmithForm``).  Row and column swaps only reorder the final
    positions.  Output is deterministic for a given input.
    """
    R, C = mat.rows, mat.cols
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat.entries]
    cols: list[set[int]] = [set() for _ in range(C)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    uinv_t = [{i: 1} for i in range(R)]  # rows of left_inverse's transpose
    row_steps: list[tuple[int, ...]] = []
    col_steps: list[tuple[int, ...]] = []

    def row_track(i, j, x, y, z, w):
        # rows i, j of the matrix combine as given: left replays the step
        # later, and left_inverse's columns i, j undo it now by the
        # inverse-transpose
        row_steps.append((i, j, x, y, z, w))
        _combine(uinv_t, i, j, w, -z, -y, x)

    def col_track(*step):
        col_steps.append(step)

    def negate_row(i):
        row_steps.append((i,))
        uinv_t[i] = {k: -x for k, x in uinv_t[i].items()}

    # phase one: pivots that divide their row and column
    row_order: list[int] = []
    col_order: list[int] = []
    active = list(range(R))
    best = {i: u for i in active if (u := _unit_pivot(rows, cols, i)) is not None}
    while True:
        if best:
            _, p, q = min(best.values())
        elif (pivot := _divisor_pivot(rows, cols, active)) is not None:
            p, q = pivot
        else:
            break
        prow = rows[p]
        s = prow[q]
        below = [i for i in cols[q] if i != p]
        for i in below:
            c = -(rows[i][q] // s)
            row = rows[i]
            for j, x in prow.items():
                y = row.get(j, 0) + c * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
            # row i += c * row p, so left_inverse's column p -= c * column i
            row_steps.append((i, p, c))
            _axpy(uinv_t[p], uinv_t[i], -c)
        # column q is now zero off the pivot, so clearing row p by column
        # operations changes nothing else in the matrix
        changed = set(below)
        for j, x in prow.items():
            if j != q:
                col_steps.append((j, q, -(x // s)))
                cols[j].discard(p)
                changed.update(cols[j])
        if s < 0:
            negate_row(p)
        rows[p] = {q: abs(s)}
        active.remove(p)
        row_order.append(p)
        col_order.append(q)
        # the rows that changed, and those meeting a column whose count did
        best.pop(p, None)
        for i in changed:
            if (u := _unit_pivot(rows, cols, i)) is not None:
                best[i] = u
            else:
                best.pop(i, None)

    # phase two: the dense remainder
    rr = active
    rc = sorted(set(range(C)).difference(col_order))
    a = [[rows[i].get(j, 0) for j in rc] for i in rr]

    def is_diagonal():
        return all(not x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)

    _hermite(a, rr, row_track)
    while not is_diagonal():
        at = [list(col) for col in zip(*a)]
        _hermite(at, rc, col_track)
        a = [list(row) for row in zip(*at)]
        if not is_diagonal():
            _hermite(a, rr, row_track)

    k = min(len(rr), len(rc))
    for t in range(k):
        if a[t][t] < 0:
            negate_row(rr[t])
    diag = [rows[p][q] for p, q in zip(row_order, col_order)]
    diag += [abs(a[t][t]) for t in range(k)]
    row_order += rr[:k]
    col_order += rc[:k]
    # units divide everything and go first; the rest make a chain
    units = [t for t, d in enumerate(diag) if d == 1]
    chain = [t for t, d in enumerate(diag) if d != 1]
    for n, i in enumerate(chain):
        for j in chain[n + 1 :]:
            p, b = diag[i], diag[j]
            if (b % p if p else b) == 0:
                continue
            # [[p, 0], [0, b]] -> [[g, 0], [0, p*b/g]]: add column j to
            # column i, a gcd step on the rows, then clear column j
            g, x, y = _xgcd(p, b)
            col_track(col_order[i], col_order[j], 1, 1, 0, 1)
            row_track(row_order[i], row_order[j], x, y, -b // g, p // g)
            col_track(col_order[j], col_order[i], 1, -(y * b // g), 0, 1)
            diag[i], diag[j] = g, p * b // g

    order = units + chain
    row_order = [row_order[t] for t in order] + rr[k:]
    col_order = [col_order[t] for t in order] + rc[k:]
    uinv_cols = [_dense(uinv_t[i], R) for i in row_order]
    return SmithForm(
        matrix=mat,
        diagonal=tuple(diag[t] for t in order),
        left_inverse=IntMatrix._of(tuple(zip(*uinv_cols)) if uinv_cols else (), R),
        row_steps=tuple(row_steps),
        col_steps=tuple(col_steps),
        row_order=tuple(row_order),
        col_order=tuple(col_order),
    )
