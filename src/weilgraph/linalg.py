"""Exact linear algebra: GF(2) matrices and integer Smith normal form.

Two worlds live here.  ``GF2Matrix`` keeps each row as a Python int whose
bit ``j`` is column ``j``.  Its one elimination, ``_echelon``, XORs whole
rows into a basis keyed by lowest set bit; solve adds a back-substitution
pass to the unique reduced echelon form, so its convention is fixed (free
variables are set to zero).  ``IntMatrix`` and ``smith_normal_form``
work over native Python ints, because spanning-tree counts overflow
fixed-width integers quickly.  The Smith form records its elimination
steps and nothing more.  The principal shift of burning needs the two
transforms only on one vector, so the form applies the steps to that
vector; a critical group needs a few columns of the left transform's
inverse, so the form undoes the row steps on those unit vectors.  No
dense transform is ever built.  Its elimination pivots on any entry that
divides its whole row and column, units first; the pivots it settles need
not divide one another, and gcd steps on pairs of diagonal entries
restore the chain at the end (see ``smith_normal_form``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import gcd
from operator import index
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

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = _pack(vec)
        return tuple((row & v).bit_count() & 1 for row in self._bits)

    def rank(self) -> int:
        return len(_echelon(self._bits))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One solution of ``A x = b`` or None.  Free variables are zero."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        n, rhs = self.cols, _pack(b)
        aug = (row | (rhs >> i & 1) << n for i, row in enumerate(self._bits))
        reduced = _back_substitute(_echelon(aug))
        if 1 << n in reduced:
            return None
        x = sum(p for p, row in reduced.items() if row >> n & 1)
        return tuple(x >> j & 1 for j in range(n))

    def block_is_zero(self, rows: range, cols: range) -> bool:
        """Whether every entry ``(i, j)`` with ``i`` in ``rows`` and ``j`` in
        ``cols`` is zero; both are step-one ranges inside the shape."""
        for span, size in ((rows, self.rows), (cols, self.cols)):
            if span.step != 1 or not 0 <= span.start <= span.stop <= size:
                raise IndexError(f"{span} is not a block of a {self.rows}x{self.cols} matrix")
        mask = (1 << cols.stop) - (1 << cols.start)
        return not any(row & mask for row in self._bits[rows.start : rows.stop])

    def is_alternating(self) -> bool:
        """Square, symmetric, with a zero diagonal: one pass over the set
        bits, in which each bit ``j`` of row ``i`` needs bit ``i`` of row
        ``j`` and ``j != i``."""
        if self.rows != self.cols:
            return False
        bits = self._bits
        for i, row in enumerate(bits):
            while row:
                low = row & -row
                j = low.bit_length() - 1
                if j == i or not bits[j] >> i & 1:
                    return False
                row ^= low
        return True


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
        rows = tuple(tuple(map(index, row)) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols disagrees with row width")
            self._cols = width
        elif cols is not None and index(cols) < 0:
            raise ValueError(f"negative width {cols}")
        else:
            self._cols = 0 if cols is None else index(cols)
        self.entries = rows

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """A matrix on trusted rows: a tuple of int tuples, each ``cols`` long."""
        mat = object.__new__(cls)
        mat.entries = rows
        mat._cols = cols
        return mat

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
    """Smith normal form ``left @ matrix @ right == diag(diagonal)``, for
    unimodular ``left`` and ``right`` that are never built.  Diagonal
    entries are non-negative, each divides the next, zeros trail.

    The form keeps the elimination's steps as ``(steps, order)`` records
    private to this module, and nothing else.  ``left_times`` and
    ``right_times`` apply them to one vector in time linear in the steps:
    all that burning's principal shift needs.  ``left_inverse_columns``
    undoes the row steps on a few unit vectors: all that a critical
    group's generators need.  A step acts on a vector ``u``: ``(i, j, c)``
    as ``u[i] += c * u[j]``, ``(i, j, x, y, z, w)`` as ``u[i], u[j] =
    x*u[i] + y*u[j], z*u[i] + w*u[j]`` with ``x*w - y*z == 1``, and
    ``(i,)`` as ``u[i] = -u[i]``.  A shear is always recorded as ``(i, j,
    c)``, never as a 2 x 2 step.  Row steps are kept in the order taken,
    column steps transposed and last first, since ``right`` is their
    product from the right.
    """

    matrix: IntMatrix
    diagonal: tuple[int, ...]
    _row_record: tuple = field(repr=False, compare=False)
    _col_record: tuple = field(repr=False, compare=False)

    def left_times(self, vec: Sequence[int]) -> list[int]:
        """``left @ vec``, from the recorded row steps."""
        if len(vec) != self.matrix.rows:
            raise ValueError("vector length mismatch")
        steps, order = self._row_record
        u = list(vec)
        _apply(steps, u)
        return [u[i] for i in order]

    def right_times(self, vec: Sequence[int]) -> list[int]:
        """``right @ vec``, from the recorded column steps."""
        if len(vec) != self.matrix.cols:
            raise ValueError("vector length mismatch")
        steps, order = self._col_record
        u = [0] * len(vec)
        for j, x in zip(order, vec):
            u[j] = x
        _apply(steps, u)
        return u

    def left_inverse_columns(self, positions: Sequence[int]) -> list[tuple[int, ...]]:
        """Columns ``positions`` of the inverse of ``left``, in the order given.

        One pass undoes the row steps, last first, on a block holding all
        the requested unit vectors: row ``i`` of the block is entry ``i``
        of each column.  Every step has determinant one, so ``(i, j, c)``
        is undone as ``u[i] -= c * u[j]``, skipped when row ``j`` is zero,
        and ``(i, j, x, y, z, w)`` by ``(w, -y; -z, x)``.
        """
        steps, order = self._row_record
        rows, k = self.matrix.rows, len(positions)
        block = [[0] * k for _ in range(rows)]
        for t, p in enumerate(positions):
            if not 0 <= p < rows:
                raise IndexError(f"no position {p} in a form of {rows} rows")
            block[order[p]][t] = 1
        for step in reversed(steps):
            if len(step) == 1:
                (i,) = step
                block[i] = [-a for a in block[i]]
                continue
            if len(step) == 3:
                i, j, c = step
                src = block[j]
                if any(src):
                    block[i] = [a - c * b for a, b in zip(block[i], src)]
            else:
                i, j, x, y, z, w = step
                bi, bj = block[i], block[j]
                block[i] = [w * a - y * b for a, b in zip(bi, bj)]
                block[j] = [x * b - z * a for a, b in zip(bi, bj)]
        return list(zip(*block))


def _apply(steps: Iterable[tuple[int, ...]], u: list[int]) -> None:
    """Apply recorded steps to the vector ``u`` in place (see ``SmithForm``)."""
    for step in steps:
        if len(step) == 3:
            i, j, c = step
            u[i] += c * u[j]
        elif len(step) == 1:
            (i,) = step
            u[i] = -u[i]
        else:
            i, j, x, y, z, w = step
            u[i], u[j] = x * u[i] + y * u[j], z * u[i] + w * u[j]


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

    The steps are only recorded, and only ``left_times``, ``right_times``
    and ``left_inverse_columns`` read them (see ``SmithForm``).  Row and
    column swaps only reorder the final positions.  Output is
    deterministic for a given input.
    """
    R, C = mat.rows, mat.cols
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat.entries]
    cols: list[set[int]] = [set() for _ in range(C)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    row_steps: list[tuple[int, ...]] = []
    col_steps: list[tuple[int, ...]] = []

    def row_track(i, j, x, y, z, w):
        # rows i, j of the matrix combine as given; a shear as a shear
        row_steps.append((i, j, y) if (x, z, w) == (1, 0, 1) else (i, j, x, y, z, w))

    def col_track(i, j, x, y, z, w):
        # columns i, j combine as given, recorded transposed: a shear as (j, i, y)
        col_steps.append((j, i, y) if (x, z, w) == (1, 0, 1) else (i, j, x, z, y, w))

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
            row_steps.append((i, p, c))
        # column q is now zero off the pivot, so clearing row p by column
        # operations changes nothing else in the matrix
        changed = set(below)
        for j, x in prow.items():
            if j != q:
                # column j += c * column q, recorded transposed
                col_steps.append((q, j, -(x // s)))
                cols[j].discard(p)
                changed.update(cols[j])
        if s < 0:
            row_steps.append((p,))
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
            row_steps.append((rr[t],))
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
    return SmithForm(
        matrix=mat,
        diagonal=tuple(diag[t] for t in order),
        _row_record=(tuple(row_steps), tuple(row_order)),
        _col_record=(tuple(reversed(col_steps)), tuple(col_order)),
    )
