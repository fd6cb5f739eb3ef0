"""Dense exact matrices over Q or F_p, on one elimination kernel.

Determinant, rank, solve and the choice of a non-zero maximal minor are
all read off one forward elimination to row echelon form, ``_echelon``.
Over F_p it is Gaussian elimination on plain ints in [0, p).  Over Q each
row is first cleared to integers by its own common denominator and the
elimination is fraction-free (Bareiss, Math. Comp. 1968): no Fraction is
built inside the loop, only the final answers are rationals.  Which of
the two arithmetics runs is decided once per call.

The pivot of each column is its first non-zero entry in row order, so
the pivot columns are exactly the columns that a left-to-right scan finds
independent of those before it: they are the deterministic greedy choice
of a non-zero maximal minor, and every run is reproducible.  The value of
that minor comes from the same pass: over Z the last Bareiss pivot is the
minor of the row-scaled matrix, and mod p it is the product of the
pivots, each times the sign of the row swaps.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import NotFullRank, ShapeError
from .fields import FpElement, PrimeField

__all__ = ["Matrix", "MinorSelection", "select_nonzero_maximal_minor"]


@dataclass(frozen=True)
class _Echelon:
    """Row echelon form: pivots[k] is the pivot column of echelon row k.

    The rows keep their full width; entries left of a row's pivot are
    stale and never read.
    """

    pivots: list
    rows: list
    sign: int  # (-1)^(number of row swaps)
    scale: int  # product of the row denominators cleared over Q; 1 mod p
    p: object  # the prime, or None over Q

    def minor(self):
        """The minor on every row and the pivot columns (one pivot per row)."""
        if self.p:
            value = self.sign
            for c, row in zip(self.pivots, self.rows):
                value = value * row[c] % self.p
            return FpElement(value, self.p)
        last = self.rows[-1][self.pivots[-1]] if self.rows else 1
        return Fraction(self.sign * last, self.scale)

    def solution(self, m: int, k: int) -> list:
        """Rows of X with A X = B for the eliminated [A | B] (A has m
        columns, B has k), free variables zero; needs no pivot in B."""
        p = self.p
        # over Z, d * X is integral for d the last pivot (Cramer's rule on
        # the pivot rows), so the back-substitution divides exactly
        d = 1 if p or not self.rows else self.rows[-1][self.pivots[-1]]
        x = [[0] * k for _ in range(m)]
        solved = []
        for c, row in zip(reversed(self.pivots), reversed(self.rows)):
            acc = [d * b for b in row[m:]]
            for c2 in solved:
                f = row[c2]
                if f:
                    acc = [a - f * y for a, y in zip(acc, x[c2])]
            if p:
                inv = pow(row[c], -1, p)
                x[c] = [a * inv % p for a in acc]
            else:
                x[c] = [a // row[c] for a in acc]
            solved.append(c)
        if p:
            return [[FpElement(v, p) for v in row] for row in x]
        return [[Fraction(v, d) for v in row] for row in x]


def _echelon(field, rows, ncols: int) -> _Echelon:
    """Forward elimination of ``rows`` (lists of field elements)."""
    if isinstance(field, PrimeField):
        p, scale = field.p, 1
        work = [[e.val for e in row] for row in rows]

        def eliminate(below, c, pivot, prev):
            inv = pow(pivot[c], -1, p)
            # the matrices are sparse: only the pivot row's non-zeros move a row
            tail = [(j, y) for j, y in enumerate(pivot[c + 1:], c + 1) if y]
            for r in below:
                if r[c]:
                    f = r[c] * inv % p
                    for j, y in tail:
                        r[j] = (r[j] - f * y) % p

    else:
        p, scale, work = None, 1, []
        for row in rows:
            den = lcm(*(e.denominator for e in row))
            scale *= den
            work.append([e.numerator * (den // e.denominator) for e in row])

        def eliminate(below, c, pivot, prev):
            # every entry stays a minor of the matrix, so // divides exactly
            pv, tail = pivot[c], pivot[c + 1:]
            for r in below:
                f = r[c]
                if f:
                    r[c + 1:] = [(pv * x - f * y) // prev for x, y in zip(r[c + 1:], tail)]
                else:
                    r[c + 1:] = [pv * x // prev if x else 0 for x in r[c + 1:]]

    pivots, echelon, sign, prev = [], [], 1, 1
    for c in range(ncols):
        if not work:
            break
        k = next((i for i, r in enumerate(work) if r[c]), None)
        if k is None:
            continue
        if k:
            work[0], work[k] = work[k], work[0]
            sign = -sign
        pivot = work.pop(0)
        pivots.append(c)
        echelon.append(pivot)
        eliminate(work, c, pivot, prev)
        prev = pivot[c]
    return _Echelon(pivots, echelon, sign, scale, p)


class Matrix:
    """Immutable dense matrix."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = [list(r) for r in rows]
        self.field = field
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            if ncols is not None and ncols != self.ncols:
                raise ShapeError("explicit ncols disagrees with row data")
        else:
            if ncols is None:
                raise ShapeError("empty matrix needs an explicit column count")
            self.ncols = ncols
        if any(len(r) != self.ncols for r in rows):
            raise ShapeError("ragged rows")
        self.rows = rows

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    # -- basics -------------------------------------------------------
    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        return Matrix(
            self.field,
            [[self.rows[i][j] for j in col_idx] for i in row_idx],
            ncols=len(col_idx),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError("inner dimensions disagree")
        z = self.field.zero
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for k in range(self.ncols):
                    a = self.rows[i][k]
                    if a:
                        acc = acc + a * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(self.field, out, ncols=other.ncols)

    # -- exact linear algebra ------------------------------------------
    def det(self):
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a non-square matrix")
        ech = _echelon(self.field, self.rows, self.ncols)
        if len(ech.pivots) < self.nrows:
            return self.field.zero
        return ech.minor()

    def rank(self) -> int:
        return len(_echelon(self.field, self.rows, self.ncols).pivots)

    def solve(self, rhs: "Matrix"):
        """A particular solution X of self @ X = rhs, or None if inconsistent.

        Free variables are set to zero; the pivot columns are fixed by the
        scan order, so the returned solution is deterministic.
        """
        if rhs.nrows != self.nrows:
            raise ShapeError("right-hand side has the wrong number of rows")
        m, k = self.ncols, rhs.ncols
        aug = [a + b for a, b in zip(self.rows, rhs.rows)]
        ech = _echelon(self.field, aug, m + k)
        if ech.pivots and ech.pivots[-1] >= m:
            return None
        return Matrix(self.field, ech.solution(m, k), ncols=k)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"


@dataclass(frozen=True)
class MinorSelection:
    """A non-zero maximal minor: sorted index sets and its determinant."""

    row_indices: tuple
    col_indices: tuple
    minor_value: object


def select_nonzero_maximal_minor(m: Matrix) -> MinorSelection:
    """Deterministic greedy choice of a non-zero maximal minor of a map
    that is onto (full row rank): every row and the pivot columns.
    Raises NotFullRank when the rows are dependent.
    """
    ech = _echelon(m.field, m.rows, m.ncols)
    if len(ech.pivots) < m.nrows:
        raise NotFullRank(
            f"no non-zero maximal minor ({len(ech.pivots)} of {m.nrows} rows independent)"
        )
    return MinorSelection(tuple(range(m.nrows)), tuple(ech.pivots), ech.minor())
