"""Exact matrices over Q or F_p, on one free-pivot elimination kernel.

Every matrix is sparse, from the Koszul builder through to the kernels: a
row is a dict {column: value} of its non-zero entries.  A kernel only maps
the values: to residues mod p or, over Q, to integers by the row's common
denominator.  Mod p a minor is the product of the pivots.  Over Z the
update is Bareiss's fraction-free one (Math. Comp. 1968), applied lazily:
a row skips the steps whose column it does not hold and keeps its level,
the number of steps it was last brought up to.  At step k a holder r of
level j becomes (pv * r - r[c] * pivot) // prev[j], prev[j] the pivot of
step j, and a pivot row of a lower level is first scaled up to level k.
So every entry is the minor dense Bareiss would hold, every division is
exact, and the last pivot is the minor of the row-scaled matrix.

Rank, determinant, the stage minors of both decompositions and ``solve``
all run on ``_pivot``, the free-pivot kernel, which drops each pivot row
once applied.  A step on pivot row r and column c updates (len(r) - 1)
entries in each of the (holders(c) - 1) other rows holding c: that
Markowitz product (Markowitz 1957) is the step's cost.  The kernel weighs
two candidates and takes the cheaper, the first on a tie (Zlatev, SIAM J.
Numer. Anal. 17, 1980): the shortest remaining row at its least-held
column, and the least-held column at its shortest holder.  The first
alone fills in far less than the column order on Macaulay and Koszul
matrices, but it is blind where every row of one f_i has the same length,
as in Macaulay's matrices, and the second finds the cheap steps there.
The search for the second costs more than it saves on small steps, so a
step looks for it only when the first would update more than _GATE
entries, and the columns are kept by count only from the first such
step.  ``solve`` keeps the first rule alone, and so does a matrix with
more rows than columns, such as the rank oracle's, where the second cost
more updates than it saved.  A rank and a determinant name no
columns, so their pivot order is free.  A maximal minor chosen this way
(``select_nonzero_maximal_minor``) follows the sparsity of the matrix, not
the order of its columns, and is signed by both the row and the column
permutation that put its pivots in step order; the determinant of an
exact complex does not depend on which minors its stages take.  Given a
square choice of columns, as the descending decomposition gives each wide
Koszul stage, the selector runs the kernel on the rows restricted to them
first, and on the whole matrix only when that minor vanishes.  The rank
mirrors it: given a square choice of rows, as the rank oracle gives each
tall Macaulay matrix, it ranks those rows first, and the whole matrix
only when they fall short.  A full rank on some rows is the full column
rank of the matrix, so the choice only saves work.  Every selection,
every determinant and every square rank attempt stops the kernel at the
first row that cancels to nothing, which alone proves the rows
dependent: a singular stage costs only the pivots up to its first
dependent row, and NotFullRank counts no rows.  A whole-matrix rank and
``solve`` run to the end, since on a tall matrix rows cancel anyway.

A rank over Q is first taken mod the prime P = 2**30 - 35, entry by entry
(n/d to n * d^-1 mod P).  That scales each row of the row-cleared integer
matrix by a unit mod P, and the rank of an integer matrix mod P is at most
its rank over Q, which is at most min(nrows, ncols): so a full rank mod P
is the rank over Q.  P is the largest prime below 2**30, one CPython digit,
so the kernel's products and reductions mod P stay on the one-digit path
of CPython's long arithmetic.  Any other count, and any matrix with a
denominator divisible by P, is re-done by the same kernel over Z, so every
answer stays exact; a square choice of rows is only tried mod P, and when
it falls short the whole matrix is ranked as above.

``solve`` runs the kernel on the rows of [A | B], where a pivot row takes
a column of B only when it holds no column of A: such a row, a
combination of the rows, reads 0 = b with b non-zero, so the system is
inconsistent.  Otherwise every pivot column is a column of A, and the
pivot rows, triangular in step order, are back-substituted with the free
variables, the other columns of A, at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import lcm

from .errors import NotFullRank, ShapeError
from .fields import FpElement, PrimeField

__all__ = ["Matrix", "MinorSelection", "select_nonzero_maximal_minor"]

# a rank over Q is proved modulo it first: the largest prime below 2**30,
# so a residue is one CPython digit and the kernel's products of two
# residues divide by a one-digit divisor; a denominator divisible by it
# sends the rank straight to the exact kernel
_P = 2**30 - 35

# the kernel looks for a cheaper pivot on the least-held column only at a
# step whose shortest row would cost more entry updates than this.  The
# search costs more than it saves on small steps: replaying the kernel
# calls of one pass of the benchmark's basis-checks and oracle calls,
# searching at every step took 24% longer than this gate on the small
# sparse systems, where a step averages one update, and 4% longer on the
# dense ones; a gate of 16 took 0.5% and 1.2% longer.  At 64 no step of
# the sparse systems searches, while the large stages of dense ones do
_GATE = 64


def _permutation_sign(order: list) -> int:
    """Sign of the permutation that sorts the distinct values ``order``."""
    perm = sorted(range(len(order)), key=order.__getitem__)
    sign = 1
    for k in range(len(perm)):
        while perm[k] != k:
            j = perm[k]
            perm[k], perm[j] = perm[j], j
            sign = -sign
    return sign


def _pivot(rows: list, p=None, m=None, stop=False) -> tuple:
    """The free-pivot kernel: forward elimination, in place, of dict rows
    of residues mod the prime p, or of integers if p is None.

    A step on a row of length n, at a column that h remaining rows hold,
    updates (n - 1) * (h - 1) entries, its Markowitz product.  Each step
    weighs the shortest remaining row at its least-held column by that
    product; when it exceeds _GATE, the step also weighs the least-held
    column at its shortest holder, and pivots there if that product is
    smaller.  Rows wait in lists by length and, from the first step past
    _GATE, columns in lists by count; each is listed again after each step
    that may change it, and a listing that no longer matches is skipped.
    On more rows than the columns they hold only the shortest row is
    weighed, and so with ``m`` set (by ``solve``, on [A | B] with m the
    columns of A), where it takes a column >= m only when it holds none
    below.  A pivot row is dropped once it has been applied: its slot in
    ``rows`` becomes {}, and its dict is left as it was at its step, so a
    caller that kept ``list(rows)`` holds every pivot row.  Over Z the
    update is Bareiss's, by lazy levels.  Returns the indices
    of the pivot rows and the pivot columns in step order, and the minor
    on them in that order: the product of the pivots mod p, the last pivot
    over Z.  With ``stop`` set it returns the steps taken so far as soon
    as a row is or becomes empty: that row alone proves the rows
    dependent, all that a caller asking whether every row pivots needs to
    know (on a square input, whether it is non-singular).
    """
    count = {}  # column -> the number of remaining rows holding it
    holders = {}  # column -> the rows that have held it, since-cleared ones too
    for i, row in enumerate(rows):
        for j in row:
            count[j] = count.get(j, 0) + 1
            holders.setdefault(j, []).append(i)
    # rows by length, each listed again after each update: an entry whose
    # length is no longer its row's is stale
    buckets = {}
    for i, row in enumerate(rows):
        if row:
            buckets.setdefault(len(row), []).append(i)
        elif stop:
            return [], [], 1
    lengths = list(buckets)  # a heap of the keys of buckets
    heapify(lengths)
    # the least-held column is weighed only at a step past _GATE, and never
    # for solve or on more rows than the columns they hold, whose surplus
    # rows must all cancel and where it cost more updates than it saved.
    # No column has more holders than there are rows, so a row no longer
    # than short cannot pass _GATE; no row is longer than len(count)
    if m is None and 1 < len(rows) <= len(count):
        short = 1 + _GATE // (len(rows) - 1)
    else:
        short = len(count)
    # columns by count, built at the first step past _GATE; from then on
    # the columns of each pivot row, the only ones its step can change, are
    # listed again after it: an entry whose count is no longer its
    # column's is stale
    held = None
    level = [0] * len(rows)  # over Z: the pivot steps each row was brought up to
    prev = [1]  # over Z, prev[k]: the pivot of step k
    order, cols, factor = [], [], 1
    fewest = count.__getitem__ if m is None else lambda j: (j >= m, count[j])
    while count:
        n = lengths[0]
        bucket = buckets[n]
        i = bucket.pop()
        if not bucket:
            del buckets[n]
            heappop(lengths)
        pivot = rows[i]
        if n != len(pivot):
            continue
        c = min(pivot, key=fewest)
        # cost: the entries this step would update
        if n > short and (cost := (n - 1) * (count[c] - 1)) > _GATE:
            if held is None:
                held = {}
                for j, t in count.items():
                    held.setdefault(t, []).append(j)
                tallies = list(held)  # a heap of the keys of held
                heapify(tallies)
            while True:
                t = tallies[0]
                listed = held[t]
                j = listed[-1]
                if count.get(j) == t:
                    break
                listed.pop()
                if not listed:
                    del held[t]
                    heappop(tallies)
            # the least-held column j, at its shortest live holder h, the
            # latest listed of those, as the shortest row is of its length
            h = min((h for h in reversed(holders[j]) if j in rows[h]), key=lambda h: len(rows[h]))
            if (len(rows[h]) - 1) * (t - 1) < cost:
                # the shortest row waits for a later step
                if n in buckets:
                    buckets[n].append(i)
                else:
                    buckets[n] = [i]
                    heappush(lengths, n)
                i, c, pivot = h, j, rows[h]
        k = len(cols)
        if p is None and level[i] < k:
            # the steps this row skipped only scaled it, each entry exactly
            d = prev[level[i]]
            for j, y in pivot.items():
                pivot[j] = y * prev[k] // d
        order.append(i)
        cols.append(c)
        rows[i] = {}  # dropped: its entries in the buckets are all stale now
        del count[c]
        tail = [(j, y) for j, y in pivot.items() if j != c]
        for j, _ in tail:
            count[j] -= 1
        pv = pivot[c]
        if p:
            factor = factor * pv % p
            inv = pow(pv, -1, p)
        else:
            prev.append(pv)
        for h in holders.pop(c):
            r = rows[h]
            f = r.pop(c, None)
            if f is None:  # cleared since, or listed twice
                continue
            if p:
                f = f * inv % p
                for j, y in tail:
                    v = r.get(j)
                    if v is None:
                        # a fill-in: f * y is non-zero mod the prime p
                        r[j] = -f * y % p
                        count[j] += 1
                        holders[j].append(h)
                    elif v := (v - f * y) % p:
                        r[j] = v
                    else:
                        del r[j]
                        count[j] -= 1
            else:
                # Bareiss from the holder's level: each new entry is a minor
                # of the matrix, so // divides exactly and never gives zero
                for j in r:
                    r[j] *= pv
                for j, y in tail:
                    v = r.get(j)
                    if v is None:
                        r[j] = -f * y
                        count[j] += 1
                        holders[j].append(h)
                    elif v := v - f * y:
                        r[j] = v
                    else:
                        del r[j]
                        count[j] -= 1
                d = prev[level[h]]
                if d != 1:
                    for j in r:
                        r[j] //= d
                level[h] = k + 1
            if r:
                n = len(r)
                if n in buckets:
                    buckets[n].append(h)
                else:
                    buckets[n] = [h]
                    heappush(lengths, n)
            elif stop:
                return order, cols, factor if p else prev[-1]
        for j, _ in tail:
            if not count[j]:
                del count[j], holders[j]
        if held is not None:
            for j, _ in tail:
                if t := count.get(j):
                    if t in held:
                        held[t].append(j)
                    else:
                        held[t] = [j]
                        heappush(tallies, t)
    return order, cols, factor if p else prev[-1]


def _integral(rows, keep=None) -> tuple:
    """Rational dict rows, each cleared to integers by its own common
    denominator, and the product of those denominators.  With ``keep``
    the copies hold only the entries in those columns."""
    scale, work = 1, []
    for row in rows:
        # folded, not lcm(*...): short argument tuples would pile up in the
        # interpreter's tuple free lists until a full collection
        den = reduce(lcm, (e.denominator for e in row.values()), 1)
        scale *= den
        work.append({j: e.numerator * (den // e.denominator)
                     for j, e in row.items() if keep is None or j in keep})
    return work, scale


def _residues(field, rows):
    """Copies of dict rows of field elements mod the prime of the rank
    test: their values mod p, or, over Q, the rows mod _P, entry by entry,
    or None if a denominator is a multiple of _P.  Each rational row is its
    integral row from ``_integral`` times the inverse of its denominator, a
    unit mod _P: the rank mod _P is the same."""
    if isinstance(field, PrimeField):
        return [{j: e.val for j, e in row.items()} for row in rows]
    out = []
    for row in rows:
        res = {}
        for j, e in row.items():
            d = e.denominator
            if d == 1:
                r = e.numerator % _P
            elif d % _P:
                r = e.numerator * pow(d, -1, _P) % _P
            else:
                return None
            if r:
                res[j] = r
        out.append(res)
    return out


def _exact(field, rows, keep=None) -> tuple:
    """Copies of dict rows of field elements for the kernel, of their
    entries in the columns ``keep`` if it is given: residues mod p, or
    integers by ``_integral`` over Q; the product of the cleared
    denominators (1 mod p), and the prime, None over Q."""
    if isinstance(field, PrimeField):
        work = [{j: e.val for j, e in row.items() if keep is None or j in keep} for row in rows]
        return work, 1, field.p
    return (*_integral(rows, keep), None)


def _minor(field, rows, keep=None) -> MinorSelection | None:
    """The free-pivot kernel on a copy of dict rows of field elements, of
    their columns in ``keep`` if it is given, stopped at the first row that
    cancels: the selection of its pivot columns, sorted, and the minor on
    every row and those columns, or None when the rows are dependent."""
    work, scale, p = _exact(field, rows, keep)
    order, cols, factor = _pivot(work, p, stop=True)
    if len(order) < len(rows):
        return None
    # the kernel's minor has its rows and columns in step order
    sign = _permutation_sign(order) * _permutation_sign(cols)
    value = FpElement(sign * factor % p, p) if p else Fraction(sign * factor, scale)
    return MinorSelection(tuple(sorted(cols)), value)


class Matrix:
    """Immutable sparse matrix: ``rows[i]`` is a dict {column: value} of
    the non-zero entries of row i.  List rows, as matrices are written by
    hand, are stored without their zeros.  Dict rows, as the library's
    builders make them, are stored as given, without a copy: they hold
    non-zero values only, in columns 0..ncols-1, and need ``ncols``.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        if ncols is None:
            rows = list(rows)
            if not rows or isinstance(rows[0], dict):
                raise ShapeError("matrix needs an explicit column count")
            ncols = len(rows[0])
        stored = []
        for r in rows:
            if not isinstance(r, dict):
                if len(r) != ncols:
                    raise ShapeError("row length disagrees with the column count")
                r = {j: e for j, e in enumerate(r) if e}
            stored.append(r)
        self.field = field
        self.nrows = len(stored)
        self.ncols = ncols
        self.rows = stored

    # -- basics -------------------------------------------------------
    def __getitem__(self, key):
        i, j = key
        return self.rows[i].get(range(self.ncols)[j], self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def is_zero(self) -> bool:
        return not any(self.rows)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        col_idx = list(col_idx)
        new = {}  # old column -> its new columns, repeats included
        for k, j in enumerate(col_idx):
            new.setdefault(range(self.ncols)[j], []).append(k)
        rows = [{k: e for j, e in self.rows[i].items() for k in new.get(j, ())} for i in row_idx]
        return Matrix(self.field, rows, ncols=len(col_idx))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError("inner dimensions disagree")
        z = self.field.zero
        out = []
        for row in self.rows:
            acc = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc.get(j, z) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return Matrix(self.field, out, ncols=other.ncols)

    # -- exact linear algebra ------------------------------------------
    def det(self):
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a non-square matrix")
        sel = _minor(self.field, self.rows)
        return self.field.zero if sel is None else sel.minor_value

    def rank(self, rows=None) -> int:
        """The rank, by the free-pivot kernel.  Over Q it is taken mod P
        first; a rank mod P short of min(nrows, ncols), or a denominator
        divisible by P, is re-done exactly, by the same kernel over Z.

        Given ``rows``, as many row indices as there are columns and fewer
        than all rows, the kernel first runs on a copy of those rows alone,
        mod p or mod P, and stops at the first row that cancels.  If every
        row pivots, the columns are spanned and the rank is ncols: a full
        rank mod P is the rank over Q, as above.  Otherwise, and for
        ``rows`` of another length, the rank is that of the whole matrix,
        as without them; a short count mod P on the chosen rows is never
        re-done over Z.
        """
        prime = isinstance(self.field, PrimeField)
        p = self.field.p if prime else _P
        if rows is not None and len(rows) == self.ncols < self.nrows:
            square = _residues(self.field, [self.rows[i] for i in rows])
            if square is not None and len(_pivot(square, p, stop=True)[1]) == self.ncols:
                return self.ncols
        residues = _residues(self.field, self.rows)
        if residues is not None:
            rank = len(_pivot(residues, p)[1])
            if prime or rank == min(self.nrows, self.ncols):
                return rank
        return len(_pivot(_integral(self.rows)[0])[1])

    def solve(self, rhs: "Matrix"):
        """A particular solution X of self @ X = rhs, or None if inconsistent.

        The free-pivot kernel eliminates [self | rhs]; the rows of X that
        are not pivot columns, the free variables, are zero, so the rows
        of X that hold entries index linearly independent columns of self.
        """
        if rhs.nrows != self.nrows:
            raise ShapeError("right-hand side has the wrong number of rows")
        m, k = self.ncols, rhs.ncols
        aug = [{**a, **{m + j: e for j, e in b.items()}} for a, b in zip(self.rows, rhs.rows)]
        work, _, p = _exact(self.field, aug)
        pivots = list(work)  # the kernel leaves each pivot row here as it was at its step
        order, cols, last = _pivot(work, p, m)
        if any(c >= m for c in cols):
            return None
        # over Z, d * X is integral for d the last pivot (Cramer's rule on
        # the pivot rows), so the back-substitution divides exactly
        d = 1 if p else last
        x = {}  # pivot column -> its dict row of X (times d over Z)
        for i, c in zip(reversed(order), reversed(cols)):
            row, acc = pivots[i], {}
            for j, f in row.items():
                if j >= m:
                    acc[j - m] = acc.get(j - m, 0) + d * f
                else:
                    for l, y in x.get(j, {}).items():
                        acc[l] = acc.get(l, 0) - f * y
            if p:
                inv = pow(row[c], -1, p)
                x[c] = {l: v for l, a in acc.items() if (v := a * inv % p)}
            else:
                x[c] = {l: a // row[c] for l, a in acc.items() if a}
        if p:
            rows = [{l: FpElement(v, p) for l, v in x.get(c, {}).items()} for c in range(m)]
        else:
            rows = [{l: Fraction(v, d) for l, v in x.get(c, {}).items()} for c in range(m)]
        return Matrix(self.field, rows, ncols=k)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"


@dataclass(frozen=True)
class MinorSelection:
    """A non-zero maximal minor of a map with full row rank: its sorted
    column indices (the rows are all of them) and its determinant."""

    col_indices: tuple
    minor_value: object


def select_nonzero_maximal_minor(m: Matrix, cols=None) -> MinorSelection:
    """A non-zero maximal minor of a map that is onto (full row rank).

    Given ``cols``, as many columns as ``m`` has rows and fewer than its
    columns, it is the minor on every row and those columns if that is
    non-zero: the kernel runs once, on a copy of the rows restricted to
    them.  Otherwise, and on a square matrix or a ``cols`` of another
    length, it is every row and the pivot columns of the free-pivot kernel
    on the whole matrix, a choice that is deterministic but not
    lexicographic: it follows the sparsity of the matrix rather than the
    order of its columns.  Each run stops at the first row that cancels;
    on rows that are independent none does.  Raises NotFullRank, which
    counts no rows, when the rows are dependent.
    """
    if cols is not None and len(cols) == m.nrows < m.ncols:
        sel = _minor(m.field, m.rows, set(cols))
        if sel is not None:
            return sel
    sel = _minor(m.field, m.rows)
    if sel is None:
        raise NotFullRank("no non-zero maximal minor: the rows are dependent")
    return sel
