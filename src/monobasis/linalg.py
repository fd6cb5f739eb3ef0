"""Exact matrices over Q or F_p, on one free-pivot elimination kernel.

A matrix stores what the kernel eats, from the Koszul builder through to
the kernel: row i is a dict {column: int} of its non-zero entries,
residues in [1, p) over F_p, and over Q integers over one positive
denominator per row, ``dens[i]``, which need not be the least.  Field
elements appear only at the edges: a matrix written with them is
converted when it is made, and an entry or a minor is read back as one.
Each kernel call eliminates one copy of the rows, and over Q divides its
minor by the product of their denominators.

Rank, determinant, the stage minors of both decompositions and ``solve``
all run on ``_pivot``.  Mod p a minor is the product of the pivots.  Over
Z the update is Bareiss's fraction-free one (Math. Comp. 1968), applied
lazily: a row skips the steps whose column it does not hold and keeps its
level, the number of steps it was last brought up to.  At step k a holder
r of level j becomes (pv * r - r[c] * pivot) // prev[j], prev[j] the
pivot of step j, and a pivot row of a lower level is first scaled up to
level k.  So every entry is a minor dense Bareiss would hold, every
division is exact, and the last pivot is the minor of the matrix.

A step on pivot row r and column c updates (len(r) - 1) entries in each
of the (holders(c) - 1) other rows holding c, its Markowitz product
(Markowitz 1957).  The kernel weighs two candidates and takes the
cheaper, the first on a tie (Zlatev, SIAM J. Numer. Anal. 17, 1980): the
shortest remaining row at its least-held column, and the least-held
column at its shortest holder.  The first alone fills in far less than
the column order on Macaulay and Koszul matrices, but it is blind where
every row of one f_i has the same length, and the second finds the cheap
steps there.  A step searches for the second only when the first would
update more than _GATE entries; ``solve`` and matrices with more rows
than the columns they hold keep the first alone.  So a chosen maximal
minor (``select_nonzero_maximal_minor``) follows the sparsity of the
matrix, not the order of its columns, and is signed by the row and the
column permutation of its steps; the determinant of an exact complex
does not depend on which minors its stages take.

Given a square choice of columns, as the descending decomposition gives
each wide Koszul stage, the selector first runs the kernel on the rows
restricted to them, and on the whole matrix only when that minor
vanishes.  Every selection and determinant stops at the first row that
cancels, which alone proves the rows dependent, so a singular stage
costs only the pivots up to it.

Given a square choice of rows G_R, as the rank oracle gives each tall
Macaulay matrix G, the rank is r0 + rank(G' K): r0 the rank of G_R, K a
basis of its kernel, one vector per column that is not a pivot column,
and G' the other rows.  The kernel of G is that of G_R cut by that of
G', {K c : G' K c = 0}, so the rule holds over any field and with
repeated rows.  The kernel eliminates G_R in full, its pivot rows are
back-substituted for K as ``solve`` back-substitutes them, and the
kernel ranks the small product G' K: the whole of G is never eliminated.

A rank over Q is first taken mod the prime P = 2**30 - 35, the largest
below 2**30, so that a residue is one CPython digit.  Where P divides no
denominator, the integer rows mod P are the rational rows mod P times
units, and the rank of an integer matrix mod P is at most its rank over
Q, itself at most min(nrows, ncols): so a full rank mod P is the rank
over Q.  Any other count, and a denominator divisible by P, is re-done
over Z.  Given a square choice of rows, only those rows are ranked mod
P, stopping at the first row that cancels; short of full, the rule
above runs over Z on the stored integer rows, K scaled by the last pivot
of G_R so that every division is exact.

``solve`` runs the kernel on the rows of [A | B], over Q each brought to
one denominator.  A pivot row takes a column of B only when it holds no
column of A, and then it reads 0 = b with b non-zero: the system is
inconsistent.  Otherwise the pivot rows, triangular in step order, are
back-substituted with the free variables, the other columns of A, zero
(``_back_substitute``, which also gives the rank rule its K).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import lcm, prod

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
    of residues mod the prime p, or of integers if p is None, by the pivot
    rules and the lazy Bareiss levels of the module docstring.

    Rows wait in lists by length and, from the first step past _GATE,
    columns in lists by count; each is listed again after each step that
    may change it, and a stale listing is skipped.  With ``m`` set (by
    ``solve``, on [A | B] with m the columns of A) a row takes a column
    >= m only when it holds none below.  A pivot row, once applied, leaves
    its slot in ``rows`` as {} and its dict as it was at its step, so a
    caller that kept ``list(rows)`` holds every pivot row.  Returns the
    pivot rows and columns in step order and the minor on them in that
    order: the product of the pivots mod p, the last pivot over Z.  With
    ``stop`` set it returns the steps so far as soon as a row is or
    becomes empty, which alone proves the rows dependent.
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


def _copy(rows, dens=None, keep=None) -> tuple:
    """Copies of stored rows for the kernel, of their entries in the columns
    ``keep`` if it is given, and the product of their denominators ``dens``."""
    if keep is None:
        work = [dict(row) for row in rows]
    else:
        work = [{j: v for j, v in row.items() if j in keep} for row in rows]
    return work, prod(dens) if dens else 1


def _mod_P(rows, dens):
    """Stored rational rows mod _P, or None if _P divides a denominator:
    each is then the rational row mod _P times a unit, of the same rank."""
    if not all(d % _P for d in dens):
        return None
    return [{j: r for j, v in row.items() if (r := v % _P)} for row in rows]


def _prime(field):
    """The prime of F_p, None for Q."""
    return field.p if isinstance(field, PrimeField) else None


def _minor(m, keep=None) -> MinorSelection | None:
    """The free-pivot kernel on a copy of the rows of the Matrix m, of
    their columns in ``keep`` if it is given, stopped at the first row that
    cancels: the selection of its pivot columns, sorted, and the minor on
    every row and those columns, or None when the rows are dependent."""
    (work, scale), p = _copy(m.rows, m.dens, keep), _prime(m.field)
    order, cols, factor = _pivot(work, p, stop=True)
    if len(order) < m.nrows:
        return None
    # the kernel's minor has its rows and columns in step order
    sign = _permutation_sign(order) * _permutation_sign(cols)
    value = FpElement(sign * factor, p) if p else Fraction(sign * factor, scale)
    return MinorSelection(tuple(sorted(cols)), value)


def _back_substitute(pivots, order, cols, x, p) -> None:
    """Back-substitutes the pivot rows of a ``_pivot`` run, triangular in
    step order: ``x`` maps the other columns the rows hold to dict vectors
    (a column it lacks reads zero), and gains, for each pivot column c,
    the vector x[c] that makes each pivot row times x zero.  Over Z each
    division is exact when the given vectors are multiples of the last
    pivot (Cramer's rule on the pivot rows)."""
    for i, c in zip(reversed(order), reversed(cols)):
        row, acc = pivots[i], {}
        for j, f in row.items():
            for l, y in x.get(j, {}).items():
                acc[l] = acc.get(l, 0) - f * y
        if p:
            inv = pow(row[c], -1, p)
            x[c] = {l: v for l, a in acc.items() if (v := a * inv % p)}
        else:
            x[c] = {l: a // row[c] for l, a in acc.items() if a}


def _rank_on(picked, other, ncols, p) -> int:
    """The rank of the dict rows ``picked`` and ``other`` together, mod p or
    over Z, by the rule r0 + rank(G' K) of the module docstring: r0 and K
    from ``picked``, G' the rows ``other``.  Over Z, K is scaled by the
    last pivot."""
    work = _copy(picked)[0]
    pivots = list(work)  # the kernel leaves each pivot row here as it was at its step
    order, cols, last = _pivot(work, p)
    if len(cols) == ncols:
        return ncols
    d = 1 if p else abs(last)
    pivotal = set(cols)
    x = {f: {f: d} for f in range(ncols) if f not in pivotal}
    _back_substitute(pivots, order, cols, x, p)
    product = []
    for row in other:
        acc = {}
        for j, v in row.items():
            for l, y in x[j].items():
                acc[l] = acc.get(l, 0) + v * y
        product.append({l: r for l, a in acc.items() if (r := a % p if p else a)})
    return len(cols) + len(_pivot(product, p)[1])


class Matrix:
    """Immutable sparse matrix in the kernel's form: ``rows[i]`` is a dict
    {column: int} of the non-zero entries of row i, residues in [1, p)
    over F_p; over Q row i is ``rows[i]`` over ``dens[i]``, a positive int
    (``dens`` is None over F_p).  Rows of field elements, lists or dicts of
    the non-zero entries (which need ``ncols``), are converted here.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "dens")

    def __init__(self, field, rows, ncols=None):
        if ncols is None:
            rows = list(rows)
            if not rows or isinstance(rows[0], dict):
                raise ShapeError("matrix needs an explicit column count")
            ncols = len(rows[0])
        p = _prime(field)
        stored, dens = [], None if p else []
        for r in rows:
            if not isinstance(r, dict):
                if len(r) != ncols:
                    raise ShapeError("row length disagrees with the column count")
                r = dict(enumerate(r))
            if p:
                stored.append({j: v for j, e in r.items() if (v := field.of(e).val)})
            else:
                r = {j: q for j, e in r.items() if (q := field.of(e))}
                # folded: lcm(*...)'s argument tuples would pile up in free lists
                dens.append(den := reduce(lcm, (q.denominator for q in r.values()), 1))
                stored.append({j: q.numerator * (den // q.denominator) for j, q in r.items()})
        self.field, self.nrows, self.ncols = field, len(stored), ncols
        self.rows, self.dens = stored, dens

    @classmethod
    def _valid(cls, field, rows, ncols, dens=None) -> "Matrix":
        """A matrix on rows in the stored form, ``dens`` over Q, uncopied."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.rows, m.dens = field, len(rows), ncols, rows, dens
        return m

    # -- basics -------------------------------------------------------
    def __getitem__(self, key):
        i, j = key
        v = self.rows[i].get(range(self.ncols)[j], 0)
        return FpElement(v, self.field.p) if self.dens is None else Fraction(v, self.dens[i])

    def __eq__(self, other):
        # a stored denominator need not be the least: compare the values
        return (isinstance(other, Matrix) and self.field == other.field
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and all({j: v * e for j, v in a.items()} == {j: v * d for j, v in b.items()}
                        for a, d, b, e in zip(self.rows, self.dens or repeat(1),
                                              other.rows, other.dens or repeat(1))))

    def is_zero(self) -> bool:
        return not any(self.rows)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        new = {}  # old column -> its new columns, repeats included
        for k, j in enumerate(col_idx):
            new.setdefault(range(self.ncols)[j], []).append(k)
        rows = [{k: v for j, v in self.rows[i].items() for k in new.get(j, ())} for i in row_idx]
        dens = None if self.dens is None else [self.dens[i] for i in row_idx]
        return Matrix._valid(self.field, rows, len(col_idx), dens)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError("inner dimensions disagree")
        p = _prime(self.field)
        out, dens, scales = [], None if p else [], other.dens or [1] * other.nrows
        for i, row in enumerate(self.rows):
            # over Q a row's products are brought to the least common
            # denominator of the rows of other that it takes
            den = reduce(lcm, (scales[k] for k in row), 1)
            acc = {}
            for k, a in row.items():
                a *= den // scales[k]
                for j, b in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: r for j, v in acc.items() if (r := v % p if p else v)})
            if not p:
                dens.append(self.dens[i] * den)
        return Matrix._valid(self.field, out, other.ncols, dens)

    # -- exact linear algebra ------------------------------------------
    def det(self):
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a non-square matrix")
        sel = _minor(self)
        return self.field.zero if sel is None else sel.minor_value

    def rank(self, rows=None) -> int:
        """The rank, by the free-pivot kernel, over Q first mod P.  Given
        ``rows``, as many row indices as there are columns and fewer than
        all rows, it is r0 + rank(G' K): r0 the rank of those rows, K a
        basis of their kernel and G' the other rows (``_rank_on``).  Over
        Q those rows are first ranked mod P, stopping at the first row
        that cancels: if every row pivots the rank is ncols, and otherwise
        the rule runs over Z.
        """
        p = _prime(self.field)
        if rows is None or not len(rows) == self.ncols < self.nrows:
            work = _copy(self.rows)[0] if p else _mod_P(self.rows, self.dens)
            if work is not None:
                rank = len(_pivot(work, p or _P)[1])
                if p or rank == min(self.nrows, self.ncols):
                    return rank
            return len(_pivot(_copy(self.rows)[0])[1])
        picked, chosen = [self.rows[i] for i in rows], set(rows)
        other = [row for i, row in enumerate(self.rows) if i not in chosen]
        if not p:
            square = _mod_P(picked, [self.dens[i] for i in rows])
            if square is not None and len(_pivot(square, _P, stop=True)[1]) == self.ncols:
                return self.ncols
        return _rank_on(picked, other, self.ncols, p)

    def solve(self, rhs: "Matrix"):
        """A particular solution X of self @ X = rhs, or None if inconsistent.

        The free-pivot kernel eliminates [self | rhs]; the rows of X that
        are not pivot columns, the free variables, are zero, so the rows
        of X that hold entries index linearly independent columns of self.
        """
        if rhs.nrows != self.nrows:
            raise ShapeError("right-hand side has the wrong number of rows")
        m, k = self.ncols, rhs.ncols
        p = _prime(self.field)
        # fresh rows, which the kernel eliminates in place; over Q each row
        # of [self | rhs] is brought to one denominator
        aug = []
        for a, b, da, db in zip(self.rows, rhs.rows, self.dens or repeat(1), rhs.dens or repeat(1)):
            den = lcm(da, db)
            aug.append({**{j: v * (den // da) for j, v in a.items()},
                        **{m + j: v * (den // db) for j, v in b.items()}})
        pivots = list(aug)  # the kernel leaves each pivot row here as it was at its step
        order, cols, last = _pivot(aug, p, m)
        if any(c >= m for c in cols):
            return None
        # over Z, d * X is integral for d the last pivot (Cramer's rule on
        # the pivot rows), so the back-substitution divides exactly; the
        # columns of rhs read -d, so that [self | rhs] takes [X; -I] to 0
        d = 1 if p else abs(last)
        x = {m + l: {l: -d} for l in range(k)}
        _back_substitute(pivots, order, cols, x, p)
        rows = [x.get(c, {}) for c in range(m)]
        return Matrix._valid(self.field, rows, k, None if p else [d] * m)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"


def _restricted(m: Matrix, rows) -> Matrix:
    """The rows ``rows`` of m, sharing their dicts."""
    dens = None if m.dens is None else [m.dens[i] for i in rows]
    return Matrix._valid(m.field, [m.rows[i] for i in rows], m.ncols, dens)


def _transposed(m: Matrix, cols) -> Matrix:
    """The columns ``cols`` of m as rows, over Q each over the least common
    multiple of m's row denominators."""
    den = reduce(lcm, m.dens or (), 1)
    rows = m.rows if den == 1 else [{j: v * (den // e) for j, v in row.items()}
                                    for row, e in zip(m.rows, m.dens)]
    transposed = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in cols]
    return Matrix._valid(m.field, transposed, m.nrows, None if m.dens is None else [den] * len(cols))


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
    non-zero.  Otherwise it is every row and the pivot columns of the
    free-pivot kernel on the whole matrix: deterministic, but following
    the sparsity of the matrix rather than the order of its columns.
    Raises NotFullRank, which counts no rows, when the rows are dependent.
    """
    if cols is not None and len(cols) == m.nrows < m.ncols:
        sel = _minor(m, set(cols))
        if sel is not None:
            return sel
    sel = _minor(m)
    if sel is None:
        raise NotFullRank("no non-zero maximal minor: the rows are dependent")
    return sel
