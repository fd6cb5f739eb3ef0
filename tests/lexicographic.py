"""The tests' reference for the library's minors: the lexicographically
first non-zero maximal minor, by an elimination that takes the columns
left to right.

``eliminate`` pivots on the columns in order, so its pivot columns are
exactly the columns a left-to-right scan finds independent of those
before it.  The pivot of a column is the shortest remaining row that
holds it (the row rule of structured Gaussian elimination, LaMacchia and
Odlyzko 1990), which does not change the pivot columns; the minor carries
the sign of the row permutation.  Over Z the update is Bareiss's, by lazy
levels, as in the library's free-pivot kernel.  It shares no elimination
code with the library, only the sign of a permutation, and reads a
matrix entry by entry, as field elements, never its stored rows.

``sylvester_resultant`` is the reference for the resultant of two binary
forms: the determinant of their Sylvester matrix, which no Koszul complex
builds.  ``jacobian`` is the reference for the Jacobian determinant J: the
symbolic det(d f_i / d x_j), expanded by cofactors, where the library
takes each J(zeta) numerically.  ``evaluate`` is the reference for a
polynomial's value at a point, term by term in field elements, where the
library reads it from integer powers of the point over one denominator.
``dehomogenize`` and ``m1_set`` serve the tests alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from monobasis import InputError, Matrix, MonomialSet, MultiPoly, NotFullRank, ShapeError
from monobasis.fields import FpElement, PrimeField
from monobasis.linalg import MinorSelection, _permutation_sign
from monobasis.resultants import _check_binary


@dataclass(frozen=True)
class Echelon:
    """Row echelon form: pivots[k] is the pivot column of echelon row k,
    a dict of its non-zero entries, none left of its pivot."""

    pivots: list
    rows: list
    sign: int  # sign of the permutation taking the pivot rows into pivot order
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


def eliminate(rows: list, ncols: int, p=None, scale: int = 1) -> Echelon:
    """Forward elimination, in place, of dict rows of residues mod the
    prime p, or of integers (rational rows times ``scale``) if p is None."""
    # rows without a pivot, by their leftmost column: every column left of
    # the current one has been cleared from all of them; each waits with
    # its level, the number of pivot steps it was last brought up to
    waiting = {}
    for i, row in enumerate(rows):
        if row:
            waiting.setdefault(min(row), []).append((i, row, 0))
    pivots, echelon, order, prev = [], [], [], [1]  # prev[k]: pivot of step k
    for c in range(ncols):
        if not waiting:
            break
        holders = waiting.pop(c, None)
        if holders is None:
            continue
        i, pivot, level = min(holders, key=lambda h: len(h[1]))
        k = len(pivots)
        if p is None and level < k:
            # the steps this row skipped only scaled it, each entry exactly
            for j, y in pivot.items():
                pivot[j] = y * prev[k] // prev[level]
        pivots.append(c)
        echelon.append(pivot)
        order.append(i)
        pv = pivot[c]
        prev.append(pv)
        if len(holders) == 1:
            continue
        tail = [(j, y) for j, y in pivot.items() if j != c]
        inv = pow(pv, -1, p) if p else None
        for row_i, r, row_level in holders:
            if r is pivot:
                continue
            f = r.pop(c)
            if p:
                f = f * inv % p
                for j, y in tail:
                    # r[j] is absent only when the new value f * y is non-zero
                    v = (r.get(j, 0) - f * y) % p
                    if v:
                        r[j] = v
                    else:
                        del r[j]
            else:
                # Bareiss from the holder's level: each new entry is a minor
                # of the matrix, so // divides exactly and never gives zero
                for j in r:
                    r[j] *= pv
                for j, y in tail:
                    v = r.get(j, 0) - f * y
                    if v:
                        r[j] = v
                    else:
                        del r[j]
                d = prev[row_level]
                if d != 1:
                    for j in r:
                        r[j] //= d
            if r:
                waiting.setdefault(min(r), []).append((row_i, r, k + 1))
    return Echelon(pivots, echelon, _permutation_sign(order), scale, p)



def echelon(m) -> Echelon:
    """Forward elimination of the Matrix m, read entry by entry through
    m[i, j]: residues mod p, or over Q each row cleared to integers by the
    least common denominator of its entries."""
    entries = [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]
    if isinstance(m.field, PrimeField):
        rows = [{j: e.val for j, e in enumerate(r) if e} for r in entries]
        return eliminate(rows, m.ncols, m.field.p)
    rows, scale = [], 1
    for r in entries:
        den = lcm(*(e.denominator for e in r))
        scale *= den
        rows.append({j: e.numerator * (den // e.denominator) for j, e in enumerate(r) if e})
    return eliminate(rows, m.ncols, None, scale)


def lexicographic_minor(m) -> MinorSelection:
    """The lexicographically first non-zero maximal minor of a map that is
    onto (full row rank): every row and the pivot columns.  Raises
    NotFullRank when the rows are dependent."""
    ech = echelon(m)
    if len(ech.pivots) < m.nrows:
        raise NotFullRank(
            f"no non-zero maximal minor ({len(ech.pivots)} of {m.nrows} rows independent)"
        )
    return MinorSelection(tuple(ech.pivots), ech.minor())


def sylvester_resultant(f: MultiPoly, g: MultiPoly, d1: int, d2: int):
    """Determinant of the (d1+d2) x (d1+d2) Sylvester matrix of two binary
    forms: the tests' independent reference for ``resultant_macaulay``."""
    if d1 < 1 or d2 < 1:
        raise InputError("declared degrees must be at least 1")
    _check_binary(f, d1)
    _check_binary(g, d2)
    # rows x1^s f (s = d2-1..0), then x1^s g (s = d1-1..0); columns by the
    # exponent of x1, from d1+d2-1 down to 0
    zero = f.field.zero
    exps = range(d1 + d2 - 1, -1, -1)
    rows = [
        [p.coefficient((e - s, d - e + s)) if 0 <= e - s <= d else zero for e in exps]
        for p, d, copies in ((f, d1, d2), (g, d2, d1))
        for s in range(copies - 1, -1, -1)
    ]
    return Matrix(f.field, rows, ncols=d1 + d2).det()


def _poly_det(entries) -> MultiPoly:
    # cofactor expansion; the Jacobian matrices here are tiny
    n = len(entries)
    if n == 1:
        return entries[0][0]
    first = entries[0]
    result = MultiPoly.zero(first[0].field, first[0].nvars)
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        term = first[j] * _poly_det(minor)
        result = result + (term if j % 2 == 0 else -term)
    return result


def jacobian(sys) -> MultiPoly:
    """det(d f_i / d x_j) of a PolySystem, expanded as a polynomial."""
    if sys.nvars != sys.n:
        raise ShapeError("Jacobian requires as many polynomials as variables")
    rows = [[f.partial(j) for j in range(sys.nvars)] for f in sys.polys]
    return _poly_det(rows)


def evaluate(f: MultiPoly, point):
    """f at a point, each coordinate coerced into f's field."""
    if len(point) != f.nvars:
        raise ShapeError(f"expected {f.nvars} coordinates, got {len(point)}")
    pt = [f.field.of(x) for x in point]
    total = f.field.zero
    for m, c in f.terms.items():
        v = c
        for x, e in zip(pt, m):
            if e:
                v = v * x**e
        total = total + v
    return total


def dehomogenize(p: MultiPoly) -> MultiPoly:
    """Set the first variable to 1 and drop it."""
    if p.nvars < 2:
        raise ShapeError("need at least two variables to dehomogenize")
    out = {}
    zero = p.field.zero
    for m, c in p.terms.items():
        key = m[1:]
        out[key] = out.get(key, zero) + c
    return MultiPoly(p.field, p.nvars - 1, out)


def m1_set(d1: int, d2: int) -> MonomialSet:
    """The staircase set {x1^a1 x2^a2 : a1 < d1, a2 <= d1 + d2 - 2a1 - 2}."""
    monos = [
        (a1, a2)
        for a1 in range(d1)
        for a2 in range(d1 + d2 - 2 * a1 - 1)
    ]
    return MonomialSet(monos)
