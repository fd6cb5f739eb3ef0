"""The modified degree-t Koszul complex with explicit monomial bases.

For homogeneous polynomials P_1..P_s of degrees d_1..d_s in v variables
and a monomial set S of degree t, the complex is

    0 -> (^s R^s)_t -> ... -> (^1 R^s)_t -> <monomials of degree t> / <S> -> 0

with basis elements x^a e_{i_1} ^ ... ^ e_{i_k}.  The differential sends
such an element to sum_j (-1)^(j+1) x^a P_{i_j} (e with the j-th factor
omitted); the last map additionally drops the coefficients of monomials
in S.  The sign convention is fixed here once and for all; it only moves
the determinant of the complex by a global sign.

``koszul_term`` lists each term as (monomial, wedge) pairs, and every
differential, the Macaulay matrix included, is ``koszul_map`` between two
such lists, in Macaulay's layout: one row per source element holding its
image on the target elements, as a dict of its non-zero entries.  So the
first map is Macaulay's matrix of the P_i on the degree-t monomials
outside S.

The lists hold tuple monomials, but the maps multiply on int codes: in a
radix b above every exponent of a source monomial times a term of some
P_i, x^a has the code sum_k a_k b^k + (deg a) b^v.  Then x^a x^c has the
code code(a) + code(c), so each entry costs one int addition and one dict
read instead of building and hashing a product tuple.  The top digit, the
total degree, keeps a target monomial with an exponent of b or more from
sharing a code with a product, so the matrix is the same entry for entry.
``build_complex`` takes one radix for the whole of C_t, b = t + 1, since
every product in C_t has degree at most t; so it codes each term once,
for the map it is the source of and the map it is the target of, and
makes each term of each P_i a (code, value, negated value) triple once.
``koszul_map``, which takes any source and target, picks its own radix.

The builders write the values that the elimination kernel eats (see
``linalg``): residues over F_p, and over Q the coefficients of P_i times
D_i, the least common denominator of P_i's, in a row on the wedge I over
lcm(D_i : i in I), 1 for an integral system, where the triples of P_i
are scaled for I once per map when D_i is not that lcm.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple
from math import lcm

from .errors import InputError
from .linalg import Matrix, _prime
from .polynomials import MultiPoly, PolySystem, monomials_of_degree

__all__ = ["GradedComplex", "build_complex", "koszul_map", "koszul_term"]


class GradedComplex(namedtuple("GradedComplex", [
    "s", "t", "nvars",
    "term_bases",  # term_bases[k] = koszul_term(..., k, S) as a tuple
    "differentials",  # [k-1]: term k -> k-1, rows on term k, columns on k-1
    "field",
    # d_1..d_s, set by build_complex; () if the terms are not in
    # koszul_term's layout, and then no stage has Macaulay columns
    "degrees",
], defaults=((),))):
    """Terms (index k = 0..s) and differentials (index k = 1..s) of C_t^s."""

    __slots__ = ()

    def dims(self) -> list:
        return [len(b) for b in self.term_bases]

    def macaulay_columns(self, k: int):
        """Macaulay's columns of stage k >= 2 (Macaulay 1902; on the Koszul
        complex, Chardin 1993), or None: the elements x^a e_J of term k - 1
        with a_i >= d_i for some i < min J, a_i the exponent of the variable
        of P_i, the i-th of the last s variables (so never x0 of a
        homogenized system).

        When stage k + 1 took its own, the rows left to stage k are the
        x^a e_J with a_i < d_i for every i < min J, as many as these
        columns; on the pure powers x_i^{d_i} each such row meets just one
        of them, x^a x_m^{d_m} e_{J - m} with m = min J, so their minor is
        +-1 there and non-zero for generic forms.  Term k - 1 >= 1 does not
        hold S, so the list depends only on (nvars, degrees, t, k).
        """
        if k < 2 or len(self.degrees) != self.s or self.nvars < self.s:
            return None
        return _macaulay_columns(self.nvars, self.degrees, self.t, k)


@functools.lru_cache(maxsize=64)
def _macaulay_columns(nvars: int, degrees: tuple, t: int, k: int) -> tuple:
    # made once per shape: every system of the same degrees and t asks for
    # the same lists
    off = nvars - len(degrees)
    return tuple(
        j
        for j, (a, wedge) in enumerate(_wedge_term(nvars, degrees, t, k - 1))
        if any(a[off + i] >= degrees[i] for i in range(wedge[0] - 1))
    )


def koszul_term(sys: PolySystem, t: int, k: int, S=()) -> list:
    """Term k of C_t(S) as (monomial, wedge) pairs, in the layout of every
    matrix built from it: for k >= 1 each x^a e_I with |I| = k (wedges in
    lexicographic order, each with its monomials of degree t - sum d_I in
    ``mono_key`` order), for k = 0 the degree-t monomials outside S."""
    if k == 0:
        skip = set(S)
        return [(m, ()) for m in monomials_of_degree(sys.nvars, t) if m not in skip]
    return _wedge_term(sys.nvars, sys.degrees, t, k)


def _wedge_term(nvars: int, degrees: tuple, t: int, k: int) -> list:
    """Term k >= 1 of C_t(S) for forms of these degrees in nvars variables."""
    return [
        (m, wedge)
        for wedge in itertools.combinations(range(1, len(degrees) + 1), k)
        for m in monomials_of_degree(nvars, t - sum(degrees[i - 1] for i in wedge))
    ]


def koszul_map(sys: PolySystem, source, target) -> Matrix:
    """The map between two sequences of (monomial, wedge) pairs: row r is
    the image of source[r].  Image terms of wedge () outside ``target`` are
    dropped (the last map's projection); any other miss is a bug.

    Within one call the monomial x^m has the int code
    sum_k m_k b^k + (deg m) b^v, with v variables, so the code of a product
    of monomials is the sum of their codes.  The radix b exceeds every
    exponent of a source monomial times a term, so a product's digits are
    its exponents.  A target monomial may have larger ones, and still
    shares no code with a product (see below).  Each term of each f_i
    becomes a (code, value, negated value) triple once, in kernel form."""
    # A term of f_i has no exponent above d_i.  If a target x^y shares its
    # code with a product x^m, whose digits m_k are below b, then
    # sum_k y_k b^k = sum_k m_k b^k + q b^v with q = deg m - deg y, and
    # q >= 0 since the left side is not negative and sum_k m_k b^k < b^v.
    # Carrying y's digits to m's and q lowers deg y by a multiple of b - 1,
    # so deg y >= deg m + q; hence q = 0 and y = m.
    b = 1 + max(map(max, map(operator.itemgetter(0), source)), default=0) + max(sys.degrees)
    weights = _weights(b, sys.nvars)
    index = _index(target, _codes(target, weights))
    return _map(sys, source, _codes(source, weights), index, _coded_terms(sys, weights), len(target))


def _weights(b: int, v: int) -> list:
    """The code of x^m in radix b is the sum of m_k * weights[k]."""
    return [b**k + b**v for k in range(v)]


def _codes(term, weights) -> list:
    """The codes of the monomials of a term's (monomial, wedge) pairs."""
    mul = operator.mul
    return [sum(map(mul, m, weights)) for m, _ in term]


def _cleared(f: MultiPoly, p) -> tuple:
    """f as integers over one positive denominator den, the least common
    multiple of its coefficients' (over F_p residues and 1): its terms
    {m: a} with f = sum a x^m / den, and den."""
    if p:
        return {m: c.val for m, c in f.terms.items()}, 1
    den = functools.reduce(lcm, (c.denominator for c in f.terms.values()), 1)
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}, den


def _coded_terms(sys: PolySystem, weights) -> tuple:
    """Each f_i's terms as (code, value, negated value) triples, values in
    the kernel's form, and the D_i (``_cleared``): over F_p residues and 1,
    over Q the coefficients times D_i, the least common denominator of
    f_i's."""
    mul, p = operator.mul, _prime(sys.field)
    terms, dens = [], []
    for f in sys.polys:
        cleared, den = _cleared(f, p)
        terms.append([(sum(map(mul, m, weights)), v, (p or 0) - v) for m, v in cleared.items()])
        dens.append(den)
    return terms, dens


def _index(target, codes) -> dict:
    """wedge -> monomial code -> column, for the target's elements and codes."""
    index = {}
    for j, ((_, wedge), a) in enumerate(zip(target, codes)):
        index.setdefault(wedge, {})[a] = j
    return index


def _map(sys, source, codes, index, coded, ncols) -> Matrix:
    """A map of sys, row r the image of source[r], whose monomial has the
    code codes[r], on the ncols target elements that ``index`` lists;
    ``coded`` is ``_coded_terms``, all codes in one radix."""
    (terms, dens), p = coded, _prime(sys.field)
    plans = {}  # wedge -> its (columns, triples, sign, rest) per factor, and its denominator
    rows, row_dens = [], []
    for (_, wedge), a in zip(source, codes):
        if wedge not in plans:
            # a row on the wedge I has the denominator lcm(D_i : i in I),
            # and f_i at position j of I enters times (-1)^j
            den = functools.reduce(lcm, (dens[i - 1] for i in wedge), 1)
            parts = []
            for j, i in enumerate(wedge):
                triples, scale = terms[i - 1], den // dens[i - 1]
                if scale != 1:
                    triples = [(c, v * scale, -v * scale) for c, v, _ in triples]
                rest = wedge[:j] + wedge[j + 1 :]
                parts.append((index.get(rest) or {}, triples, j % 2, rest))
            plans[wedge] = parts, den
        parts, den = plans[wedge]
        row = {}
        for cols, triples, negate, rest in parts:
            for mono, v, neg in triples:
                col = cols.get(a + mono)
                # each (row, col) is hit once: distinct j give distinct
                # wedges, distinct terms distinct monomials
                if col is not None:
                    row[col] = neg if negate else v
                elif rest:
                    raise AssertionError("differential target missing")
        rows.append(row)
        row_dens.append(den)
    return Matrix._valid(sys.field, rows, ncols, None if p else row_dens)


def build_complex(sys: PolySystem, t: int, S) -> GradedComplex:
    """Build C_t^s for a homogeneous system and a degree-t monomial set S."""
    v = sys.nvars
    for f, d in zip(sys.polys, sys.degrees):
        if not f.is_homogeneous_of(d):
            raise InputError(f"polynomial {f!r} is not homogeneous of degree {d}")

    S = [tuple(m) for m in S]
    if len(set(S)) != len(S):
        raise InputError("duplicate monomials in S")
    for m in S:
        if len(m) != v or any(e < 0 for e in m) or sum(m) != t:
            raise InputError(f"{m} is not a degree-{t} monomial in {v} variables")

    bases = tuple(tuple(koszul_term(sys, t, k, S)) for k in range(sys.n + 1))
    # one radix for every map: each product in C_t has degree <= t, so its
    # exponents are below t + 1, and koszul_map's argument, on the degree
    # digit, still covers the targets
    weights = _weights(t + 1, v)
    codes = [_codes(basis, weights) for basis in bases]
    coded = _coded_terms(sys, weights)
    diffs = tuple(
        _map(sys, bases[k], codes[k], _index(bases[k - 1], codes[k - 1]), coded, len(bases[k - 1]))
        for k in range(1, sys.n + 1)
    )
    return GradedComplex(sys.n, t, v, bases, diffs, sys.field, sys.degrees)
