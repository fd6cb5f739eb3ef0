"""The modified degree-t Koszul complex with explicit monomial bases.

For homogeneous polynomials P_1..P_s of degrees d_1..d_s in v variables
and a monomial set S of degree t, the complex is

    0 -> (^s R^s)_t -> ... -> (^1 R^s)_t -> <monomials of degree t> / <S> -> 0

with basis elements x^a e_{i_1} ^ ... ^ e_{i_k}.  The differential sends
such an element to sum_j (-1)^(j+1) x^a P_{i_j} (e with the j-th factor
omitted); the last map additionally drops the coefficients of monomials
in S.  The sign convention is fixed here once and for all; it only moves
the determinant of the complex by a global sign.

Every map is stored in Macaulay's layout, one row per source element
holding its image on the target elements (``koszul_map``), so the first
map is Macaulay's matrix of the P_i on the degree-t monomials outside S.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError
from .linalg import Matrix
from .polynomials import PolySystem, mono_mul, monomials_of_degree

__all__ = ["BasisElement", "GradedComplex", "build_complex", "koszul_map"]


class BasisElement(NamedTuple):
    """x^monomial e_{i_1} ^ ... ^ e_{i_k}, wedge indices 1-based and increasing."""

    monomial: tuple
    wedge: tuple

    def __repr__(self):
        if not self.wedge:
            return f"x^{self.monomial}"
        wedge = "^".join(f"e{i}" for i in self.wedge)
        return f"x^{self.monomial} {wedge}"


@dataclass(frozen=True)
class GradedComplex:
    """Terms (index k = 0..s) and differentials (index k = 1..s) of C_t^s."""

    s: int
    t: int
    nvars: int
    term_bases: tuple  # term_bases[k] = tuple of BasisElement
    differentials: tuple  # [k-1]: term k -> k-1, rows on term k, columns on k-1
    field: object

    def dims(self) -> list:
        return [len(b) for b in self.term_bases]


def koszul_map(sys: PolySystem, source, target) -> Matrix:
    """The map between two sequences of (monomial, wedge) pairs: row r is
    the image of source[r].  Image terms of wedge () outside ``target`` are
    dropped (the last map's projection); any other miss is a bug."""
    zero = sys.field.zero
    index = {}  # wedge -> monomial -> column
    for j, (m, wedge) in enumerate(target):
        index.setdefault(wedge, {})[m] = j
    rows = []
    for a, wedge in source:
        row = [zero] * len(target)
        for j, i in enumerate(wedge):
            rest = wedge[:j] + wedge[j + 1 :]
            cols = index.get(rest) or {}
            negate = j % 2 == 1
            for mono, coeff in sys.polys[i - 1].terms.items():
                col = cols.get(mono_mul(a, mono))
                # each (row, col) is hit once: distinct j give distinct
                # wedges, distinct terms distinct monomials
                if col is not None:
                    row[col] = -coeff if negate else coeff
                elif rest:
                    raise AssertionError("differential target missing")
        rows.append(row)
    return Matrix(sys.field, rows, ncols=len(target))


def build_complex(sys: PolySystem, t: int, S) -> GradedComplex:
    """Build C_t^s for a homogeneous system and a degree-t monomial set S."""
    v = sys.nvars
    s = sys.n
    degrees = sys.degrees
    for f, d in zip(sys.polys, degrees):
        if not f.is_homogeneous_of(d):
            raise InputError(f"polynomial {f!r} is not homogeneous of degree {d}")

    S = [tuple(m) for m in S]
    if len(set(S)) != len(S):
        raise InputError("duplicate monomials in S")
    for m in S:
        if len(m) != v or any(e < 0 for e in m) or sum(m) != t:
            raise InputError(f"{m} is not a degree-{t} monomial in {v} variables")

    s_set = set(S)
    b0 = tuple(
        BasisElement(m, ()) for m in monomials_of_degree(v, t) if m not in s_set
    )
    bases = [b0]
    for k in range(1, s + 1):
        bk = []
        for wedge in itertools.combinations(range(1, s + 1), k):
            deg = t - sum(degrees[i - 1] for i in wedge)
            for m in monomials_of_degree(v, deg):
                bk.append(BasisElement(m, wedge))
        bases.append(tuple(bk))
    diffs = tuple(koszul_map(sys, bases[k], bases[k - 1]) for k in range(1, s + 1))

    return GradedComplex(
        s=s,
        t=t,
        nvars=v,
        term_bases=tuple(bases),
        differentials=diffs,
        field=sys.field,
    )
