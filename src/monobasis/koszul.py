"""The modified degree-t Koszul complex with explicit monomial bases.

For homogeneous polynomials P_1..P_s of degrees d_1..d_s in v variables
and a monomial set S of degree t, the complex is

    0 -> (^s R^s)_t -> ... -> (^1 R^s)_t -> <monomials of degree t> / <S> -> 0

with basis elements x^a e_{i_1} ^ ... ^ e_{i_k}.  The differential sends
such an element to sum_j (-1)^(j+1) x^a P_{i_j} (e with the j-th factor
omitted); the last map additionally drops the coefficients of monomials
in S.  The sign convention is fixed here once and for all; it only moves
the determinant of the complex by a global sign.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .linalg import Matrix
from .polynomials import PolySystem, mono_mul, monomials_of_degree

__all__ = ["BasisElement", "GradedComplex", "build_complex"]


@dataclass(frozen=True)
class BasisElement:
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
    differentials: tuple  # differentials[k-1]: Matrix from term k to term k-1
    field: object

    def dims(self) -> list:
        return [len(b) for b in self.term_bases]


def build_complex(sys: PolySystem, t: int, S) -> GradedComplex:
    """Build C_t^s for a homogeneous system and a degree-t monomial set S."""
    v = sys.nvars
    s = sys.n
    field = sys.field
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

    diffs = []
    for k in range(1, s + 1):
        source = bases[k]
        target = bases[k - 1]
        index = {(be.monomial, be.wedge): i for i, be in enumerate(target)}
        grid = [[field.zero] * len(source) for _ in range(len(target))]
        for col, be in enumerate(source):
            for j, ij in enumerate(be.wedge):
                rest = be.wedge[:j] + be.wedge[j + 1 :]
                negate = j % 2 == 1
                for mono, coeff in sys.polys[ij - 1].terms.items():
                    key = (mono_mul(be.monomial, mono), rest)
                    row = index.get(key)
                    if row is None:
                        # only the last map projects; elsewhere a miss is a bug
                        if k != 1:
                            raise AssertionError("differential target missing")
                        continue
                    # each (row, col) is hit once: distinct j give distinct
                    # wedges, distinct terms distinct monomials
                    grid[row][col] = -coeff if negate else coeff
        diffs.append(Matrix(field, grid, ncols=len(source)))

    return GradedComplex(
        s=s,
        t=t,
        nvars=v,
        term_bases=tuple(bases),
        differentials=tuple(diffs),
        field=field,
    )
