"""Test systems with explicitly enumerable root sets.

Systems of the form f_i = x_i^{d_i} - b_i^{d_i} have exactly
d_1 * ... * d_n simple common roots (a grid of scaled roots of unity) as
long as the field contains the needed roots of unity and the b_i are
non-zero.  A change of variables by an invertible matrix keeps the roots
computable while destroying the special monomial structure -- which makes
these systems good stress inputs for the certification identities.
"""
from __future__ import annotations

import itertools
import math
import sys

from .errors import InputError, ShapeError
from .fields import PrimeField, RationalField
from .linalg import Matrix
from .polynomials import MultiPoly, PolySystem

__all__ = [
    "linear_transform",
    "power_system",
    "roots_of_unity",
    "transform_roots",
]


def roots_of_unity(field, d: int) -> list:
    """All d-th roots of unity in the field, or InputError if fewer than d.

    Over F_p they are zeta^0, ..., zeta^(d-1), where zeta = a^((p-1)/d) for
    the smallest a = 2, 3, ... whose d powers are pairwise distinct, so that
    zeta has order exactly d.
    """
    if d < 1:
        raise InputError("order must be positive")
    if isinstance(field, RationalField):
        if d == 1:
            return [field.one]
        if d == 2:
            return [field.one, -field.one]
        raise InputError(f"Q has no primitive root of unity of order {d}")
    if isinstance(field, PrimeField):
        if (field.p - 1) % d != 0:
            raise InputError(f"F_{field.p} has no primitive root of unity of order {d}")
        for a in itertools.count(2):
            zeta = field.of(pow(a, (field.p - 1) // d, field.p))
            powers = [zeta**k for k in range(d)]
            if len(set(powers)) == d:
                return powers
    raise InputError("unsupported field")


def power_system(field, degrees, shifts) -> tuple:
    """(system, roots) for f_i = x_i^{d_i} - b_i^{d_i} with b_i = shifts[i].

    The roots are the full grid (b_1 zeta_1, ..., b_n zeta_n) over all
    choices of d_i-th roots of unity zeta_i; they are pairwise distinct
    and simple when every b_i is non-zero.
    """
    degrees = tuple(int(d) for d in degrees)
    n = len(degrees)
    # the roots become the rows of a square grid (see vandermonde_verify);
    # refuse a count no address space holds, as monomials_of_degree does
    bezout = math.prod(degrees)
    if bezout**2 > sys.maxsize:
        raise InputError(f"too many roots ({bezout}) for a dense grid")
    if len(shifts) != n:
        raise ShapeError("one shift per equation required")
    shifts = [field.of(b) for b in shifts]
    if any(not b for b in shifts):
        raise InputError("shifts must be non-zero to keep the roots simple")
    polys = []
    for i, (d, b) in enumerate(zip(degrees, shifts)):
        mono = tuple(d if j == i else 0 for j in range(n))
        polys.append(
            MultiPoly.monomial(field, mono)
            - MultiPoly.constant(field, n, b**d)
        )
    axis_roots = [
        [b * z for z in roots_of_unity(field, d)] for d, b in zip(degrees, shifts)
    ]
    roots = [tuple(pt) for pt in itertools.product(*axis_roots)]
    assert len(set(roots)) == bezout
    return PolySystem(polys, degrees), roots


def linear_transform(sys: PolySystem, L: Matrix) -> PolySystem:
    """Compose every equation with x -> L x (degrees are preserved)."""
    n = sys.nvars
    if L.nrows != n or L.ncols != n:
        raise ShapeError("change-of-variables matrix has the wrong shape")
    replacements = []
    for i in range(n):
        row = MultiPoly.zero(sys.field, n)
        for j in range(n):
            c = L[i, j]
            if c:
                mono = tuple(1 if k == j else 0 for k in range(n))
                row = row + MultiPoly.monomial(sys.field, mono, c)
        replacements.append(row)
    return PolySystem([f.substitute(replacements) for f in sys.polys], sys.degrees)


def transform_roots(roots, L: Matrix) -> list:
    """Roots of the composed system: y = L^{-1} x for each original root x."""
    n = L.nrows
    if L.ncols != n or any(len(pt) != n for pt in roots):
        raise ShapeError("need a square L and roots with one coordinate per column")
    if L.rank() < n:
        raise InputError("change of variables must be invertible")
    # one solve with the roots as right-hand-side columns
    y = L.solve(Matrix(L.field, [[pt[i] for pt in roots] for i in range(n)], ncols=len(roots)))
    return [tuple(y[i, j] for i in range(n)) for j in range(len(roots))]
