"""Macaulay matrices, the homogeneous resultant and the classical
subresultants of two binary forms.

The resultant of n forms f_1..f_n in n variables is the determinant of
their Koszul complex in degree rho + 1 = d_1 + ... + d_n - n + 1, which is
exact exactly when Res != 0 (Chardin, "The resultant via a Koszul
complex", 1993; Gelfand-Kapranov-Zelevinsky 1994, ch. 3 and app. A).  It
is ``detcomplex.koszul_det`` at (rho + 1, S = {}), the same signed
descending determinant that gives every subresultant, normalized so that
Res(x_1^{d_1}, ..., x_n^{d_n}) = 1.  The classical subresultants R_k of
two binary forms are such subresultants too.
"""
from __future__ import annotations

import functools

from .detcomplex import koszul_det
from .errors import InputError, ShapeError
from .fields import GF
from .koszul import koszul_map, koszul_term
from .linalg import Matrix
from .polynomials import MultiPoly, PolySystem

__all__ = [
    "classical_subresultants",
    "macaulay_matrix",
    "resultant_macaulay",
]


def macaulay_matrix(sys: PolySystem, target) -> Matrix:
    """Matrix of (p_1, ..., p_n) -> sum p_i f_i onto the given columns.

    The target is a list of (monomial, ()) pairs of one degree t, as
    ``koszul_term(sys, t, 0, S)`` lists the degree-t monomials outside S.
    Row (i, b), for every multiplier x^b with deg b = t - d_i, holds the
    coefficients of x^b f_i on the target; coefficients outside it are
    dropped.  So the row space is the degree-t piece of the ideal, cut to
    the target.  It is the first Koszul map onto that target.
    """
    # an empty target has no degree and gets no rows
    t = sum(target[0][0]) if target else 0
    return koszul_map(sys, koszul_term(sys, t, 1), target)


@functools.lru_cache(maxsize=64)
def _diagonal_sign(degrees: tuple) -> int:
    """The signed Koszul determinant of x_1^{d_1}, ..., x_n^{d_n}: +-1.

    Computed over F_3, where +1 != -1 and the arithmetic is cheapest.
    """
    field = GF(3)
    n = len(degrees)
    forms = PolySystem(
        [
            MultiPoly.monomial(field, tuple(d if j == i else 0 for j in range(n)))
            for i, d in enumerate(degrees)
        ],
        degrees,
    )
    return 1 if koszul_det(forms, sum(degrees) - n + 1, ()) == field.one else -1


def resultant_macaulay(forms: PolySystem):
    """Res of n homogeneous forms in n variables, Res(x_i^{d_i}) = 1.

    The signed determinant of the forms' Koszul complex in degree
    rho + 1, divided by that of x_1^{d_1}, ..., x_n^{d_n} (which is +-1);
    zero exactly when the complex is not exact.  A form that is not
    homogeneous of its declared degree is an InputError of ``build_complex``.
    """
    if forms.nvars != forms.n:
        raise ShapeError("need as many variables as forms")
    value = koszul_det(forms, sum(forms.degrees) - forms.n + 1, ())
    return value if _diagonal_sign(forms.degrees) == 1 else -value


def _check_binary(f: MultiPoly, d: int) -> None:
    """Raise unless f is a binary form of degree d (or zero)."""
    if f.nvars != 2:
        raise ShapeError("expected a binary form")
    if f.terms and not f.is_homogeneous_of(d):
        raise InputError("binary input must be homogeneous of the declared degree")


def classical_subresultants(f: MultiPoly, g: MultiPoly, d1: int, d2: int) -> dict:
    """{k: R_k} for k = 1..d1-1 of two binary forms of degrees d1 <= d2.

    R_k is the subresultant D^t_{S_k} of (f, g) at t = d1 + d2 - k - 1,
    with S_k the k degree-t monomials of lowest x1-degree.  That Koszul
    complex has one map, (p, q) -> p f + q g onto the monomials outside
    S_k, and its matrix is the Sylvester matrix cut to its leading
    d1 + d2 - 2k columns: so D^t_{S_k} is the classical principal
    subresultant, sign included.
    """
    if not 1 <= d1 <= d2:
        raise InputError("need 1 <= d1 <= d2")
    _check_binary(f, d1)
    _check_binary(g, d2)
    forms = PolySystem([f, g], (d1, d2))
    values = {}
    for k in range(1, d1):
        t = d1 + d2 - k - 1
        values[k] = koszul_det(forms, t, [(e, t - e) for e in range(k)])
    return values
