"""Multivariate subresultants as determinants of modified Koszul complexes.

For a homogeneous system and a degree-t monomial set S the subresultant is
the determinant of the modified Koszul complex when the cardinality of S
matches the complete-intersection Hilbert value at t and the specialized
complex is exact; in every other case its value is 0 by convention.  It is
computed by ``detcomplex.koszul_det``, the signed descending determinant
that also gives the resultant, so its sign does not depend on the chosen
minors.
"""
from __future__ import annotations

from .detcomplex import koszul_det
from .errors import ShapeError
from .hilbert import required_cardinality
from .polynomials import MonomialSet, PolySystem
from .resultants import resultant_macaulay

__all__ = [
    "required_cardinality",
    "subresultant_delta",
    "subresultant_D",
    "delta_shift_check",
]


def subresultant_delta(sys: PolySystem, t: int, S):
    """Delta^t_S for n homogeneous polynomials in n+1 variables x0..xn."""
    if sys.nvars != sys.n + 1:
        raise ShapeError("expected a homogenized system (n polys, n+1 variables)")
    return koszul_det(sys, t, S)


def subresultant_D(leading_forms: PolySystem, t: int, S):
    """D^t_S for n homogeneous forms in the n affine variables x1..xn."""
    if leading_forms.nvars != leading_forms.n:
        raise ShapeError("expected n forms in n variables")
    return koszul_det(leading_forms, t, S)


def delta_shift_check(sys: PolySystem, M: MonomialSet, t: int):
    """Both sides of the degree-shift identity at level t >= delta(M).

    Returns (Delta^t_{M_t}, Delta^delta_{M_delta} * Res^(t - delta)); the
    caller compares them up to sign.
    """
    delta = M.delta
    if t < delta:
        raise ShapeError(f"need t >= delta(M) = {delta}")
    hom = sys.homogenized()
    lhs = subresultant_delta(hom, t, M.homogenized_at(t))
    res = resultant_macaulay(sys.leading_forms())
    rhs = subresultant_delta(hom, delta, M.homogenized_at(delta)) * res ** (t - delta)
    return lhs, rhs
