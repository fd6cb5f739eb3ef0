"""Multivariate subresultants as determinants of modified Koszul complexes.

For a homogeneous system and a degree-t monomial set S the subresultant is
the determinant of the modified Koszul complex when the cardinality of S
matches the complete-intersection Hilbert value at t and the specialized
complex is exact; in every other case its value is 0 by convention.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotExact, ShapeError
from .detcomplex import det_complex_ascending
from .hilbert import series_coefficients
from .koszul import build_complex
from .polynomials import MonomialSet, PolySystem
from .resultants import resultant_macaulay

__all__ = [
    "SubresultantValue",
    "required_cardinality",
    "subresultant_delta",
    "subresultant_D",
    "delta_shift_check",
]


@dataclass(frozen=True)
class SubresultantValue:
    """value != 0 implies the complex was exact (exactness_flag True)."""

    value: object
    t: int
    monomials: tuple
    exactness_flag: bool


def required_cardinality(degrees, nvars: int, t: int) -> int:
    """#S needed for the degree-t complex in ``nvars`` ambient variables."""
    if t < 0:
        return 0
    return series_coefficients(degrees, nvars, t)[t]


def _subresultant(sys: PolySystem, t: int, S) -> SubresultantValue:
    S = tuple(tuple(m) for m in S)
    field = sys.field
    if len(S) != required_cardinality(sys.degrees, sys.nvars, t):
        return SubresultantValue(field.zero, t, S, False)
    cx = build_complex(sys, t, S)
    try:
        value = det_complex_ascending(cx)
        return SubresultantValue(value, t, S, True)
    except NotExact:
        return SubresultantValue(field.zero, t, S, False)


def subresultant_delta(sys: PolySystem, t: int, S) -> SubresultantValue:
    """Delta^t_S for n homogeneous polynomials in n+1 variables x0..xn."""
    if sys.nvars != sys.n + 1:
        raise ShapeError("expected a homogenized system (n polys, n+1 variables)")
    return _subresultant(sys, t, S)


def subresultant_D(leading_forms: PolySystem, t: int, S) -> SubresultantValue:
    """D^t_S for n homogeneous forms in the n affine variables x1..xn."""
    if leading_forms.nvars != leading_forms.n:
        raise ShapeError("expected n forms in n variables")
    return _subresultant(leading_forms, t, S)


def delta_shift_check(sys: PolySystem, M: MonomialSet, t: int):
    """Both sides of the degree-shift identity at level t >= delta(M).

    Returns (Delta^t_{M_t}, Delta^delta_{M_delta} * Res^(t - delta)); the
    caller compares them up to sign.
    """
    delta = M.delta
    if t < delta:
        raise ShapeError(f"need t >= delta(M) = {delta}")
    hom = sys.homogenized()
    lhs = subresultant_delta(hom, t, M.homogenized_at(t)).value
    res = resultant_macaulay(sys.leading_forms())
    rhs = subresultant_delta(hom, delta, M.homogenized_at(delta)).value * res ** (
        t - delta
    )
    return lhs, rhs
