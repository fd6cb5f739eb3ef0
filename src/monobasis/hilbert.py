"""Hilbert functions of complete intersections in closed form.

Both H (quotient by a regular sequence in n+1 variables) and h (same in n
variables) are coefficients of prod(1 - T^{d_j}) / (1 - T)^v, with v the
ambient variable count.
"""
from __future__ import annotations

from math import comb, prod

from .errors import InputError
from .polynomials import _Frozen


class DegreeProfile(_Frozen):
    """The degree data (d_1, ..., d_n) with its derived quantities."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        degrees = tuple(int(d) for d in degrees)
        if not degrees or any(d < 1 for d in degrees):
            raise InputError("degrees must be a non-empty list of positive integers")
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def rho(self) -> int:
        """The critical degree sum(d_i) - n."""
        return sum(self.degrees) - self.n

    @property
    def bezout(self) -> int:
        """The generic root count d_1 * ... * d_n."""
        return prod(self.degrees)


def required_cardinality(degrees, nvars: int, t: int) -> int:
    """#S needed for the degree-t complex C_t(S) in ``nvars`` variables:
    sum_e c_e * C(t - e + nvars - 1, nvars - 1) for c_e the coefficients of
    prod(1 - T^{d_j}) up to T^t, kept sparse: at most min(2^n, t + 1) terms
    however large t and the d_j are."""
    if t < 0:
        return 0
    coeffs = {0: 1}
    for d in degrees:
        # each exponent e + d is updated once, from the old c_e
        for e, c in list(coeffs.items()):
            if e + d <= t:
                coeffs[e + d] = coeffs.get(e + d, 0) - c
    return sum(c * comb(t - e + nvars - 1, nvars - 1) for e, c in coeffs.items())


def hilbert_H(profile: DegreeProfile, tau: int) -> int:
    """dim of the degree-tau piece of the quotient in n+1 variables."""
    if tau < 0:
        raise InputError("tau must be non-negative")
    return required_cardinality(profile.degrees, profile.n + 1, tau)


def hilbert_h(profile: DegreeProfile, tau: int) -> int:
    """dim of the degree-tau piece of the quotient in n variables."""
    if tau < 0:
        raise InputError("tau must be non-negative")
    return required_cardinality(profile.degrees, profile.n, tau)
