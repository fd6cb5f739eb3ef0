"""Hilbert functions of complete intersections via truncated power series.

Both H (quotient by a regular sequence in n+1 variables) and h (same in n
variables) are coefficients of prod(1 - T^{d_j}) / (1 - T)^v, with v the
ambient variable count.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import InputError


@dataclass(frozen=True)
class DegreeProfile:
    """The degree data (d_1, ..., d_n) with its derived quantities."""

    degrees: tuple

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


def series_coefficients(degrees, denominator_vars: int, upto: int) -> list:
    """Coefficients 0..upto of prod(1 - T^{d_j}) / (1 - T)^denominator_vars."""
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for d in degrees:
        for k in range(upto, d - 1, -1):
            coeffs[k] -= coeffs[k - d]
    for _ in range(denominator_vars):
        for k in range(1, upto + 1):
            coeffs[k] += coeffs[k - 1]
    return coeffs


def required_cardinality(degrees, nvars: int, t: int) -> int:
    """#S needed for the degree-t complex C_t(S) in ``nvars`` variables."""
    if t < 0:
        return 0
    return series_coefficients(degrees, nvars, t)[t]


def hilbert_H(profile: DegreeProfile, tau: int) -> int:
    """dim of the degree-tau piece of the quotient in n+1 variables."""
    if tau < 0:
        raise InputError("tau must be non-negative")
    return series_coefficients(profile.degrees, profile.n + 1, tau)[tau]


def hilbert_h(profile: DegreeProfile, tau: int) -> int:
    """dim of the degree-tau piece of the quotient in n variables."""
    if tau < 0:
        raise InputError("tau must be non-negative")
    return series_coefficients(profile.degrees, profile.n, tau)[tau]
