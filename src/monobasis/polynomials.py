"""Monomials, sparse multivariate polynomials and polynomial systems.

A monomial is a plain tuple of non-negative exponents; a polynomial is a
map from monomials to non-zero field elements.  All deterministic
enumerations use one fixed monomial order: graded, and within a degree the
earlier variable with the higher exponent comes first (see
:func:`mono_key`).
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

from .errors import DegreeError, InputError, ShapeError

Monomial = tuple


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_key(m: Monomial):
    """Sort key of the fixed monomial order used for every matrix layout."""
    return (sum(m), tuple(-e for e in m))


def monomials_of_degree(nvars: int, d: int) -> list:
    """All monomials of total degree d in nvars variables, in ``mono_key``
    order, which the recursion below yields as it goes.

    Every caller eliminates a matrix with one row or column per monomial
    and about as many the other way (a Macaulay or Koszul matrix), whose
    fill-in can reach N * N entries; so a count N with N * N > sys.maxsize,
    more than any 64-bit address space holds, is refused before listing.
    """
    if d < 0:
        return []
    if nvars < 1:
        raise InputError("need at least one variable")
    if math.comb(d + nvars - 1, nvars - 1) ** 2 > sys.maxsize:
        raise InputError(
            f"too many monomials of degree {d} in {nvars} variables to eliminate"
        )

    def gen(rest, deg):
        if rest == 1:
            yield (deg,)
            return
        for e in range(deg, -1, -1):
            for tail in gen(rest - 1, deg - e):
                yield (e,) + tail

    return list(gen(nvars, d))


class MultiPoly:
    """Sparse polynomial over an exact field; immutable by convention."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        clean = {}
        for m, c in terms.items():
            if len(m) != nvars:
                raise ShapeError(f"monomial {m} does not have {nvars} exponents")
            if any(e < 0 for e in m):
                raise InputError(f"negative exponent in monomial {m}")
            if c:
                clean[tuple(m)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def _valid(cls, field, nvars: int, terms: dict) -> "MultiPoly":
        """A polynomial on ``terms`` as given, unchecked: for terms that
        are valid by construction, nvars-tuples of non-negative exponents
        with non-zero coefficients."""
        p = cls.__new__(cls)
        p.field = field
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, field, nvars: int) -> "MultiPoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars: int, value) -> "MultiPoly":
        return cls(field, nvars, {(0,) * nvars: field.of(value)})

    @classmethod
    def monomial(cls, field, mono: Monomial, coeff=None) -> "MultiPoly":
        c = field.one if coeff is None else field.of(coeff)
        return cls(field, len(mono), {tuple(mono): c})

    @classmethod
    def variable(cls, field, nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise InputError(f"variable index {i} out of range")
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {m: field.one})

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars or self.field != other.field:
            raise ShapeError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, self.field.zero) + c
        return MultiPoly(self.field, self.nvars, out)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.field, self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    prod = c1 * c2
                    if m in out:
                        out[m] = out[m] + prod
                    else:
                        out[m] = prod
            return MultiPoly(self.field, self.nvars, out)
        c = self.field.of(other)
        return MultiPoly(self.field, self.nvars, {m: v * c for m, v in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative polynomial power")
        out = MultiPoly.constant(self.field, self.nvars, 1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    # -- structure ----------------------------------------------------
    @property
    def degree(self):
        """Total degree; -inf for the zero polynomial, by convention."""
        if not self.terms:
            return -math.inf
        return max(sum(m) for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous_of(self, d: int) -> bool:
        return all(sum(m) == d for m in self.terms)

    def homogeneous_component(self, d: int) -> "MultiPoly":
        return MultiPoly._valid(
            self.field, self.nvars, {m: c for m, c in self.terms.items() if sum(m) == d}
        )

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), self.field.zero)

    def support(self) -> list:
        return sorted(self.terms, key=mono_key)

    def partial(self, i: int) -> "MultiPoly":
        out = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            dm = m[:i] + (m[i] - 1,) + m[i + 1 :]
            out[dm] = out.get(dm, self.field.zero) + c * m[i]
        return MultiPoly(self.field, self.nvars, out)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ShapeError(f"expected {self.nvars} coordinates, got {len(point)}")
        pt = [self.field.of(x) for x in point]
        total = self.field.zero
        for m, c in self.terms.items():
            v = c
            for x, e in zip(pt, m):
                if e:
                    v = v * x**e
            total = total + v
        return total

    def substitute(self, replacements) -> "MultiPoly":
        """Substitute replacements[i] for variable i (composition)."""
        if len(replacements) != self.nvars:
            raise ShapeError("one replacement per variable required")
        amb = replacements[0].nvars
        out = MultiPoly.zero(self.field, amb)
        for m, c in self.terms.items():
            term = MultiPoly.constant(self.field, amb, c)
            for r, e in zip(replacements, m):
                if e:
                    term = term * r**e
            out = out + term
        return out

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in self.support():
            c = self.terms[m]
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e > 0
            ]
            coeff = self.field.format(c)
            if factors and coeff == "1":
                parts.append("*".join(factors))
            elif factors:
                parts.append(coeff + "*" + "*".join(factors))
            else:
                parts.append(coeff)
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"


def homogenize(p: MultiPoly, declared_degree: int) -> MultiPoly:
    """Lift p to a homogeneous polynomial of the declared degree.

    A new variable x0 is prepended; each term x^a picks up the factor
    x0^(declared_degree - deg a).  The zero polynomial homogenizes to zero.
    """
    if p.is_zero():
        return MultiPoly.zero(p.field, p.nvars + 1)
    if declared_degree < p.degree:
        raise DegreeError(
            f"declared degree {declared_degree} below actual degree {p.degree}"
        )
    out = {(declared_degree - sum(m),) + m: c for m, c in p.terms.items()}
    return MultiPoly._valid(p.field, p.nvars + 1, out)


@dataclass(frozen=True)
class PolySystem:
    """A list of polynomials with declared degrees (deg f_i <= d_i)."""

    polys: tuple
    degrees: tuple

    def __init__(self, polys, degrees):
        polys = tuple(polys)
        degrees = tuple(int(d) for d in degrees)
        if not polys or len(polys) != len(degrees):
            raise ShapeError("need one declared degree per polynomial")
        if any(d < 1 for d in degrees):
            raise InputError("declared degrees must be positive")
        f0 = polys[0]
        for f, d in zip(polys, degrees):
            if f.nvars != f0.nvars or f.field != f0.field:
                raise ShapeError("all polynomials must share ring and field")
            if f.degree > d:
                raise DegreeError(f"polynomial of degree {f.degree} declared as {d}")
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return len(self.polys)

    @property
    def nvars(self) -> int:
        return self.polys[0].nvars

    @property
    def field(self):
        return self.polys[0].field

    def leading_forms(self) -> "PolySystem":
        """The system of top-degree homogeneous components f_{i d_i}."""
        return PolySystem(
            [f.homogeneous_component(d) for f, d in zip(self.polys, self.degrees)],
            self.degrees,
        )

    def homogenized(self) -> "PolySystem":
        """Each polynomial lifted to its declared degree with the variable x0."""
        return PolySystem(
            [homogenize(f, d) for f, d in zip(self.polys, self.degrees)], self.degrees
        )


@dataclass(frozen=True)
class MonomialSet:
    """A candidate set of monomials in the affine variables x1..xn."""

    monomials: tuple

    def __init__(self, monomials):
        monos = tuple(tuple(m) for m in monomials)
        if not monos:
            raise InputError("empty monomial set")
        if len(set(monos)) != len(monos):
            raise InputError("duplicate monomials in set")
        nv = len(monos[0])
        if any(len(m) != nv for m in monos):
            raise ShapeError("monomials with differing variable counts")
        if any(e < 0 for m in monos for e in m):
            raise InputError("negative exponent")
        object.__setattr__(self, "monomials", tuple(sorted(monos, key=mono_key)))

    @property
    def nvars(self) -> int:
        return len(self.monomials[0])

    @property
    def delta(self) -> int:
        """Maximum total degree over the set."""
        return max(sum(m) for m in self.monomials)

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __contains__(self, m):
        return tuple(m) in self.monomials

    def degree_slice(self, t: int) -> tuple:
        return tuple(m for m in self.monomials if sum(m) == t)

    def homogenized_at(self, t: int) -> list:
        """The set {m * x0^(t - deg m)} of degree-t monomials in x0..xn."""
        if t < self.delta:
            raise DegreeError(f"homogenization level {t} below delta={self.delta}")
        return [(t - sum(m),) + m for m in self.monomials]


def m0_set(degrees) -> MonomialSet:
    """Macaulay's set: all x^a with 0 <= a_i <= d_i - 1."""
    ranges = [range(d) for d in degrees]
    return MonomialSet([tuple(a) for a in itertools.product(*ranges)])
