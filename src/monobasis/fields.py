"""Exact coefficient fields: rationals and prime fields F_p.

Rational arithmetic rides on :class:`fractions.Fraction`; prime-field
elements are immutable residues in ``[0, p)`` with operator overloads, so
polynomial and matrix code is written once against ordinary ``+ - * /``.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InputError

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10**24 (covers 2**62),
# also the primes tried by division first.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# str() never raises below this: the lowest int-string limit that the
# interpreter accepts is 640 digits
_SHORT = 10**600


def _decimal(n: int) -> str:
    """The decimal digits of any int.  str() raises past the interpreter's
    int-string limit (sys.get_int_max_str_digits), which a library must
    not change for its whole process, so long ints are split in halves."""
    if n < 0:
        return "-" + _decimal(-n)
    if n < _SHORT:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _fraction(text: str, name: str) -> Fraction:
    """The rational a string spells, as Fraction reads it; InputError, as
    for any other value that has no element of the field, when it spells
    none or a zero denominator."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot coerce {text!r} into {name}") from None


class FpElement:
    """Residue modulo an odd prime p, canonical representative in [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise InputError("mixed prime fields F_%d and F_%d" % (self.p, other.p))
            return other.val
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.val, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(v * pow(self.val, -1, self.p), self.p)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0 and self.val == 0:
            raise ZeroDivisionError("negative power of zero in F_%d" % self.p)
        return FpElement(pow(self.val, e, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.val))

    def __repr__(self):
        return f"{self.val} (mod {self.p})"


class PrimeField:
    """The field F_p for an odd prime p < 2**62."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or p >= 2**62 or not is_prime(p):
            raise InputError(f"modulus must be an odd prime below 2**62, got {p!r}")
        self.p = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    @property
    def name(self) -> str:
        return f"F_{self.p}"

    def of(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise InputError("element of the wrong prime field")
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise InputError(f"denominator not invertible modulo {self.p}")
            return FpElement(value.numerator, self.p) / (value.denominator % self.p)
        if isinstance(value, str):
            return self.of(_fraction(value, self.name))
        raise InputError(f"cannot coerce {value!r} into {self.name}")

    def format(self, value: FpElement) -> str:
        return str(self.of(value).val)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """The rationals with arbitrary-precision integer arithmetic."""

    zero = Fraction(0)
    one = Fraction(1)
    name = "Q"

    def of(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return _fraction(value, self.name)
        raise InputError(f"cannot coerce {value!r} into Q")

    def format(self, value: Fraction) -> str:
        q = self.of(value)
        text = _decimal(q.numerator)
        return text if q.denominator == 1 else f"{text}/{_decimal(q.denominator)}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_spec(spec: str):
    """Parse a field spec: ``q`` for the rationals, ``fp:<p>`` for F_p."""
    s = spec.strip().lower()
    if s == "q":
        return QQ
    if s.startswith("fp:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise InputError(f"bad prime in field spec {spec!r}") from None
        return PrimeField(p)
    raise InputError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<p>')")
