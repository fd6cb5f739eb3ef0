import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from monobasis import GF, QQ, FpElement, InputError, field_from_spec, roots_of_unity
from monobasis.fields import is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 997}
    for k in range(2, 1000):
        assert is_prime(k) == (all(k % q for q in range(2, k)) if k > 2 else k == 2)
    assert all(is_prime(p) for p in primes)


def test_fp_arithmetic():
    F = GF(13)
    a, b = F.of(7), F.of(9)
    assert a + b == F.of(3)
    assert a * b == F.of(63)
    assert a - b == F.of(-2)
    assert (a / b) * b == a
    assert a ** (-1) * a == F.one
    assert F.of(0) ** 0 == F.one
    assert not F.zero
    assert bool(a)


def test_fp_pow_matches_repeated_multiplication():
    F = GF(101)
    x = F.of(17)
    acc = F.one
    for e in range(1, 12):
        acc = acc * x
        assert x**e == acc


@pytest.mark.parametrize("p", [3, 101, 2**62 - 57])
def test_fp_inverses_are_fermats(p):
    """Quotients, reciprocals and negative powers equal the values of
    Fermat's inverse pow(v, p - 2, p), and division by zero keeps its
    messages."""
    F = GF(p)
    rng = random.Random(p)
    for v in {1, p - 1} | {rng.randrange(1, p) for _ in range(20)}:
        a, b = F.of(v), F.of(rng.randrange(p))
        inv = pow(v, p - 2, p)
        assert (b / a).val == (b / v).val == b.val * inv % p
        assert (1 / a).val == (F.one / a).val == inv
        assert (7 / a).val == 7 * inv % p
        for e in (1, 2, 5):
            assert (a**-e).val == pow(inv, e, p)
    for zero in (F.zero, 0, p):
        with pytest.raises(ZeroDivisionError, match=f"^division by zero in F_{p}$"):
            F.one / zero
    with pytest.raises(ZeroDivisionError, match=f"^division by zero in F_{p}$"):
        1 / F.zero
    with pytest.raises(ZeroDivisionError, match=f"^negative power of zero in F_{p}$"):
        F.zero**-1


def test_fp_mixed_primes_rejected():
    with pytest.raises(InputError):
        GF(7).of(1) + GF(11).of(1)


def test_fp_coercion_and_format():
    F = GF(13)
    assert F.of(Fraction(1, 2)) == F.of(7)  # 2*7 = 14 = 1 mod 13
    assert F.of("1/2") == F.of(7)
    assert F.format(F.of(-1)) == "12"
    assert str(F.of(-1)) == "12 (mod 13)"


def test_rationals():
    assert QQ.of("2/4") == Fraction(1, 2)
    assert QQ.format(Fraction(-6, 4)) == "-3/2"
    assert QQ.zero == 0 and QQ.one == 1


def test_rationals_of_any_length_format_exactly():
    """str() of an int past the int-string limit raises; format does not,
    and it leaves the limit alone."""
    limit = sys.get_int_max_str_digits()
    rng = random.Random(7)
    for digits in (1, 599, 600, 601, 4301, 12000):
        num = rng.randrange(10 ** (digits - 1), 10**digits)
        den = rng.randrange(2, 10**rng.randrange(1, 3000))
        for value in (Fraction(num), Fraction(-num, den)):
            want = str(Decimal(value.numerator))
            if value.denominator != 1:
                want += "/" + str(Decimal(value.denominator))
            assert QQ.format(value) == want
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["F101", "Q"])
def test_malformed_strings_have_no_element(field):
    """A string that spells no rational, or one over zero, raises
    InputError like every other value the field cannot take."""
    for text in ("abc", "", "1/", "1/0", "0/0", "2.5.1", "x1"):
        with pytest.raises(InputError, match=f"^cannot coerce '.*' into {field.name}$"):
            field.of(text)
    assert field.of(" -3/6 ") == field.of(Fraction(-1, 2))
    assert field.of("1.25") == field.of(Fraction(5, 4))


def test_field_from_spec():
    assert field_from_spec("q") is QQ
    assert field_from_spec("fp:13").p == 13
    with pytest.raises(InputError):
        field_from_spec("fp:12")
    with pytest.raises(InputError):
        field_from_spec("gf9")


def test_int_coercion_in_operators():
    F = GF(13)
    assert F.of(5) + 9 == F.of(1)
    assert 9 + F.of(5) == F.of(1)
    assert 2 * F.of(7) == F.of(1)
    assert isinstance(F.of(3) / 2, FpElement)


def has_order(w, d, p):
    """w has multiplicative order exactly d, decided by the prime factors of d."""
    primes = [q for q in range(2, d + 1) if d % q == 0 and is_prime(q)]
    return pow(w, d, p) == 1 and all(pow(w, d // q, p) != 1 for q in primes)


def test_roots_of_unity_over_small_primes():
    for p in filter(is_prime, range(3, 200)):
        F = GF(p)
        for d in (d for d in range(1, 13) if (p - 1) % d == 0):
            roots = roots_of_unity(F, d)
            assert len(roots) == d and len(set(roots)) == d, (p, d)
            assert roots[0] == F.one and all(x**d == F.one for x in roots), (p, d)
            if d > 1:
                a = next(a for a in range(2, p) if has_order(pow(a, (p - 1) // d, p), d, p))
                assert roots[1] == F.of(pow(a, (p - 1) // d, p)), (p, d)
    # a = 2 gives zeta = 2^2 = 4 of order 3, although 3 is the smallest generator of F_7^x
    assert roots_of_unity(GF(7), 3) == [GF(7).of(1), GF(7).of(4), GF(7).of(2)]
    with pytest.raises(InputError):
        roots_of_unity(GF(11), 3)
