import math
import sys
from fractions import Fraction

import pytest

from monobasis import (
    GF,
    QQ,
    DegreeError,
    InputError,
    MonomialSet,
    MultiPoly,
    PolySystem,
    homogenize,
    m0_set,
    mono_key,
    monomials_of_degree,
)

from lexicographic import dehomogenize, jacobian

F13 = GF(13)


def P(terms, nvars=2, field=QQ):
    return MultiPoly(field, nvars, {m: field.of(c) for m, c in terms.items()})


def test_monomials_of_degree_count():
    # number of degree-d monomials in v variables is C(d+v-1, v-1)
    for v in range(1, 5):
        for d in range(6):
            monos = monomials_of_degree(v, d)
            assert len(monos) == math.comb(d + v - 1, v - 1)
            assert monos == sorted(monos, key=mono_key)


def test_monomials_of_degree_rejects_a_count_no_dense_matrix_can_hold():
    # C(d + 2, 2) ** 2 > sys.maxsize from d = 77935 on in three variables
    for d in (77935, 99999, 10**9, 99999999999):
        with pytest.raises(InputError):
            monomials_of_degree(3, d)
    # (d + 1) ** 2 > sys.maxsize from d = isqrt(sys.maxsize) on in two
    with pytest.raises(InputError):
        monomials_of_degree(2, math.isqrt(sys.maxsize))
    assert len(monomials_of_degree(1, 99999999999)) == 1


def test_mono_key_orders_by_degree_then_lex_on_first_variable():
    ms = sorted([(0, 2), (1, 1), (2, 0), (0, 0), (1, 0)], key=mono_key)
    assert ms == [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]


def test_arithmetic_ring_axioms():
    f = P({(1, 0): 2, (0, 1): -1})
    g = P({(1, 1): 1, (0, 0): 3})
    h = P({(2, 0): 1})
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == MultiPoly.zero(QQ, 2)
    assert (f**3) == f * f * f
    assert f * QQ.of(Fraction(1, 2)) == P({(1, 0): 1, (0, 1): Fraction(-1, 2)})


def test_degree_and_components():
    f = P({(2, 1): 1, (1, 0): 4, (0, 0): -7})
    assert f.degree == 3
    assert f.homogeneous_component(1) == P({(1, 0): 4})
    assert f.is_homogeneous_of(3) is False
    assert MultiPoly.zero(QQ, 2).degree == -math.inf


def test_partial_derivative():
    f = P({(3, 1): 2})
    assert f.partial(0) == P({(2, 1): 6})
    assert f.partial(1) == P({(3, 0): 2})


def test_evaluate():
    f = P({(2, 0): 1, (0, 1): 1}, field=F13)
    assert f.evaluate([3, 4]) == F13.of(0)  # 9 + 4 = 13


def test_homogenize_dehomogenize_roundtrip():
    f = P({(2, 0): 1, (0, 1): 3, (0, 0): -1})
    h = homogenize(f, 2)
    assert h.nvars == 3
    assert h.is_homogeneous_of(2)
    assert dehomogenize(h) == f
    # declared degree above the actual degree pads with extra x0 powers
    h3 = homogenize(f, 3)
    assert h3.is_homogeneous_of(3)
    with pytest.raises(DegreeError):
        homogenize(f, 1)


def test_substitute_composes():
    f = P({(2, 0): 1})
    x1 = MultiPoly.variable(QQ, 2, 0)
    x2 = MultiPoly.variable(QQ, 2, 1)
    assert f.substitute([x1 + x2, x2]) == P({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_to_string():
    f = P({(2, 1): 2, (0, 0): -1})
    assert f.to_string() == "-1 + 2*x1^2*x2"
    assert MultiPoly.zero(QQ, 2).to_string() == "0"


def test_system_validation():
    f = P({(3, 0): 1})
    with pytest.raises(DegreeError):
        PolySystem([f], (2,) )
    s = PolySystem([f], (3,))
    assert s.degrees == (3,)
    with pytest.raises(InputError):
        PolySystem([f], (0,))


def test_leading_forms_and_jacobian():
    f1 = P({(2, 0): 1, (0, 0): -1})
    f2 = P({(0, 2): 1, (1, 0): 5})
    s = PolySystem([f1, f2], (2, 2))
    lf = s.leading_forms()
    assert lf.polys[0] == P({(2, 0): 1})
    # jacobian of (x1^2-1, x2^2+5x1) is det [[2x1, 0], [5, 2x2]] = 4x1x2
    assert jacobian(s) == P({(1, 1): 4})


def test_monomial_set():
    M = MonomialSet([(1, 1), (0, 0), (1, 0), (0, 1)])
    assert list(M) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert M.delta == 2
    assert M.degree_slice(1) == ((1, 0), (0, 1))
    assert M.homogenized_at(2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    with pytest.raises(InputError):
        MonomialSet([(1, 0), (1, 0)])


def test_m0_staircase():
    M = m0_set((2, 3))
    assert len(M) == 6
    assert all(a < 2 and b < 3 for a, b in M)
