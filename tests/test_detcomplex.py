"""Determinants of exact complexes: two decomposition orders must agree."""
import dataclasses
import math
import random

import pytest

from monobasis import (
    GF,
    QQ,
    GradedComplex,
    Matrix,
    MinorSelection,
    MonomialSet,
    MultiPoly,
    NotExact,
    NotFullRank,
    PolySystem,
    build_complex,
    decompose_ascending,
    decompose_descending,
    m0_set,
    monomials_of_degree,
)
from monobasis import linalg
from monobasis.cli import parse_poly
from monobasis.detcomplex import koszul_det
from monobasis.hilbert import DegreeProfile, hilbert_H
from monobasis.resultants import _diagonal_sign
from monobasis.subresultants import required_cardinality

from conftest import lifted_m0, sparse_affine
from lexicographic import lexicographic_minor
from sweep import seeded_system

F101 = GF(101)


def homog_random(rng, degrees, nvars=None):
    v = nvars or len(degrees)
    polys = []
    for i, d in enumerate(degrees):
        terms = {m: F101.of(rng.randrange(101)) for m in monomials_of_degree(v, d)}
        polys.append(MultiPoly(F101, v, terms))
    return PolySystem(polys, tuple(degrees))


def affine_random(rng, field, degrees):
    """Dense affine polynomials in n = len(degrees) variables with non-zero
    coefficients in -3..3, f_i monic in x_i^{d_i}."""
    n = len(degrees)
    polys = []
    for i, d in enumerate(degrees):
        terms = {
            m: field.of(rng.choice((-3, -2, -1, 1, 2, 3)))
            for e in range(d + 1)
            for m in monomials_of_degree(n, e)
        }
        terms[tuple(d if j == i else 0 for j in range(n))] = field.one
        polys.append(MultiPoly(field, n, terms))
    return PolySystem(polys, tuple(degrees))


def pure_powers(degrees):
    v = len(degrees)
    polys = [
        MultiPoly.monomial(F101, tuple(d if j == i else 0 for j in range(v)))
        for i, d in enumerate(degrees)
    ]
    return PolySystem(polys, tuple(degrees))


def test_single_equation_complex_is_multiplication_map():
    """One equation: the complex is 0 -> R_{t-d} -> R_t/<S> -> 0.

    Its determinant is the minor of the multiplication-by-f map on the
    complement of S, directly computable as one determinant.
    """
    rng = random.Random(0)
    sys_ = homog_random(rng, (2,), nvars=1)
    # in one variable, degree-t monomials form a single element each;
    # use two variables for an interesting square map instead
    sys2 = homog_random(rng, (2,), nvars=2)
    t = 3
    S = [(3, 0), (2, 1)]  # leave two monomials, map from two
    c = build_complex(sys2, t, S)
    val = decompose_ascending(c).delta
    d1 = c.differentials[0]
    keep = [i for i, be in enumerate(c.term_bases[0])]
    assert len(keep) == d1.nrows
    assert val == d1.det() or val == -d1.det()


def test_pure_power_complex_has_unit_determinant():
    sys_ = pure_powers((2, 2))
    t = 2
    S = [(1, 1)]  # H(2) for (2,2) in 2 vars is 1
    c = build_complex(sys_, t, S)
    v = decompose_ascending(c).delta
    assert v == F101.one or v == -F101.one


def test_ascending_equals_descending_up_to_sign():
    rng = random.Random(99)
    checked = 0
    profiles = [
        ((2, 2), 2), ((2, 2), 3), ((2, 3), 3), ((2, 3), 4), ((3, 3), 4),
        ((2, 2, 2), 3), ((2, 2, 2), 4), ((2, 2, 3), 4),
    ]
    for degrees, t in profiles:
        v = len(degrees)
        hval = required_cardinality(degrees, v, t)
        monos = monomials_of_degree(v, t)
        for _ in range(10):
            sys_ = homog_random(rng, degrees)
            S = rng.sample(monos, hval)
            c = build_complex(sys_, t, S)
            try:
                a = decompose_ascending(c).delta
            except NotExact:
                with pytest.raises(NotExact):
                    decompose_descending(c)
                continue
            b = decompose_descending(c).delta
            assert a == b or a == -b
            checked += 1
    assert checked > 40
    # homogenized systems in n+1 variables over Q at t = delta(M)
    for degrees in ((2, 2), (3, 2), (2, 2, 2)):
        for M in (m0_set(degrees), lifted_m0(degrees)):
            for _ in range(3):
                hom = affine_random(rng, QQ, degrees).homogenized()
                c = build_complex(hom, M.delta, M.homogenized_at(M.delta))
                try:
                    a = decompose_ascending(c).delta
                except NotExact:
                    with pytest.raises(NotExact):
                        decompose_descending(c)
                    continue
                b = decompose_descending(c).delta
                assert a == b or a == -b, (degrees, M)
                checked += 1
    assert checked > 55


def permutation_sign(perm) -> int:
    sign = 1
    seen = set()
    for start in range(len(perm)):
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def permuted(c, perms):
    """c with term k's basis reordered: new element j is old perms[k][j]."""
    diffs = tuple(
        Matrix(c.field, [[d[i, j] for j in perms[k - 1]] for i in perms[k]],
               ncols=len(perms[k - 1]))
        for k, d in enumerate(c.differentials, start=1)
    )
    bases = tuple(tuple(b[i] for i in p) for b, p in zip(c.term_bases, perms))
    return GradedComplex(c.s, c.t, c.nvars, bases, diffs, c.field)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_descending_determinant_is_sign_canonical(field):
    """Permuting the term bases, and the rows and columns of the
    differentials with them, changes the descending determinant by exactly
    the product of the permutations' signs: its sign does not depend on
    which minors the greedy choice finds."""
    rng = random.Random(71)
    complexes = []
    for degrees in ((2, 2), (3, 2), (2, 2, 2), (3, 2, 2)):
        hom = affine_random(rng, field, degrees).homogenized()
        M = m0_set(degrees)
        rho = sum(degrees) - len(degrees)
        for t in (rho, rho + 1):
            complexes.append(build_complex(hom, t, M.homogenized_at(t)))
    # one resultant complex: the forms alone in degree rho + 1, S empty
    forms = affine_random(rng, field, (3, 2, 2)).leading_forms()
    complexes.append(build_complex(forms, 5, ()))
    exact = 0
    for c in complexes:
        try:
            base = decompose_descending(c).delta
        except NotExact:
            base = None
        for _ in range(6):
            perms = [rng.sample(range(d), d) for d in c.dims()]
            sign = math.prod(permutation_sign(p) for p in perms)
            if base is None:
                with pytest.raises(NotExact):
                    decompose_descending(permuted(c, perms)).delta
                continue
            assert decompose_descending(permuted(c, perms)).delta == (base if sign == 1 else -base)
        exact += base is not None
    assert exact >= 7


def test_scaling_one_polynomial_scales_the_determinant():
    """Multiplying P_i by c multiplies Delta by c^(H(t) - H_{i-hat}(t))."""
    rng = random.Random(5)
    degrees = (2, 2)
    t = 3
    sys_ = homog_random(rng, degrees)
    hval = required_cardinality(degrees, 2, t)
    S = monomials_of_degree(2, t)[:hval]
    base = decompose_ascending(build_complex(sys_, t, S)).delta
    c = F101.of(7)
    scaled = PolySystem([sys_.polys[0] * c, sys_.polys[1]], degrees)
    new = decompose_ascending(build_complex(scaled, t, S)).delta
    # degree of Delta in the coefficients of P_1 for n=2 at this level:
    # dim of the x^a e_1 block minus the e_12 block
    d_e1 = len(monomials_of_degree(2, t - 2))
    d_e12 = len(monomials_of_degree(2, t - 4))
    assert new == base * c ** (d_e1 - d_e12)


def test_not_exact_raised_for_degenerate_system():
    sys_ = PolySystem(
        [
            MultiPoly.monomial(F101, (2, 0)),
            MultiPoly.monomial(F101, (2, 0)),  # same polynomial twice
        ],
        (2, 2),
    )
    hval = required_cardinality((2, 2), 2, 2)
    S = monomials_of_degree(2, 2)[:hval]
    c = build_complex(sys_, 2, S)
    with pytest.raises(NotExact):
        decompose_ascending(c)


def test_trace_structure():
    rng = random.Random(1)
    sys_ = homog_random(rng, (2, 2))
    hval = required_cardinality((2, 2), 2, 3)
    S = monomials_of_degree(2, 3)[:hval]
    c = build_complex(sys_, 3, S)
    tr = decompose_ascending(c)
    assert len(tr.stage_dets) == len(c.term_bases) - 1 or len(tr.stage_dets) >= 1
    assert tr.delta == decompose_ascending(c).delta


DECOMPOSITIONS = (decompose_ascending, decompose_descending)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_complex_without_differentials(field):
    """s = 0: the determinant is 1 on an empty target and the complex is
    not exact on a non-empty one, in both directions."""
    empty = GradedComplex(0, 1, 1, ((),), (), field)
    point = GradedComplex(0, 1, 1, ((((1,), ()),),), (), field)
    for decompose in DECOMPOSITIONS:
        tr = decompose(empty)
        assert tr.delta == field.one and tr.stage_minors == ()
        with pytest.raises(NotExact):
            decompose(point)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_empty_and_non_square_last_stages(field):
    """x1^2 + x2^2, x1*x2 at t = 2: term 2 is empty and term 1 has two
    elements, so only #S = 1 leaves a square last stage."""
    one = field.one
    sys_ = PolySystem(
        [MultiPoly(field, 2, {(2, 0): one, (0, 2): one}), MultiPoly(field, 2, {(1, 1): one})],
        (2, 2),
    )
    for S in ([], [(2, 0), (0, 2)], [(2, 0), (1, 1), (0, 2)]):
        c = build_complex(sys_, 2, S)
        for decompose in DECOMPOSITIONS:
            with pytest.raises(NotExact):
                decompose(c)
    c = build_complex(sys_, 2, [(2, 0)])
    assert c.dims() == [2, 2, 0]
    asc, desc = decompose_ascending(c), decompose_descending(c)
    assert asc.delta == desc.delta and asc.delta in (one, -one)
    for tr in (asc, desc):
        assert len(tr.stage_minors) == c.s
        assert all(isinstance(sel, MinorSelection) for sel in tr.stage_minors)


def lexicographic_descending(c):
    """The signed descending decomposition with every stage's minor chosen
    by the lexicographic reference, each signed by its columns' shuffle."""
    dims = c.dims()
    rows = list(range(dims[c.s]))
    dets = []
    for k in range(c.s, 0, -1):
        try:
            sel = lexicographic_minor(c.differentials[k - 1].submatrix(rows, range(dims[k - 1])))
        except NotFullRank:
            raise NotExact(f"stage {k}") from None
        cols = sel.col_indices
        odd = (sum(cols) - len(cols) * (len(cols) - 1) // 2) % 2
        dets.append(-sel.minor_value if odd else sel.minor_value)
        rows = [j for j in range(dims[k - 1]) if j not in cols]
    if rows:
        raise NotExact("leftover basis elements")
    delta = c.field.one
    for i, d in enumerate(reversed(dets)):
        delta = delta * d if i % 2 == 0 else delta / d
    return delta


@pytest.mark.parametrize("field", [GF(3), F101, QQ], ids=["F3", "F101", "Q"])
def test_free_pivot_descending_equals_the_lexicographic_one(field):
    """The free-pivot stage minors give the same signed value as the
    lexicographic ones, not just the same up to sign, and fail on the same
    complexes: homogenized dense and sparse systems at t = max(rho, delta(M))
    and one above, with M0 and with random sets, their leading forms' resultant complexes,
    and the pure powers behind the resultant's sign.  The ascending
    decomposition, on the same selector, gives that value up to sign and
    fails on the same complexes too."""
    rng = random.Random(f"free-descending-{field.name}")
    complexes = []
    for degrees in ((2, 2), (3, 2), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2)):
        n, rho = len(degrees), sum(degrees) - len(degrees)
        monos = [m for e in range(rho + 2) for m in monomials_of_degree(n, e)]
        for make in (affine_random, sparse_affine, sparse_affine):
            sys_ = make(rng, field, degrees)
            hom = sys_.homogenized()
            for M in (m0_set(degrees), MonomialSet(rng.sample(monos, math.prod(degrees)))):
                for t in (max(rho, M.delta), max(rho, M.delta) + 1):
                    complexes.append(build_complex(hom, t, M.homogenized_at(t)))
            complexes.append(build_complex(sys_.leading_forms(), rho + 1, ()))
    exact = 0
    for c in complexes:
        try:
            want = lexicographic_descending(c)
        except NotExact:
            for decompose in DECOMPOSITIONS:
                with pytest.raises(NotExact):
                    decompose(c)
            continue
        assert decompose_descending(c).delta == want
        assert decompose_ascending(c).delta in (want, -want)
        exact += 1
    assert exact >= 35 and len(complexes) - exact >= 10
    for degrees in ((2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2)):
        forms = PolySystem([MultiPoly.monomial(field, tuple(d if j == i else 0 for j in range(len(degrees))))
                            for i, d in enumerate(degrees)], degrees)
        c = build_complex(forms, sum(degrees) - len(degrees) + 1, ())
        value = decompose_descending(c).delta
        assert value == lexicographic_descending(c) == field.of(_diagonal_sign(degrees))
        assert decompose_ascending(c).delta in (value, -value)


# ---------------------------------------------------------------------------
# Macaulay's columns first, the free pivot as the fallback

# the (2,2,2) system of the ROADMAP: Res 115 and Delta(M0) -16 over Q, 14
# and 85 over F_101; Macaulay's columns of one stage of its resultant
# complex have a vanishing minor
FIXED = ("x1*x2 + x1*x3 + x2^2 + x1", "x1^2 - x1*x3 + x2*x3 + 1", "3*x1^2 - x2^2 + x3^2")


def fixed_system(field):
    return PolySystem([parse_poly(t, 3, field) for t in FIXED], (2, 2, 2))


def certificate_complexes(sys_, M):
    """The resultant complex of the leading forms and the complex of
    Delta(M), as ``certify_basis`` builds them."""
    rho = sum(sys_.degrees) - sys_.n
    return (build_complex(sys_.leading_forms(), rho + 1, ()),
            build_complex(sys_.homogenized(), M.delta, M.homogenized_at(M.delta)))


def free_descending(c):
    """The descending value with every stage's minor from the free pivot
    on its whole restricted map: c without the degrees that name the
    Macaulay columns."""
    return decompose_descending(dataclasses.replace(c, degrees=())).delta


def spy_on_given_columns(monkeypatch):
    """Whether each minor on given columns was non-zero, in call order."""
    taken, minor = [], linalg._minor

    def spy(m, keep=None):
        out = minor(m, keep)
        if keep is not None:
            taken.append(out is not None)
        return out

    monkeypatch.setattr(linalg, "_minor", spy)
    return taken


@pytest.mark.parametrize("field", [GF(3), F101, QQ], ids=["F3", "F101", "Q"])
def test_macaulay_columns_keep_the_descending_value(field, monkeypatch):
    """Taking each wide stage's minor on its Macaulay columns when it is
    non-zero gives the free-pivot value exactly, sign included, and fails
    on the same complexes: seeded dense and sparse homogenized systems at
    t = delta(M) and one above, with M0, M0 lifted and random sets, their
    leading forms' resultant complexes, the pure powers, whose value is
    the resultant's sign, and the ROADMAP system, where a Macaulay minor
    vanishes."""
    rng = random.Random(f"macaulay-{field.name}")
    taken = spy_on_given_columns(monkeypatch)
    coefficients = range(-5, 6) if field is QQ else range(field.p)
    complexes = []
    for seed, degrees in enumerate(((2, 2), (3, 2), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2))):
        n, rho = len(degrees), sum(degrees) - len(degrees)
        monos = [m for e in range(rho + 2) for m in monomials_of_degree(n, e)]
        for sys_ in (seeded_system(seed, degrees, field, coefficients),
                     sparse_affine(rng, field, degrees),
                     sparse_affine(rng, field, degrees, monic=False)):
            hom = sys_.homogenized()
            for M in (m0_set(degrees), lifted_m0(degrees),
                      MonomialSet(rng.sample(monos, math.prod(degrees)))):
                for t in (M.delta, M.delta + 1):
                    complexes.append(build_complex(hom, t, M.homogenized_at(t)))
            complexes.append(build_complex(sys_.leading_forms(), rho + 1, ()))
    exact = 0
    for c in complexes:
        try:
            want = free_descending(c)
        except NotExact:
            with pytest.raises(NotExact):
                decompose_descending(c)
            continue
        assert decompose_descending(c).delta == want
        exact += 1
    assert exact >= 25 and len(complexes) - exact >= 10
    for degrees in ((2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 2, 2)):
        n = len(degrees)
        forms = PolySystem([MultiPoly.monomial(field, tuple(d if j == i else 0 for j in range(n)))
                            for i, d in enumerate(degrees)], degrees)
        c = build_complex(forms, sum(degrees) - n + 1, ())
        sign = field.of(_diagonal_sign(degrees))
        assert decompose_descending(c).delta == free_descending(c) == sign
    for c in certificate_complexes(fixed_system(field), m0_set((2, 2, 2))):
        assert decompose_descending(c).delta == free_descending(c)
    assert taken.count(True) >= 100 and taken.count(False) >= 20


def test_wide_stages_take_their_macaulay_columns(monkeypatch):
    """The kernel never sees a wide matrix in the certificate of a dense
    (2,2,2,2) system over F_101 with M0: every wide stage's Macaulay minor
    is non-zero.  On the ROADMAP system one is not, and the free pivot
    takes that stage whole."""
    wide = []

    def spy(rows, p=None, m=None, stop=False):
        wide.append(len(set().union(*rows)) > len(rows))
        return pivot(rows, p, m, stop)

    pivot = linalg._pivot
    monkeypatch.setattr(linalg, "_pivot", spy)
    degrees = (2, 2, 2, 2)
    sys_ = seeded_system(1, degrees, F101, range(-5, 6))
    values = [decompose_descending(c).delta for c in certificate_complexes(sys_, m0_set(degrees))]
    assert all(values) and len(wide) >= 6 and not any(wide)
    for field, res, delta in ((QQ, 115, -16), (F101, 14, 85)):
        wide.clear()
        forms, hom = certificate_complexes(fixed_system(field), m0_set((2, 2, 2)))
        value = decompose_descending(forms).delta * _diagonal_sign((2, 2, 2))
        assert (value, decompose_descending(hom).delta) == (field.of(res), field.of(delta))
        assert any(wide)


def test_a_vanishing_macaulay_minor_stops_at_its_first_cancelled_row(monkeypatch):
    """On the ROADMAP system a stage's Macaulay minor vanishes.  Its square
    attempt returns as soon as a row cancels, before it has pivoted every
    row it could: a full run on the same rows pivots more.  Res and
    Delta(M0) do not move."""
    steps = []

    def spy(rows, p=None, m=None, stop=False):
        if stop:
            full = pivot([dict(r) for r in rows], p, m)
            out = pivot(rows, p, m, stop)
            steps.append((len(rows), len(out[0]), len(full[0])))
            return out
        return pivot(rows, p, m, stop)

    pivot = linalg._pivot
    monkeypatch.setattr(linalg, "_pivot", spy)
    for field, res, delta in ((QQ, 115, -16), (F101, 14, 85)):
        steps.clear()
        forms, hom = certificate_complexes(fixed_system(field), m0_set((2, 2, 2)))
        value = decompose_descending(forms).delta * _diagonal_sign((2, 2, 2))
        assert (value, decompose_descending(hom).delta) == (field.of(res), field.of(delta))
        failed = [(pivoted, could) for nrows, pivoted, could in steps if pivoted < nrows]
        assert failed and all(pivoted < could for pivoted, could in failed), steps


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_a_non_basis_stops_its_last_stage_at_its_first_cancelled_row(field, monkeypatch):
    """M is the 15 monomials of degree <= 2 and one of degree 4, for a dense
    (2,2,2,2) system, whose quotient holds only 1 + 4 + 6 dimensions of
    degree <= 2: M is no basis and Delta(M) = 0.  Both decompositions fail
    at stage 1, and ``koszul_det`` is 0.  The descending decomposition's
    last kernel run, on that square stage, stops before its last row and
    before a run that does not stop would."""
    runs = []

    def spy(rows, p=None, m=None, stop=False):
        full = pivot([dict(r) for r in rows], p, m)
        out = pivot(rows, p, m, stop)
        runs.append((stop, len(rows), len(out[0]), len(full[0])))
        return out

    pivot = linalg._pivot
    monkeypatch.setattr(linalg, "_pivot", spy)
    sys_ = seeded_system(1, (2, 2, 2, 2), field, range(-5, 6))
    low = [m for e in range(3) for m in monomials_of_degree(4, e)]
    M = MonomialSet(low + monomials_of_degree(4, 4)[:1])
    hom = sys_.homogenized()
    c = build_complex(hom, M.delta, M.homogenized_at(M.delta))
    for decompose in (decompose_ascending, decompose_descending):
        runs.clear()
        with pytest.raises(NotExact, match="^stage 1:"):
            decompose(c)
        assert all(stop for stop, _, _, _ in runs)
    stop, nrows, pivoted, full = runs[-1]
    assert nrows == c.dims()[0] and pivoted + 1 < nrows and pivoted < full
    assert koszul_det(hom, M.delta, M.homogenized_at(M.delta)) == field.zero
