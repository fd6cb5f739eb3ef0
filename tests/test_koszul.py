"""Structural checks on the graded complexes: dimensions, d∘d = 0, Euler
char, and the layout of the maps, whose first is Macaulay's matrix."""
import itertools
import random

import pytest

from monobasis import (
    GF,
    QQ,
    InputError,
    Matrix,
    MonomialSet,
    MultiPoly,
    PolySystem,
    build_complex,
    m0_set,
    monomials_of_degree,
    rank_oracle,
)
from monobasis import certify
from monobasis.hilbert import DegreeProfile
from monobasis.koszul import koszul_map, koszul_term
from monobasis.polynomials import mono_mul
from monobasis.resultants import macaulay_matrix

from conftest import lifted_m0, random_system

F101 = GF(101)


def homog_random(rng, field, degrees):
    n = len(degrees)
    polys = []
    for i, d in enumerate(degrees):
        terms = {m: field.of(rng.randrange(field.p)) for m in monomials_of_degree(n, d)}
        terms[tuple(d if j == i else 0 for j in range(n))] = field.one
        polys.append(MultiPoly(field, n, terms))
    return PolySystem(polys, tuple(degrees))


def test_term_dimensions_three_quadrics_t3():
    """Three homogeneous quadrics in three variables at level three.

    B_0 has dim 10 - #S, B_1 holds one monomial of degree 1 per equation
    (3*3 = 9 elements), and B_2 is empty since t - d_i - d_j < 0.
    """
    rng = random.Random(0)
    sys_ = homog_random(rng, F101, (2, 2, 2))
    S = [(1, 1, 1)]
    c = build_complex(sys_, 3, S)
    assert c.dims() == [9, 9, 0, 0]
    assert sum((-1) ** k * d for k, d in enumerate(c.dims())) == 0


def test_differentials_compose_to_zero():
    rng = random.Random(4)
    for degrees, t in [((2, 2), 3), ((2, 3), 4), ((2, 2, 2), 4), ((2, 2, 3), 5)]:
        sys_ = homog_random(rng, F101, degrees)
        c = build_complex(sys_, t, [])
        for k in range(2, c.s + 1):
            dk = c.differentials[k - 1]
            dk1 = c.differentials[k - 2]
            assert (dk @ dk1).is_zero()


def test_projection_stage_drops_selected_monomials():
    rng = random.Random(8)
    sys_ = homog_random(rng, F101, (2, 2))
    S = [(3, 0), (0, 3)]
    c = build_complex(sys_, 3, S)
    # B_0 omits exactly the monomials of S
    assert set(c.term_bases[0]) == set(
        b for b in build_complex(sys_, 3, []).term_bases[0] if b[0] not in S
    )


def test_euler_characteristic_is_H_when_S_matches():
    """chi(C) = #B_0 - #B_1 + ... equals H(t) - #S by construction."""
    rng = random.Random(11)
    for degrees, t in [((2, 2), 2), ((2, 2), 3), ((2, 2, 2), 3), ((3, 2), 4)]:
        sys_ = homog_random(rng, F101, degrees)
        c = build_complex(sys_, t, [])
        n = len(degrees)
        dims = [len(monomials_of_degree(n, t))]
        for k in range(1, n + 1):
            dk = sum(
                len(monomials_of_degree(n, t - sum(degrees[i] for i in combo)))
                for combo in itertools.combinations(range(n), k)
                if t - sum(degrees[i] for i in combo) >= 0
            )
            dims.append(dk)
        chi = sum((-1) ** k * d for k, d in enumerate(dims))
        assert sum((-1) ** k * d for k, d in enumerate(c.dims())) == chi


def test_input_validation():
    rng = random.Random(2)
    sys_ = homog_random(rng, F101, (2, 2))
    with pytest.raises(InputError):
        build_complex(sys_, 3, [(1, 1)])  # degree-2 monomial at level 3
    with pytest.raises(InputError):
        build_complex(sys_, 3, [(3, 0), (3, 0)])  # duplicates
    affine = random_system(rng, F101, (2, 2))
    if not all(f.is_homogeneous_of(d) for f, d in zip(affine.polys, affine.degrees)):
        with pytest.raises(InputError):
            build_complex(affine, 3, [])


def affine_draw(rng, field, degrees, terms_per_degree):
    """f_i = x_i^{d_i} plus, in each degree up to d_i, ``terms_per_degree``
    random monomials (all of them when None) with coefficients in -3..3."""
    n = len(degrees)
    polys = []
    for i, d in enumerate(degrees):
        terms = {}
        for e in range(d + 1):
            monos = monomials_of_degree(n, e)
            if terms_per_degree is not None:
                monos = rng.sample(monos, min(terms_per_degree, len(monos)))
            for m in monos:
                terms[m] = field.of(rng.choice((-3, -2, -1, 1, 2, 3)))
        terms[tuple(d if j == i else 0 for j in range(n))] = field.one
        polys.append(MultiPoly(field, n, terms))
    return PolySystem(polys, tuple(degrees))


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_first_differential_is_the_macaulay_matrix(field):
    """Every map has one row per source element; so the first one is
    Macaulay's matrix on the degree-t monomials outside S, entry for entry."""
    rng = random.Random(23)
    for degrees in ((2, 2), (3, 2), (2, 2, 2)):
        for terms_per_degree in (None, 1):
            draw = affine_draw(rng, field, degrees, terms_per_degree)
            rho = sum(degrees) - len(degrees)
            M = m0_set(degrees)
            hom = draw.homogenized()
            for sys_, t, S in (
                (draw.leading_forms(), rho + 1, []),
                (hom, rho + 1, []),
                (hom, M.delta, M.homogenized_at(M.delta)),
            ):
                c = build_complex(sys_, t, S)
                outside = [m for m in monomials_of_degree(sys_.nvars, t) if m not in S]
                d1 = c.differentials[0]
                assert (d1.nrows, d1.ncols) == (c.dims()[1], c.dims()[0])
                assert d1 == macaulay_matrix(sys_, [(m, ()) for m in outside])


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_differentials_store_only_their_nonzero_entries(field):
    """A row of the k-th map images one x^a e_I, |I| = k: it holds at most
    k * max #terms(f_i) entries, and each one it holds is non-zero."""
    rng = random.Random(29)
    for degrees in ((2, 2), (3, 2), (2, 2, 2)):
        for terms_per_degree in (None, 1):
            hom = affine_draw(rng, field, degrees, terms_per_degree).homogenized()
            terms = max(len(f.terms) for f in hom.polys)
            M = m0_set(degrees)
            c = build_complex(hom, M.delta + 1, M.homogenized_at(M.delta + 1))
            for k, d in enumerate(c.differentials, start=1):
                for row in d.rows:
                    assert all(row.values()) and len(row) <= k * terms
                    assert all(0 <= j < d.ncols for j in row)


def test_a_missing_target_of_a_higher_map_is_a_bug():
    sys_ = homog_random(random.Random(3), F101, (2, 2))
    c = build_complex(sys_, 4, [])
    assert koszul_map(sys_, c.term_bases[2], c.term_bases[1]) == c.differentials[1]
    with pytest.raises(AssertionError, match="differential target missing"):
        koszul_map(sys_, c.term_bases[2], c.term_bases[1][1:])


def tuple_koszul_map(sys_, source, target):
    """``koszul_map`` written on tuple monomials, one product tuple per
    (source element, term): the independent reference for the coded one."""
    index = {}
    for j, (m, wedge) in enumerate(target):
        index.setdefault(wedge, {})[m] = j
    rows = []
    for a, wedge in source:
        row = {}
        for j, i in enumerate(wedge):
            rest = wedge[:j] + wedge[j + 1 :]
            cols = index.get(rest) or {}
            for mono, coeff in sys_.polys[i - 1].terms.items():
                col = cols.get(mono_mul(a, mono))
                if col is not None:
                    row[col] = -coeff if j % 2 else coeff
                elif rest:
                    raise AssertionError("differential target missing")
        rows.append(row)
    return Matrix(sys_.field, rows, ncols=len(target))


def assert_maps_match_the_reference(sys_, t, S) -> int:
    """Every differential of C_t(S) equals the reference; returns the
    number of entries compared."""
    c = build_complex(sys_, t, S)
    for k, d in enumerate(c.differentials, start=1):
        assert d == tuple_koszul_map(sys_, c.term_bases[k], c.term_bases[k - 1]), (t, S, k)
    return sum(len(row) for d in c.differentials for row in d.rows)


@pytest.mark.parametrize("field", [GF(3), F101, QQ], ids=["F3", "F101", "Q"])
def test_coded_maps_equal_the_tuple_reference(field, monkeypatch):
    """Entry for entry, sign included: every differential of the
    certificate's two complexes, of leading forms and of homogenized
    systems, dense and sparse, n = 2..4, with S = {}, M0, a lifted M0 and a
    random set, and both Macaulay matrices of the rank oracle."""
    oracle_maps = []

    def recording(sys_, target):
        m = macaulay_matrix(sys_, target)
        oracle_maps.append((sys_, target, m))
        return m

    monkeypatch.setattr(certify, "macaulay_matrix", recording)
    rng = random.Random(31)
    entries = calls = 0
    for degrees in ((2, 2), (3, 2), (2, 2, 2), (2, 2, 2, 2)):
        profile = DegreeProfile(degrees)
        pool = [m for e in range(profile.rho + 2) for m in monomials_of_degree(profile.n, e)]
        for terms_per_degree in (None, 1):
            draw = affine_draw(rng, field, degrees, terms_per_degree)
            hom = draw.homogenized()
            sets = (m0_set(degrees), lifted_m0(degrees), MonomialSet(rng.sample(pool, profile.bezout)))
            entries += assert_maps_match_the_reference(draw.leading_forms(), profile.rho + 1, [])
            entries += assert_maps_match_the_reference(hom, profile.rho + 1, [])
            for M in sets:
                entries += assert_maps_match_the_reference(hom, M.delta, M.homogenized_at(M.delta))
                rank_oracle(draw, M)
                calls += 1
    assert entries > 10_000
    # each oracle call builds the leading forms' matrix, and the
    # homogenized system's unless Res = 0 already answered
    assert calls < len(oracle_maps) <= 2 * calls
    for sys_, target, m in oracle_maps:
        t = sum(target[0][0])
        assert m == tuple_koszul_map(sys_, koszul_term(sys_, t, 1), target)


def test_coded_maps_at_degree_300():
    """x1^2 - 1, x2^2 - 2 homogenized, with M = {1, x1, x2, x1*x2} at
    t = 300, the subresultant that CI answers under a 1 GB cap: exponents
    reach 300, so the radix does too."""
    one = F101.one
    draw = PolySystem(
        [
            MultiPoly(F101, 2, {(2, 0): one, (0, 0): F101.of(-1)}),
            MultiPoly(F101, 2, {(0, 2): one, (0, 0): F101.of(-2)}),
        ],
        (2, 2),
    )
    M = MonomialSet([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert assert_maps_match_the_reference(draw.homogenized(), 300, M.homogenized_at(300)) > 100_000


def test_a_target_monomial_past_every_product_gets_no_entry():
    """The source monomial 1 times x1 or x2: the radix is small, and the
    target holds every monomial of degree 2..12, among them one whose
    exponents, read as digits in any radix up to 12 and in either order,
    spell x1 or x2.  None of them may get an entry."""
    one = F101.one
    sys_ = PolySystem(
        [
            MultiPoly(F101, 2, {(1, 0): one, (0, 1): one}),
            MultiPoly(F101, 2, {(1, 0): one, (0, 1): -one}),
        ],
        (1, 1),
    )
    source = [((0, 0), (1,)), ((0, 0), (2,))]
    high = [(m, ()) for d in range(2, 13) for m in monomials_of_degree(2, d)]
    assert koszul_map(sys_, source, high).rows == [{}, {}]
    target = high + [((1, 0), ()), ((0, 1), ())]
    x1, x2 = len(high), len(high) + 1
    assert koszul_map(sys_, source, target).rows == [{x1: one, x2: one}, {x1: one, x2: -one}]
    assert koszul_map(sys_, source, target) == tuple_koszul_map(sys_, source, target)


def test_empty_source_or_target():
    sys_ = homog_random(random.Random(5), F101, (2, 2))
    c = build_complex(sys_, 4, [])
    for source, target in (([], c.term_bases[0]), ([], []), (c.term_bases[1], [])):
        m = koszul_map(sys_, source, target)
        assert (m.nrows, m.ncols) == (len(source), len(target))
        assert m.is_zero() and m == tuple_koszul_map(sys_, source, target)
    for build in (koszul_map, tuple_koszul_map):
        with pytest.raises(AssertionError, match="differential target missing"):
            build(sys_, c.term_bases[2], [])
