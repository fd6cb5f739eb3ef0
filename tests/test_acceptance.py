"""Acceptance suite: twelve end-to-end identities and oracle equivalences.

Every test prints a single PASS line on success (visible with pytest -s);
a failure raises, so a green run certifies all twelve items.
"""
import itertools
import math
import random

from monobasis import (
    GF,
    QQ,
    DegreeProfile,
    Matrix,
    MonomialSet,
    MultiPoly,
    PolySystem,
    build_complex,
    certify_basis,
    classical_subresultants,
    decompose_ascending,
    decompose_descending,
    degree_bound_reject,
    factorize_delta,
    hilbert_H,
    hilbert_h,
    homogenize,
    linear_transform,
    m0_set,
    monomials_of_degree,
    multiplication_matrix,
    power_system,
    rank_oracle,
    resultant_macaulay,
    transform_roots,
    upsilon_bivariate,
    vandermonde_verify,
)
from monobasis.errors import NotExact
from monobasis.subresultants import (
    delta_shift_check,
    required_cardinality,
    subresultant_delta,
)

from lexicographic import jacobian, m1_set, sylvester_resultant

F101 = GF(101)
F13 = GF(13)


def _random_poly(rng, field, nvars, degree, homogeneous=False, monic=None):
    terms = {}
    for d in [degree] if homogeneous else range(degree + 1):
        for m in monomials_of_degree(nvars, d):
            terms[m] = field.of(rng.randrange(field.p))
    if monic is not None:
        terms[tuple(degree if j == monic else 0 for j in range(nvars))] = field.one
    return MultiPoly(field, nvars, terms)


def _random_system(rng, field, degrees, homogeneous=False):
    n = len(degrees)
    return PolySystem(
        [
            _random_poly(rng, field, n, d, homogeneous=homogeneous, monic=i)
            for i, d in enumerate(degrees)
        ],
        tuple(degrees),
    )


def _transformed_grid(rng, field, degrees):
    """A grid system composed with a random invertible change of variables."""
    n = len(degrees)
    p = field.p
    sys0, roots0 = power_system(field, degrees, [rng.randrange(1, p) for _ in range(n)])
    while True:
        L = Matrix(field, [[field.of(rng.randrange(p)) for _ in range(n)] for _ in range(n)])
        if L.det():
            break
    return linear_transform(sys0, L), transform_roots(roots0, L)


def test_01_hilbert_values():
    p222 = DegreeProfile((2, 2, 2))
    assert hilbert_H(p222, 2) == 7
    for tau in range(3, 10):
        assert hilbert_H(p222, tau) == 8
    total_profiles = 0
    for n in range(1, 4):
        for degrees in itertools.product(range(1, 5), repeat=n):
            prof = DegreeProfile(degrees)
            assert sum(hilbert_h(prof, t) for t in range(prof.rho + 1)) == math.prod(degrees)
            total_profiles += 1
    print(f"ACCEPTANCE 1 PASS: H(2)=7, H(>=3)=8 for (2,2,2); "
          f"sum of h equals the degree product on {total_profiles} profiles")


def test_02_three_quadrics_product_shape():
    """For three affine quadrics, the level-3 subresultant at the staircase
    set equals (up to sign) det(3x3) * det(9x9) built straight from the
    degree-2 coefficient patterns."""
    rng = random.Random(202)
    M = m0_set((2, 2, 2))
    squares = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    cols9 = [m for m in monomials_of_degree(3, 3) if m != (1, 1, 1)]
    for _ in range(20):
        sys_ = _random_system(rng, F101, (2, 2, 2))
        lead = sys_.leading_forms()
        sub = subresultant_delta(sys_.homogenized(), 3, M.homogenized_at(3))
        m3 = Matrix(F101, [[f.coefficient(s) for s in squares] for f in lead.polys])
        rows9 = []
        for f in lead.polys:
            for j in range(3):
                xj = tuple(1 if k == j else 0 for k in range(3))
                prod = MultiPoly.monomial(F101, xj) * f
                rows9.append([prod.coefficient(c) for c in cols9])
        m9 = Matrix(F101, rows9, ncols=9)
        expected = m3.det() * m9.det()
        assert sub == expected or sub == -expected
    print("ACCEPTANCE 2 PASS: level-3 subresultant = +-det(3x3)*det(9x9) "
          "on 20 random quadric triples over F_101")


def test_03_ascending_equals_descending():
    rng = random.Random(303)
    checked = 0
    profiles = []
    for n in (2, 3):
        for degrees in itertools.product((2, 3), repeat=n):
            prof = DegreeProfile(degrees)
            for t in range(min(degrees), prof.rho + 2):
                profiles.append((degrees, t))
    while checked < 300:
        degrees, t = profiles[checked % len(profiles)]
        v = len(degrees)
        hval = required_cardinality(degrees, v, t)
        monos = monomials_of_degree(v, t)
        if hval > len(monos):
            continue
        sys_ = PolySystem(
            [_random_poly(rng, F101, v, d, homogeneous=True) for d in degrees],
            degrees,
        )
        S = rng.sample(monos, hval)
        c = build_complex(sys_, t, S)
        try:
            a = decompose_ascending(c).delta
        except NotExact:
            continue
        b = decompose_descending(c).delta
        assert a == b or a == -b, (degrees, t, S)
        checked += 1
    print(f"ACCEPTANCE 3 PASS: ascending = +-descending on {checked} exact complexes")


def test_04_and_05_oracle_equivalence_and_degree_bound():
    rng = random.Random(404)
    monos = [m for d in range(4) for m in monomials_of_degree(2, d)]
    assert len(monos) == 10
    subsets = list(itertools.combinations(monos, 4))
    assert len(subsets) == 210
    profile = DegreeProfile((2, 2))
    cases = 0
    low_delta_cases = 0
    for _ in range(5):
        sys_ = _random_system(rng, F101, (2, 2))
        for sub in subsets:
            M = MonomialSet(sub)
            cert = certify_basis(sys_, M)
            assert cert.is_basis == rank_oracle(sys_, M), (sub,)
            if degree_bound_reject(M, profile):
                assert not cert.is_basis
                low_delta_cases += 1
            cases += 1
    assert cases == 1050
    # direct delta < rho instances for criterion 5 (none arise for (2,2))
    prof23 = DegreeProfile((2, 3))
    low = MonomialSet([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    assert degree_bound_reject(low, prof23)
    for _ in range(5):
        sys23 = _random_system(rng, F101, (2, 3))
        assert not certify_basis(sys23, low).is_basis
    print("ACCEPTANCE 4 PASS: certificate and rank oracle agree on all 1050 cases")
    print("ACCEPTANCE 5 PASS: every candidate with low top degree is rejected "
          "(5 direct (2,3) instances; none arise among the 210 subsets)")


def test_06_shift_by_resultant():
    rng = random.Random(606)
    done2 = done3 = 0
    while done2 < 50:
        degrees = rng.choice([(2, 2), (2, 3), (3, 3)])
        sys_ = _random_system(rng, F101, degrees)
        if not resultant_macaulay(sys_.leading_forms()):
            continue
        M = m0_set(degrees)
        for t in (M.delta + 1, M.delta + 2):
            lhs, rhs = delta_shift_check(sys_, M, t)
            assert lhs == rhs or lhs == -rhs
        done2 += 1
    while done3 < 20:
        sys_ = _random_system(rng, F101, (2, 2, 2))
        if not resultant_macaulay(sys_.leading_forms()):
            continue
        M = m0_set((2, 2, 2))
        for t in (M.delta + 1, M.delta + 2):
            lhs, rhs = delta_shift_check(sys_, M, t)
            assert lhs == rhs or lhs == -rhs
        done3 += 1
    print("ACCEPTANCE 6 PASS: |level-(delta+k) value| = |value * Res^k| for "
          "k=1,2 on 50 bivariate and 20 trivariate instances")


def test_07_factorization_and_invariance():
    rng = random.Random(707)
    for degrees in [(2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        M = m0_set(degrees)
        n = len(degrees)
        for _ in range(20):
            lead = PolySystem(
                [
                    _random_poly(rng, F101, n, d, homogeneous=True, monic=i)
                    for i, d in enumerate(degrees)
                ],
                degrees,
            )
            rep = factorize_delta(lead, M)
            assert rep.applicable
            full = subresultant_delta(
                lead.homogenized(), M.delta, M.homogenized_at(M.delta)
            )
            assert rep.product == full or rep.product == -full
        # invariance under re-randomization of the non-leading coefficients
        lead = PolySystem(
            [
                _random_poly(rng, F101, n, d, homogeneous=True, monic=i)
                for i, d in enumerate(degrees)
            ],
            degrees,
        )
        values = set()
        for _ in range(20):
            polys = []
            for f, d in zip(lead.polys, degrees):
                noise = {
                    m: F101.of(rng.randrange(101))
                    for dd in range(d)
                    for m in monomials_of_degree(n, dd)
                }
                polys.append(f + MultiPoly(F101, n, noise))
            sys_ = PolySystem(polys, degrees)
            values.add(
                subresultant_delta(
                    sys_.homogenized(), M.delta, M.homogenized_at(M.delta)
                )
            )
        assert len(values) == 1
    print("ACCEPTANCE 7 PASS: staircase certificate factors into degree "
          "slices and ignores non-leading coefficients (4 profiles x 20 draws)")


def test_08_exact_identity_on_unit_grids():
    # the univariate hand case over Q
    f = MultiPoly(QQ, 1, {(2,): QQ.of(1), (0,): QQ.of(-1)})
    rep = vandermonde_verify(
        PolySystem([f], (2,)), [(1,), (-1,)], MonomialSet([(0,), (1,)])
    )
    assert rep.det_value**2 == 4 and rep.jacobian_product == -4
    assert rep.sign_const == -1 and rep.disp_exact is True

    count = 0
    for n in range(1, 4):
        for degrees in itertools.product((1, 2, 3), repeat=n):
            sys_, roots = power_system(F13, degrees, [1] * n)
            rep = vandermonde_verify(sys_, roots, m0_set(degrees))
            assert rep.disp_exact is True, degrees
            assert rep.matched_sign is not None
            count += 1
    print(f"ACCEPTANCE 8 PASS: squared-Vandermonde identity exact with the "
          f"predicted sign on {count} unit-grid profiles plus the univariate hand case")


def test_09_identity_on_non_staircase_bases():
    rng = random.Random(909)
    for degrees in [(2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        n = len(degrees)
        prof = DegreeProfile(degrees)
        sysL, rootsL = _transformed_grid(rng, F13, degrees)
        base = list(m0_set(degrees))
        candidates = [m for m in monomials_of_degree(n, prof.rho) if m not in base]
        candidates += monomials_of_degree(n, prof.rho + 1)
        found = []
        seen = set()
        for m_new in candidates:
            for drop in reversed(base):
                trial = frozenset([x for x in base if x != drop] + [m_new])
                if trial in seen or trial == frozenset(base):
                    continue
                seen.add(trial)
                M = MonomialSet(trial)
                if certify_basis(sysL, M).is_basis:
                    found.append(M)
            if len(found) >= 5 and any(M.delta == prof.rho + 1 for M in found):
                break
        found = found[:4] + [next(M for M in found if M.delta == prof.rho + 1)] \
            if not any(M.delta == prof.rho + 1 for M in found[:5]) else found[:5]
        assert len(found) == 5
        assert any(M.delta == prof.rho for M in found)
        assert any(M.delta == prof.rho + 1 for M in found)
        for M in found:
            rep = vandermonde_verify(sysL, rootsL, M)
            assert rep.matched_sign is not None, (degrees, list(M))
    print("ACCEPTANCE 9 PASS: squared identity holds for one of the two signs "
          "on 5 non-staircase bases per profile, top degrees rho and rho+1")


def test_10_bivariate_closed_form():
    rng = random.Random(1010)
    checked = 0
    for d1, d2, p in [(2, 3, 13), (2, 4, 17)]:
        F = GF(p)
        M1 = m1_set(d1, d2)
        for _ in range(10):
            sysL, rootsL = _transformed_grid(rng, F, (d1, d2))
            grid = [[MultiPoly.monomial(F, m).evaluate(pt) for m in M1] for pt in rootsL]
            det = Matrix(F, grid, ncols=len(M1)).det()
            jac = jacobian(sysL)
            J = F.one
            for pt in rootsL:
                J = J * jac.evaluate(pt)
            ups = upsilon_bivariate(sysL.polys[0], sysL.polys[1], d1, d2)
            assert ups == det * det / J
            checked += 1
    print(f"ACCEPTANCE 10 PASS: closed-form quotient equals det^2/J on "
          f"{checked} root-enumerable bivariate systems")


def test_11_kernel_bound_and_resultant_proportionality():
    rng = random.Random(1111)
    M0 = m0_set((4, 4))
    kernels = []
    for _ in range(20):
        sys_ = PolySystem(
            [
                _random_poly(rng, F101, 2, 4, homogeneous=True, monic=0),
                _random_poly(rng, F101, 2, 4, homogeneous=True, monic=1),
            ],
            (4, 4),
        )
        g = _random_poly(rng, F101, 2, 2, homogeneous=True)
        mm = multiplication_matrix(sys_, M0, g)
        assert mm.kernel_dim >= 3
        kernels.append(mm.kernel_dim)

    sysA = _random_system(rng, F101, (4, 4))
    assert certify_basis(sysA, M0).is_basis
    hom = sysA.homogenized()
    ratios = set()
    for _ in range(5):
        g = _random_poly(rng, F101, 2, 2)
        mm = multiplication_matrix(sysA, M0, g)
        assert bool(mm.det())
        res3 = resultant_macaulay(
            PolySystem(list(hom.polys) + [homogenize(g, 2)], (4, 4, 2))
        )
        ratios.add(res3 / mm.det())
    assert len(ratios) == 1
    print(f"ACCEPTANCE 11 PASS: kernel >= 3 in 20 graded draws (min={min(kernels)}); "
          "det(B) nonzero and proportional to the dense resultant over 5 g-draws")


def test_12_resultant_sanity():
    for degrees in [(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (1, 2, 3)]:
        n = len(degrees)
        polys = [
            MultiPoly.monomial(QQ, tuple(d if j == i else 0 for j in range(n)))
            for i, d in enumerate(degrees)
        ]
        assert resultant_macaulay(PolySystem(polys, degrees)) == 1

    rng = random.Random(1212)
    agree = 0
    while agree < 100:
        d1, d2 = rng.randrange(1, 4), rng.randrange(1, 4)
        f = _random_poly(rng, F101, 2, d1, homogeneous=True, monic=0)
        g = _random_poly(rng, F101, 2, d2, homogeneous=True, monic=1)
        mac = resultant_macaulay(PolySystem([f, g], (d1, d2)))
        assert mac == sylvester_resultant(f, g, d1, d2)
        agree += 1

    zero = 0
    while zero < 20:
        degrees = rng.choice([(2, 2), (2, 3), (2, 2, 2)])
        n = len(degrees)
        point = [F101.of(rng.randrange(1, 101)) for _ in range(n)]
        polys = []
        for i, d in enumerate(degrees):
            f = _random_poly(rng, F101, n, d, homogeneous=True, monic=i)
            pure = tuple(d if j == i else 0 for j in range(n))
            corr = f.evaluate(point) / point[i] ** d
            f = f + MultiPoly.monomial(F101, pure, -corr)
            assert not f.evaluate(point)
            polys.append(f)
        assert not resultant_macaulay(PolySystem(polys, degrees))
        zero += 1
    print("ACCEPTANCE 12 PASS: unit value on pure powers, Sylvester agreement "
          "on 100 binary pairs, zero on 20 common-root instances")
