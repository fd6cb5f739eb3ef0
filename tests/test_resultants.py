"""Resultants: diagonal normalization, Sylvester agreement, root oracles."""
import math
import random
from fractions import Fraction

import pytest

from monobasis import (
    GF,
    QQ,
    InputError,
    Matrix,
    MultiPoly,
    PolySystem,
    ShapeError,
    certify_basis,
    classical_subresultants,
    linear_transform,
    m0_set,
    monomials_of_degree,
    multiplication_matrix,
    resultant_macaulay,
)
from monobasis.resultants import macaulay_matrix

from lexicographic import sylvester_resultant

F101 = GF(101)


def binary_form(field, coeffs):
    """coeffs[k] is the coefficient of x1^(d-k) x2^k."""
    d = len(coeffs) - 1
    return MultiPoly(
        field, 2, {(d - k, k): field.of(c) for k, c in enumerate(coeffs) if field.of(c)}
    )


def euclid_gcd_degree(fc, gc, p):
    """Degree of gcd of two univariate polynomials over F_p (oracle).

    Coefficient lists are low-to-high.
    """
    a = [c % p for c in fc]
    b = [c % p for c in gc]

    def trim(u):
        while u and u[-1] % p == 0:
            u.pop()
        return u

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            shift = len(a) - len(b)
            f = a[-1] * inv % p
            for i, c in enumerate(b):
                a[i + shift] = (a[i + shift] - f * c) % p
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1 if a else -1


def pure_power_system(field, degrees):
    n = len(degrees)
    polys = [
        MultiPoly.monomial(field, tuple(d if j == i else 0 for j in range(n)))
        for i, d in enumerate(degrees)
    ]
    return PolySystem(polys, tuple(degrees))


def test_pure_powers_give_exactly_one():
    for degrees in [(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (1, 2, 3)]:
        sys_ = pure_power_system(QQ, degrees)
        assert resultant_macaulay(sys_) == Fraction(1)
    sys_ = pure_power_system(F101, (2, 2))
    assert resultant_macaulay(sys_) == F101.one


def test_common_factor_means_zero():
    f = MultiPoly(QQ, 2, {(2, 0): Fraction(1)})  # x1^2
    g = MultiPoly(QQ, 2, {(1, 1): Fraction(1)})  # x1 x2
    assert resultant_macaulay(PolySystem([f, g], (2, 2))) == 0


def test_sylvester_known_values():
    # res(x^2 - 1, x - 2) via homogeneous forms in (x, y):
    # f = x^2 - y^2, g = x - 2y -> resultant = f at root (2, 1) = 3
    f = binary_form(QQ, [1, 0, -1])
    g = binary_form(QQ, [1, -2])
    assert sylvester_resultant(f, g, 2, 1) == 3
    # res of two linear forms a x + b y, c x + d y is the 2x2 determinant
    f = binary_form(QQ, [3, 5])
    g = binary_form(QQ, [2, 7])
    assert sylvester_resultant(f, g, 1, 1) == 3 * 7 - 5 * 2


def test_macaulay_equals_sylvester_on_random_binary_pairs():
    rng = random.Random(12)
    agree = 0
    for _ in range(100):
        d1 = rng.randrange(1, 4)
        d2 = rng.randrange(1, 4)
        f = binary_form(F101, [rng.randrange(101) for _ in range(d1 + 1)])
        g = binary_form(F101, [rng.randrange(101) for _ in range(d2 + 1)])
        if not f.is_homogeneous_of(d1) or not g.is_homogeneous_of(d2):
            continue  # leading coefficient vanished; skip the malformed draw
        mac = resultant_macaulay(PolySystem([f, g], (d1, d2)))
        syl = sylvester_resultant(f, g, d1, d2)
        assert mac == syl
        agree += 1
    assert agree >= 80


def test_resultant_vanishes_iff_projective_common_root_exists():
    """Brute-force scan of P^1(F_11) as the oracle."""
    p = 11
    F = GF(p)
    rng = random.Random(3)
    points = [(F.of(1), F.of(b)) for b in range(p)] + [(F.of(0), F.of(1))]
    for _ in range(60):
        d1, d2 = rng.randrange(1, 4), rng.randrange(1, 4)
        f = binary_form(F, [rng.randrange(p) for _ in range(d1 + 1)])
        g = binary_form(F, [rng.randrange(p) for _ in range(d2 + 1)])
        if f.is_zero() or g.is_zero():
            continue
        has_root = any(
            not f.evaluate(pt) and not g.evaluate(pt) for pt in points
        )
        res = resultant_macaulay(PolySystem([f, g], (d1, d2)))
        if f.is_homogeneous_of(d1) and g.is_homogeneous_of(d2):
            assert bool(res) == (not has_root)


def test_trivariate_resultant_vanishes_on_common_root():
    F = GF(13)
    rng = random.Random(7)
    for _ in range(20):
        # force (1, 1, 1) to be a common projective root
        polys = []
        for d in (2, 2, 2):
            terms = {m: F.of(rng.randrange(13)) for m in monomials_of_degree(3, d)}
            f = MultiPoly(F, 3, terms)
            correction = f.evaluate([1, 1, 1])
            pure = (d, 0, 0)
            terms[pure] = terms.get(pure, F.zero) - correction
            f = MultiPoly(F, 3, terms)
            assert not f.evaluate([1, 1, 1])
            polys.append(f)
        sys_ = PolySystem(polys, (2, 2, 2))
        assert not resultant_macaulay(sys_)


def test_trivariate_nonzero_on_generic_draws():
    rng = random.Random(19)
    nonzero = 0
    for _ in range(10):
        polys = []
        for i, d in enumerate((2, 2, 2)):
            terms = {m: F101.of(rng.randrange(101)) for m in monomials_of_degree(3, d)}
            polys.append(MultiPoly(F101, 3, terms))
        if resultant_macaulay(PolySystem(polys, (2, 2, 2))):
            nonzero += 1
    assert nonzero >= 8


def random_form(rng, field, n, d, terms=None):
    """A non-zero form of degree d in n variables with coefficients in
    -4..4, on every monomial or on ``terms`` random ones."""
    monos = monomials_of_degree(n, d)
    if terms is not None:
        monos = rng.sample(monos, min(terms, len(monos)))
    coeffs = (-4, -3, -2, -1, 1, 2, 3, 4)
    return MultiPoly(field, n, {m: field.of(rng.choice(coeffs)) for m in monos})


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_resultant_is_multiplicative_in_each_form(field):
    """Res(.., g h, ..) = Res(.., g, ..) Res(.., h, ..), with its exact sign,
    on dense and sparse draws (sparse ones choose other minors)."""
    rng = random.Random(41)
    for _ in range(24):
        n = rng.choice((2, 3))
        degrees = [rng.randrange(1, 3) for _ in range(n)]
        slot = rng.randrange(n)
        a, b = rng.randrange(1, 3), rng.randrange(1, 3)
        terms = rng.choice((None, 2, 3))
        forms = [random_form(rng, field, n, d, terms) for d in degrees]
        g, h = random_form(rng, field, n, a, terms), random_form(rng, field, n, b, terms)

        def res(form, d):
            polys = forms[:slot] + [form] + forms[slot + 1 :]
            return resultant_macaulay(
                PolySystem(polys, degrees[:slot] + [d] + degrees[slot + 1 :])
            )

        assert res(g * h, a + b) == res(g, a) * res(h, b)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_resultant_degree_in_each_form(field):
    """Res(.., c f_i, ..) = c^(prod_{j != i} d_j) Res(f): Res is homogeneous
    of degree d_1...d_n / d_i in the coefficients of f_i."""
    rng = random.Random(53)
    nonzero = 0
    for _ in range(24):
        n = rng.choice((2, 3))
        degrees = [rng.randrange(1, 4) for _ in range(n)]
        slot = rng.randrange(n)
        c = field.of(rng.choice((-3, -2, 2, 3, 5)))
        forms = [random_form(rng, field, n, d, rng.choice((None, 2, 3))) for d in degrees]
        scaled = forms[:slot] + [forms[slot] * c] + forms[slot + 1 :]
        res = resultant_macaulay(PolySystem(forms, degrees))
        want = c ** (math.prod(degrees) // degrees[slot]) * res
        assert resultant_macaulay(PolySystem(scaled, degrees)) == want
        nonzero += bool(res)
    assert nonzero >= 12


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
@pytest.mark.parametrize("degrees", [(2, 2, 1), (3, 2, 2), (2, 2, 1, 1), (2, 2, 2, 1)])
def test_resultant_under_a_linear_change_of_variables(field, degrees):
    """Res(f o L) = det(L)^(d_1...d_n) Res(f), with its exact sign; f is
    sparse, so its minors are chosen differently from those of f o L."""
    rng = random.Random(43)
    n = len(degrees)
    res = 0
    while not res:  # sparse draws give Res = 0 now and then
        forms = PolySystem([random_form(rng, field, n, d, 2) for d in degrees], degrees)
        res = resultant_macaulay(forms)
    for _ in range(2):
        L = Matrix(field, [[field.of(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        want = L.det() ** math.prod(degrees) * res
        assert resultant_macaulay(linear_transform(forms, L)) == want


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_resultant_nonzero_iff_the_macaulay_map_is_onto(field):
    """On sparse draws: Res != 0 exactly when the Macaulay matrix of the
    forms in degree rho + 1 has full column rank (Macaulay 1902)."""
    rng = random.Random(47)
    seen = set()
    for _ in range(40):
        degrees = rng.choice(((2, 2), (3, 2), (2, 2, 2), (3, 2, 2)))
        n = len(degrees)
        forms = PolySystem(
            [random_form(rng, field, n, d, terms=rng.randrange(1, 4)) for d in degrees],
            degrees,
        )
        top = monomials_of_degree(n, sum(degrees) - n + 1)
        onto = macaulay_matrix(forms, [(m, ()) for m in top]).rank() == len(top)
        assert bool(resultant_macaulay(forms)) == onto
        seen.add(onto)
    assert seen == {True, False}



POISSON_DEGREES = ((2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 2, 2, 2))


def poisson_draw(field, degrees, seed):
    """Dense forms F_1..F_n with coefficients in -3..3, the affine system
    f_i = F_i(x', 1) of the first n - 1 of them, Res(F) and
    Res(F^_1..F^_{n-1}), F^_i = F_i(x', 0); x' = x_1..x_{n-1}."""
    rng = random.Random(f"poisson-{field.name}-{degrees}-{seed}")
    n = len(degrees)
    forms = [MultiPoly(field, n, {m: field.of(rng.randrange(-3, 4))
                                  for m in monomials_of_degree(n, d)}) for d in degrees]
    affine = [MultiPoly(field, n - 1, {m[:-1]: c for m, c in F.terms.items()}) for F in forms]
    if n == 2:
        # one form in one variable: Res(c x_1^d) = c
        res_hat = forms[0].coefficient((degrees[0], 0))
    else:
        hats = [MultiPoly(field, n - 1, {m[:-1]: c for m, c in F.terms.items() if not m[-1]})
                for F in forms[:-1]]
        res_hat = resultant_macaulay(PolySystem(hats, degrees[:-1]))
    res = resultant_macaulay(PolySystem(forms, degrees))
    return PolySystem(affine[:-1], degrees[:-1]), affine[-1], res, res_hat


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_poisson_formula(field):
    """Res(F) = Res(F^)^(d_n) det(m_{f_n}), sign included, for m_{f_n} the
    multiplication by f_n on K[x']/(f_1..f_{n-1}) in the basis M0 (Jouanolou
    1991; Cox, Little and O'Shea, Using Algebraic Geometry, ch. 3 sec. 5).
    ``multiplication_matrix`` refuses exactly the draws on which M0 is
    certified not to be a basis."""
    proved, refused = 0, []
    for degrees in POISSON_DEGREES:
        for seed in range(3):
            sys_, g, res, res_hat = poisson_draw(field, degrees, seed)
            M = m0_set(degrees[:-1])
            cert = certify_basis(sys_, M)
            # the leading forms of f_1..f_{n-1} are F^_1..F^_{n-1}
            assert cert.res_value == res_hat
            if not cert.is_basis:
                with pytest.raises(InputError):
                    multiplication_matrix(sys_, M, g)
                refused.append(res_hat)
                continue
            assert res == res_hat ** degrees[-1] * multiplication_matrix(sys_, M, g).det()
            proved += 1
    # a refusal need not mean Res(F^) = 0: Delta(M0) = 0 refuses too
    assert proved >= 18 and any(refused)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_resultant_input_checks(field):
    """A form that is not homogeneous of its declared degree is an
    InputError (raised where the complex is built); two forms in three
    variables are a ShapeError."""
    sq = MultiPoly(field, 2, {(2, 0): field.one, (0, 2): field.one})
    affine = MultiPoly(field, 2, {(2, 0): field.one, (0, 1): field.one})
    with pytest.raises(InputError):
        resultant_macaulay(PolySystem([sq, affine], (2, 2)))
    with pytest.raises(InputError):
        resultant_macaulay(PolySystem([sq, sq], (2, 3)))
    forms3 = [MultiPoly(field, 3, {(2, 0, 0): field.one, (0, 1, 1): field.one}),
              MultiPoly(field, 3, {(0, 2, 0): field.one})]
    with pytest.raises(ShapeError):
        resultant_macaulay(PolySystem(forms3, (2, 2)))


def test_classical_subresultants_gcd_oracle():
    """R_k = 0 for k < deg gcd, R_{deg gcd} != 0 (psc criterion)."""
    p = 101
    F = GF(p)
    rng = random.Random(23)
    for _ in range(40):
        d1 = rng.randrange(2, 5)
        d2 = rng.randrange(d1, 6)
        fc = [rng.randrange(p) for _ in range(d1)] + [rng.randrange(1, p)]
        gc = [rng.randrange(p) for _ in range(d2)] + [rng.randrange(1, p)]
        f = binary_form(F, list(reversed(fc)))
        g = binary_form(F, list(reversed(gc)))
        gdeg = euclid_gcd_degree(fc, gc, p)
        subs = classical_subresultants(f, g, d1, d2)
        for k in range(1, d1):
            if k < gdeg:
                assert not subs[k]
            elif k == gdeg:
                assert bool(subs[k])


def test_shared_root_kills_first_subresultant():
    # f = x^2 - 1, g = x^3 - x share the roots +-1, so gcd degree is 2:
    # both R_1 and the resultant vanish
    f = binary_form(QQ, [1, 0, -1])
    g = binary_form(QQ, [1, 0, -1, 0])
    subs = classical_subresultants(f, g, 2, 3)
    assert subs[1] == 0
    assert sylvester_resultant(f, g, 2, 3) == 0


def test_coprime_pair_has_nonzero_psc_at_one():
    rng = random.Random(31)
    found = 0
    for _ in range(40):
        fc = [rng.randrange(101) for _ in range(3)] + [1]
        gc = [rng.randrange(101) for _ in range(3)] + [1]
        if euclid_gcd_degree(fc, gc, 101) != 0:
            continue
        f = binary_form(F101, list(reversed(fc)))
        g = binary_form(F101, list(reversed(gc)))
        subs = classical_subresultants(f, g, 3, 3)
        assert bool(subs[1])
        assert bool(sylvester_resultant(f, g, 3, 3))
        found += 1
    assert found >= 25


def test_classical_subresultant_input_checks():
    """The checks run before any k is computed, so they also hold for
    d1 = 1, where there is no k at all."""
    cubic3 = MultiPoly(QQ, 3, {(3, 0, 0): QQ.one, (0, 1, 2): QQ.one})
    for d1, form in ((2, MultiPoly(QQ, 3, {(2, 0, 0): QQ.one, (0, 1, 1): QQ.one})),
                     (1, MultiPoly(QQ, 3, {(1, 0, 0): QQ.one, (0, 0, 1): QQ.one}))):
        with pytest.raises(ShapeError):
            classical_subresultants(form, cubic3, d1, 3)
    f = binary_form(QQ, [1, 3, -1])
    g = binary_form(QQ, [2, 0, -1, 5])
    affine = f + MultiPoly.constant(QQ, 2, 1)
    with pytest.raises(InputError):
        classical_subresultants(affine, g, 2, 3)
    with pytest.raises(InputError):
        classical_subresultants(g, f, 3, 2)
    with pytest.raises(InputError):
        sylvester_resultant(MultiPoly.constant(QQ, 2, 1), g, 0, 3)


def test_classical_subresultants_pinned_values():
    """R_k with its sign: upsilon squares R_k, so only a pin sees the sign."""
    f = binary_form(QQ, [1, 3, -1])  # x1^2 + 3 x1 x2 - x2^2
    g = binary_form(QQ, [2, 0, -1, 5])  # 2 x1^3 - x1 x2^2 + 5 x2^3
    assert classical_subresultants(f, g, 2, 3) == {1: 19}
    f = binary_form(F101, [1, 0, -2, 1])  # x1^3 - 2 x1 x2^2 + x2^3
    g = binary_form(F101, [1, 7, 0, -1])  # x1^3 + 7 x1^2 x2 - x2^3
    assert classical_subresultants(f, g, 3, 3) == {1: F101.of(21), 2: F101.of(7)}
