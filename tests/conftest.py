import random

import pytest

from monobasis import GF, Matrix, MonomialSet, MultiPoly, PolySystem, m0_set, monomials_of_degree

F101 = GF(101)


@pytest.fixture
def rng():
    return random.Random(20260826)


def random_poly(rng, field, nvars, degree, homogeneous=False, monic_pure_power=None):
    """Random dense polynomial of the given (exact) degree.

    With monic_pure_power=i the coefficient of x_{i+1}^degree is forced to 1,
    which keeps the leading forms a regular sequence almost surely over F_p.
    """
    terms = {}
    degs = [degree] if homogeneous else range(degree + 1)
    for d in degs:
        for m in monomials_of_degree(nvars, d):
            terms[m] = field.of(rng.randrange(field.p))
    if monic_pure_power is not None:
        pure = tuple(degree if j == monic_pure_power else 0 for j in range(nvars))
        terms[pure] = field.one
    return MultiPoly(field, nvars, terms)


def random_system(rng, field, degrees, homogeneous=False):
    n = len(degrees)
    polys = [
        random_poly(rng, field, n, d, homogeneous=homogeneous, monic_pure_power=i)
        for i, d in enumerate(degrees)
    ]
    return PolySystem(polys, tuple(degrees))


def identity_matrix(field, n):
    return Matrix(field, [{i: field.one} for i in range(n)], n)


def lifted_m0(degrees):
    """M0 with its top monomial times x1, so that delta(M) = rho + 1."""
    top = tuple(d - 1 for d in degrees)
    rest = [m for m in m0_set(degrees) if m != top]
    return MonomialSet(rest + [(top[0] + 1,) + top[1:]])


def sparse_affine(rng, field, degrees, monic=True):
    """f_i = x_i^{d_i} plus one to three terms of degree at most d_i with
    coefficients in -3..3 (zero mod 3 included); not monic, a random
    monomial of degree d_i in place of x_i^{d_i}."""
    n = len(degrees)
    polys = []
    for i, d in enumerate(degrees):
        pool = [m for e in range(d + 1) for m in monomials_of_degree(n, e)]
        terms = {m: field.of(rng.randrange(-3, 4)) for m in rng.sample(pool, rng.randrange(1, 4))}
        if monic:
            terms[tuple(d if j == i else 0 for j in range(n))] = field.one
        else:
            terms[rng.choice(monomials_of_degree(n, d))] = field.one
        polys.append(MultiPoly(field, n, {m: e for m, e in terms.items() if e}))
    return PolySystem(polys, tuple(degrees))
