"""Certification of monomial bases of K[x1..xn]/(f1..fn).

The headline test multiplies the resultant of the leading forms by the
multivariate subresultant of the homogenized set at level delta(M); the
set is a basis exactly when the product is non-zero.  An independent test
by ranks of Macaulay matrices provides the cross-checking oracle, and the
generalized Vandermonde identities tie both to root data on systems whose
roots are known in closed form.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import InputError, ShapeError
from .hilbert import DegreeProfile, hilbert_h
from .koszul import koszul_term
from .linalg import Matrix, _prime
from .polynomials import (
    MonomialSet,
    MultiPoly,
    PolySystem,
    homogenize,
    m0_set,
    monomials_of_degree,
)
from .resultants import classical_subresultants, macaulay_matrix, resultant_macaulay
from .subresultants import subresultant_D, subresultant_delta

__all__ = [
    "BasisCertificate",
    "FactorizationReport",
    "MultiplicationMatrix",
    "VandermondeReport",
    "certify_basis",
    "degree_bound_reject",
    "factorize_delta",
    "multiplication_matrix",
    "rank_oracle",
    "sign_constant",
    "upsilon_bivariate",
    "vandermonde_verify",
]


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class BasisCertificate:
    res_value: object
    delta_value: object
    t_used: int
    verdict: str  # "basis" | "not-basis"
    product: object

    @property
    def is_basis(self) -> bool:
        return self.verdict == "basis"


def degree_bound_reject(M: MonomialSet, profile: DegreeProfile) -> bool:
    """True when delta(M) < rho, which already rules out a basis."""
    return M.delta < profile.rho


def _check_question(sys: PolySystem, M: MonomialSet) -> DegreeProfile:
    """Validate a basis question: a square affine system f_1..f_n in
    x_1..x_n and a set M of d_1*...*d_n monomials in the same variables."""
    if sys.nvars != sys.n:
        raise ShapeError("certification expects an affine square system")
    if M.nvars != sys.n:
        raise ShapeError("monomial set lives in the wrong variable count")
    profile = DegreeProfile(sys.degrees)
    if len(M) != profile.bezout:
        raise InputError(
            f"candidate set has {len(M)} monomials, expected {profile.bezout}"
        )
    return profile


def certify_basis(sys: PolySystem, M: MonomialSet) -> BasisCertificate:
    """Res(leading forms) * Delta^delta(M_delta): non-zero iff M is a basis."""
    _check_question(sys, M)
    res = resultant_macaulay(sys.leading_forms())
    delta = M.delta
    sub = subresultant_delta(sys.homogenized(), delta, M.homogenized_at(delta))
    product = res * sub
    verdict = "basis" if product else "not-basis"
    return BasisCertificate(res, sub, delta, verdict, product)


# ---------------------------------------------------------------------------
# the independent rank test


@functools.lru_cache(maxsize=64)
def _macaulay_rows(nvars: int, degrees: tuple, t: int) -> tuple:
    """Macaulay's rows of ``macaulay_matrix`` in degree t (Macaulay 1902):
    the indices of the rows x^b f_i with b_j < d_j for every j < i, b_j the
    exponent of the variable of f_j, the j-th of the last n variables (so
    never x0 of a homogenized system).  Made once per shape: every system
    of the same degrees asks for the same tuple."""
    off = nvars - len(degrees)
    rows, r = [], 0
    for i, d in enumerate(degrees):
        for b in monomials_of_degree(nvars, t - d):
            if all(b[off + j] < degrees[j] for j in range(i)):
                rows.append(r)
            r += 1
    return tuple(rows)


def _onto(sys: PolySystem, t: int, S=()) -> bool:
    """Whether the Macaulay map of ``sys`` is onto the degree-t monomials
    outside S: ranked on Macaulay's rows, and if they fall short, the
    other rows on their kernel."""
    target = koszul_term(sys, t, 0, S)
    rows = _macaulay_rows(sys.nvars, sys.degrees, t)
    return macaulay_matrix(sys, target).rank(rows) == len(target)


def rank_oracle(sys: PolySystem, M: MonomialSet) -> bool:
    """The basis test as two rank tests on Macaulay matrices.

    Uses no complex and no determinant, so it checks the certificate
    independently.  First, Res(leading forms) != 0 exactly when the
    Macaulay map of the leading forms is onto in degree rho + 1 (Macaulay
    1902).  Then the homogenized system is a regular sequence in x0..xn
    (its zeros miss x0 = 0), so for every t >= rho the degree-t piece of
    its ideal has codimension H(t) = d_1*...*d_n = #M, which needs no
    separate check, and x0 is a non-zero-divisor modulo it, so the degree-t
    quotient is the affine quotient.  Hence, at t = max(delta, rho), M is a
    basis exactly when the Macaulay map of the homogenized system is onto
    the degree-t monomials outside M_t.

    Each test is ranked first on Macaulay's rows, the x^b f_i with
    b_j < d_j for every j < i (``_macaulay_rows``).  At t >= rho they
    correspond one to one to the degree-t monomials that some x_i^{d_i}
    divides, which are as many as the columns of both tests: all degree-t
    monomials of the leading forms at rho + 1, and the degree-t monomials
    outside M_t, #M_t = d_1*...*d_n of them, for any M.  On the pure powers
    their square matrix is a permutation matrix, so for generic systems
    with a basis like M0 it has full rank; for a non-basis it is singular.
    The row choice only saves work: ``Matrix.rank`` eliminates the square
    matrix on these rows, over Q first mod 2**30 - 35, and a full rank
    there proves the map onto.  When it falls short, over Z on Q, the
    rank adds that of the other rows times a basis of the square matrix's
    kernel, so the whole tall matrix is never eliminated.
    """
    profile = _check_question(sys, M)
    if not _onto(sys.leading_forms(), profile.rho + 1):
        return False
    t = max(M.delta, profile.rho)
    return _onto(sys.homogenized(), t, M.homogenized_at(t))


# ---------------------------------------------------------------------------
# factorization into n-variable subresultants


@dataclass(frozen=True)
class FactorizationReport:
    applicable: bool
    factors: tuple  # ((t, value), ...)
    product: object


def factorize_delta(leading_forms: PolySystem, M: MonomialSet) -> FactorizationReport:
    """Factor Delta^delta into degree-slice subresultants of the leading forms.

    Applicable only when the degree profile of M matches the Hilbert
    function h at every level 0..rho (then delta(M) = rho and the product
    of the D^t equals Delta^delta up to sign).
    """
    profile = DegreeProfile(leading_forms.degrees)
    field = leading_forms.field
    counts = {}
    for m in M:
        counts[sum(m)] = counts.get(sum(m), 0) + 1
    applicable = all(
        counts.get(t, 0) == hilbert_h(profile, t) for t in range(profile.rho + 1)
    ) and max(counts) <= profile.rho
    if not applicable:
        return FactorizationReport(False, (), field.zero)
    factors = []
    product = field.one
    for t in range(min(profile.degrees), profile.rho + 1):
        value = subresultant_D(leading_forms, t, M.degree_slice(t))
        factors.append((t, value))
        product = product * value
    return FactorizationReport(True, tuple(factors), product)


# ---------------------------------------------------------------------------
# Vandermonde identities


def sign_constant(profile: DegreeProfile) -> int:
    """(-1)^E with E = sum_j d_1..d_{j-1} * d_j(d_j-1)/2 * d_{j+1}..d_n."""
    ds = profile.degrees
    e = 0
    for j, d in enumerate(ds):
        e += math.prod(ds[:j]) * (d * (d - 1) // 2) * math.prod(ds[j + 1 :])
    return -1 if e % 2 else 1


@dataclass(frozen=True)
class VandermondeReport:
    det_value: object
    jacobian_product: object
    sign_const: int
    matched_sign: object  # +1, -1 or None
    identity_residual: object
    disp_exact: object  # bool for M = M0, else None
    resultant_value: object
    subresultant_value: object
    t_used: int

    @property
    def holds(self) -> bool:
        return self.matched_sign is not None


def _factors(m) -> tuple:
    """The monomial x^m as its (i, m_i) pairs with m_i > 0."""
    return tuple((i, e) for i, e in enumerate(m) if e)


def _cleared(f: MultiPoly, p) -> tuple:
    """f as integers over one positive denominator den, the least common
    multiple of its coefficients' (over F_p residues and 1): its terms
    {m: a} with f = sum a x^m / den, and den."""
    if p:
        return {m: c.val for m, c in f.terms.items()}, 1
    den = functools.reduce(math.lcm, (c.denominator for c in f.terms.values()), 1)
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}, den


def _partial(terms: dict, j: int) -> dict:
    """d/dx_j of the integral terms {m: a}, over the same denominator."""
    return {m[:j] + (m[j] - 1,) + m[j + 1 :]: a * m[j] for m, a in terms.items() if m[j]}


def _homogeneous(terms: dict, d: int) -> tuple:
    """Integral terms {m: a} of degree at most d as (a, factors) pairs, the
    ``_factors`` of m with d - |m| appended: read at a root X / D, whose
    power table holds D's powers after the coordinates', each term is
    a X^m D^(d - |m|)."""
    return tuple((a, _factors(m + (d - sum(m),))) for m, a in terms.items())


def _numerator(powers, terms, p) -> int:
    """The sum of ``_homogeneous`` terms at a root, from its power table
    (``powers[i][e]`` is X_i^e, and D^e for i = n), mod p over F_p: the
    numerator of the polynomial's value over den * D^d."""
    total = 0
    for v, factors in terms:
        for i, e in factors:
            v *= powers[i][e]
        total += v
    return total % p if p else total


def _row(powers, polys, p) -> dict:
    """The non-zero ``_numerator`` of each of polys at a root, by position."""
    return {k: v for k, f in enumerate(polys) if (v := _numerator(powers, f, p))}


def vandermonde_verify(sys: PolySystem, roots, M: MonomialSet) -> VandermondeReport:
    """Check det(M(M))^2 * Res^(2*delta - rho + 1) = +-J * (Delta^delta)^2.

    The caller supplies all bezout-many simple roots; each is verified to
    be a common zero, and no two may coincide.  The check runs on
    integers.  Each root is written as integers X over one positive
    denominator D (over F_p residues, and D = 1), and each f_i, and each
    of its partials d f_i / d x_j, as integers over den_i, the least
    common multiple of f_i's coefficient denominators, once per call.
    One table of the powers X_i^e and D^e, e up to the largest d_i and
    the top degree g of M, then gives: the common-root test as
    f_i(zeta) * den_i * D^d_i; the row of the grid M(M) at zeta as the
    X^m * D^(g - |m|) over D^g; and row i of the n x n matrix of partials
    at zeta over den_i * D^(d_i - 1).  Grid and partials go to the one
    elimination kernel as stored rows; the partials' determinant is
    J(zeta), and J is their product over the roots.  Field elements are
    made only for each determinant and for the report.  Res and
    Delta^delta are read from ``certify_basis``.  For M = M0 the exact
    sign constant of the classical identity is checked as well.
    """
    profile = _check_question(sys, M)
    field, p = sys.field, _prime(sys.field)
    roots = [tuple(field.of(x) for x in pt) for pt in roots]
    if len(roots) != profile.bezout:
        raise InputError(f"expected {profile.bezout} roots, got {len(roots)}")
    n, g = sys.n, M.delta
    top = max(*profile.degrees, g)
    polys, partials = [], []
    for f, d in zip(sys.polys, profile.degrees):
        terms, den = _cleared(f, p)
        polys.append(_homogeneous(terms, d))
        partials.append(([_homogeneous(_partial(terms, j), d - 1) for j in range(n)], den, d - 1))
    columns = [_homogeneous({m: 1}, g) for m in M]
    grid, dens = [], []
    jprod = field.one
    for pt in roots:
        if len(pt) != n:
            raise InputError("root with the wrong number of coordinates")
        if p:
            xs, D = [x.val for x in pt], 1
        else:
            D = functools.reduce(math.lcm, (x.denominator for x in pt), 1)
            xs = [x.numerator * (D // x.denominator) for x in pt]
        powers = [[pow(x, e, p) for e in range(top + 1)] for x in (*xs, D)]
        if any(_numerator(powers, f, p) for f in polys):
            raise InputError(f"supplied point {pt} is not a common root")
        grid.append(_row(powers, columns, p))
        dens.append(powers[n][g])
        jac = [_row(powers, row, p) for row, _, _ in partials]
        jdens = None if p else [den * powers[n][k] for _, den, k in partials]
        jprod = jprod * Matrix._valid(field, jac, n, jdens).det()
    if len(set(roots)) != len(roots):
        raise InputError("repeated roots: the identity needs distinct roots")
    det_value = Matrix._valid(field, grid, len(M), None if p else dens).det()

    cert = certify_basis(sys, M)
    res = cert.res_value
    if not res:
        raise InputError("resultant of the leading forms vanishes")
    delta = cert.t_used

    lhs = det_value**2 * res ** (2 * delta - profile.rho + 1)
    rhs = jprod * cert.delta_value**2
    if lhs == rhs:
        matched, residual = 1, field.zero
    elif lhs == -rhs:
        matched, residual = -1, field.zero
    else:
        matched, residual = None, lhs - rhs

    c = sign_constant(profile)
    disp_exact = lhs == c * rhs if set(M) == set(m0_set(profile.degrees)) else None
    return VandermondeReport(
        det_value=det_value,
        jacobian_product=jprod,
        sign_const=c,
        matched_sign=matched,
        identity_residual=residual,
        disp_exact=disp_exact,
        resultant_value=res,
        subresultant_value=cert.delta_value,
        t_used=delta,
    )


def upsilon_bivariate(f1: MultiPoly, f2: MultiPoly, d1: int, d2: int):
    """Closed form of det(M(M^1))^2 / J for a bivariate pair, d1 <= d2."""
    if f1.nvars != 2 or f2.nvars != 2:
        raise ShapeError("expected bivariate polynomials")
    if not 1 <= d1 <= d2:
        raise InputError("need 1 <= d1 <= d2")
    field = f1.field
    lead1 = f1.homogeneous_component(d1)
    lead2 = f2.homogeneous_component(d2)
    res = resultant_macaulay(PolySystem([lead1, lead2], (d1, d2)))
    if not res:
        raise InputError("resultant of the leading forms vanishes; undefined")
    subs = classical_subresultants(lead1, lead2, d1, d2)
    num = field.one
    for k in range(1, d1):
        num = num * subs[k] ** 2
    c_top = lead1.coefficient((d1, 0))
    exp = (d2 - d1) * (d2 - d1 + 1)
    if exp:
        num = num * c_top**exp
    rho = d1 + d2 - 2
    value = num / res ** (rho + 1)
    return value if sign_constant(DegreeProfile((d1, d2))) == 1 else -value


# ---------------------------------------------------------------------------
# multiplication matrices


@dataclass(frozen=True)
class MultiplicationMatrix:
    matrix: Matrix  # bezout x bezout, column j = coordinates of m_j * g
    g: MultiPoly
    kernel_dim: int

    def det(self):
        return self.matrix.det()


def multiplication_matrix(
    sys: PolySystem, M: MonomialSet, g: MultiPoly
) -> MultiplicationMatrix:
    """Matrix of p -> p*g on the quotient, in the certified basis M.

    At a degree t that holds every product m_j * g, the Macaulay matrix
    G_O of the homogenized system onto the degree-t monomials O outside M_t
    has full column rank exactly when M is a basis (``rank_oracle``), so
    G_O X = G_{M_t} has one solution X, and each o in O is
    -sum_u X[o, u] u modulo the ideal.  Column j, the coordinates of
    m_j * g, is its M_t-coefficients minus its O-coefficients times X.
    """
    cert = certify_basis(sys, M)
    if not cert.is_basis:
        raise InputError("monomial set is not a certified basis")
    profile = DegreeProfile(sys.degrees)
    field = sys.field
    t = max(profile.rho, M.delta + max(g.degree, 0))
    hom = sys.homogenized()
    basis = M.homogenized_at(t)
    outside = koszul_term(hom, t, 0, basis)
    x = macaulay_matrix(hom, outside).solve(macaulay_matrix(hom, [(u, ()) for u in basis]))
    if x is None:
        raise InputError("reduction system inconsistent despite a basis certificate")
    products = [homogenize(MultiPoly.monomial(field, m) * g, t) for m in M]
    column = {o: j for j, (o, _) in enumerate(outside)}
    rows = [{column[o]: c for o, c in p.terms.items() if o in column} for p in products]
    reduced = Matrix(field, rows, ncols=len(outside)) @ x
    bmat = Matrix(
        field,
        [[p.coefficient(u) - reduced[j, i] for j, p in enumerate(products)]
         for i, u in enumerate(basis)],
        ncols=len(products),
    )
    return MultiplicationMatrix(bmat, g, len(products) - bmat.rank())
