"""End-to-end certification, Vandermonde identities, multiplication matrices."""
import math
import random
from fractions import Fraction

import pytest

from monobasis import (
    GF,
    QQ,
    DegreeProfile,
    InputError,
    Matrix,
    MonomialSet,
    MultiPoly,
    PolySystem,
    ShapeError,
    certify_basis,
    degree_bound_reject,
    factorize_delta,
    linear_transform,
    m0_set,
    monomials_of_degree,
    multiplication_matrix,
    power_system,
    rank_oracle,
    sign_constant,
    transform_roots,
    upsilon_bivariate,
    vandermonde_verify,
)
from monobasis import linalg
from monobasis.certify import _macaulay_rows
from monobasis.cli import parse_poly
from monobasis.detcomplex import decompose_ascending, decompose_descending
from monobasis.koszul import build_complex, koszul_term
from monobasis.linalg import _P
from monobasis.resultants import macaulay_matrix

from conftest import identity_matrix, lifted_m0, random_system, sparse_affine
from lexicographic import jacobian, m1_set
from sweep import seeded_system, sweep

F13 = GF(13)
F101 = GF(101)


def qpoly(terms, nvars):
    return MultiPoly(QQ, nvars, {m: Fraction(c) for m, c in terms.items()})


def parsed_system(texts, degrees, field):
    return PolySystem([parse_poly(t, len(degrees), field) for t in texts], degrees)


def test_univariate_hand_case():
    """f = x^2 - 1: M = {1, x} is a basis, the Vandermonde matrix on roots
    (1, -1) has determinant -2, and the Jacobian product is -4."""
    f = qpoly({(2,): 1, (0,): -1}, 1)
    sys_ = PolySystem([f], (2,))
    M = MonomialSet([(0,), (1,)])
    cert = certify_basis(sys_, M)
    assert cert.is_basis
    assert rank_oracle(sys_, M)
    rep = vandermonde_verify(sys_, [(1,), (-1,)], M)
    assert rep.det_value**2 == 4
    assert rep.jacobian_product == -4
    assert rep.sign_const == -1
    assert rep.disp_exact is True
    assert rep.matched_sign is not None


def test_sign_constant_values():
    assert sign_constant(DegreeProfile((2,))) == -1
    assert sign_constant(DegreeProfile((2, 2))) == 1
    assert sign_constant(DegreeProfile((2, 2, 2))) == 1
    # E for (2,3): 1*3 + 2*3 = 9, odd
    assert sign_constant(DegreeProfile((2, 3))) == -1


def test_non_basis_detected_and_oracle_agrees():
    """f1 = x1^2 - 1, f2 = x2^2 - 1: {1, x1, x1^2, x1^3} cannot be a basis
    (x1^2 = 1 in the quotient), even though it has the right cardinality."""
    f1 = qpoly({(2, 0): 1, (0, 0): -1}, 2)
    f2 = qpoly({(0, 2): 1, (0, 0): -1}, 2)
    sys_ = PolySystem([f1, f2], (2, 2))
    M = MonomialSet([(0, 0), (1, 0), (2, 0), (3, 0)])
    cert = certify_basis(sys_, M)
    assert not cert.is_basis
    assert rank_oracle(sys_, M) is False


def test_res_zero_alone_rejects_a_set():
    """Leading forms x1^2 and x1^2 + x1*x2 share the zero (0 : 1): Res = 0
    while Delta != 0, and the Macaulay map of the homogenized system is
    onto the monomials outside M_2, so only the resultant test rejects M."""
    M = MonomialSet([(1, 0), (0, 1), (2, 0), (0, 2)])
    for field in (QQ, F101):
        sys_ = parsed_system(["x1^2 - 1", "x1^2 + x1*x2 + 1"], (2, 2), field)
        cert = certify_basis(sys_, M)
        assert not cert.res_value and cert.delta_value
        assert rank_oracle(sys_, M) is False


def test_degree_bound_necessary_condition():
    profile = DegreeProfile((2, 3))
    # all six monomials of degree <= 2 give delta = 2 < rho = 3
    low = MonomialSet(
        [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    )
    assert degree_bound_reject(low, profile)
    sys_, _ = power_system(F13, (2, 3), [1, 1])
    assert not certify_basis(sys_, low).is_basis
    ok = m0_set((2, 3))
    assert not degree_bound_reject(ok, profile)


def test_wrong_cardinality_rejected():
    """Both deciders validate the question the same way: #M = d1*...*dn
    and M in the variables of the system."""
    f1 = qpoly({(2, 0): 1, (0, 0): -1}, 2)
    f2 = qpoly({(0, 2): 1, (0, 0): -1}, 2)
    sys_ = PolySystem([f1, f2], (2, 2))
    for decide in (certify_basis, rank_oracle):
        with pytest.raises(InputError):
            decide(sys_, MonomialSet([(0, 0), (1, 0), (0, 1)]))
        with pytest.raises(InputError):
            decide(sys_, MonomialSet([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]))
        with pytest.raises(ShapeError):
            decide(sys_, MonomialSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]))


def test_grid_system_certificates():
    for degrees, p in [((2, 2), 13), ((2, 3), 13), ((3, 3), 13), ((2, 2, 2), 13)]:
        F = GF(p)
        sys_, roots = power_system(F, degrees, [1] * len(degrees))
        M = m0_set(degrees)
        cert = certify_basis(sys_, M)
        assert cert.is_basis
        rep = vandermonde_verify(sys_, roots, M)
        assert rep.matched_sign is not None
        assert rep.disp_exact is True


def test_vandermonde_rejects_non_roots():
    sys_, roots = power_system(F13, (2, 2), [1, 1])
    bad = list(roots)
    bad[0] = (F13.of(2), F13.of(3))
    with pytest.raises(InputError):
        vandermonde_verify(sys_, bad, m0_set((2, 2)))
    # common roots, but one of them twice: the count alone does not catch it
    repeated = list(roots[:-1]) + [roots[0]]
    with pytest.raises(InputError):
        vandermonde_verify(sys_, repeated, m0_set((2, 2)))


def test_factorization_applicability():
    sys_, _ = power_system(F13, (2, 3), [1, 1])
    lf = sys_.leading_forms()
    rep = factorize_delta(lf, m0_set((2, 3)))
    assert rep.applicable
    assert [t for t, _ in rep.factors] == [2, 3]
    # a basis set whose degree profile deviates from h is not factorable
    skew = MonomialSet([(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (0, 4)])
    rep2 = factorize_delta(lf, skew)
    assert not rep2.applicable


def test_multiplication_by_one_is_identity():
    sys_, _ = power_system(F13, (2, 2), [1, 1])
    M = m0_set((2, 2))
    mm = multiplication_matrix(sys_, M, MultiPoly.constant(F13, 2, 1))
    assert mm.matrix == identity_matrix(F13, 4)
    assert mm.kernel_dim == 0


def test_multiplication_matrix_eigen_structure():
    """g = x1 on the (2,2) grid: eigenvalues are the x1-coordinates of the
    four roots, so det(B) = (+1)(+1)(-1)(-1) = 1 and trace = 0."""
    sys_, roots = power_system(F13, (2, 2), [1, 1])
    M = m0_set((2, 2))
    mm = multiplication_matrix(sys_, M, MultiPoly.variable(F13, 2, 0))
    assert mm.det() == F13.one
    tr = sum((mm.matrix[i, i] for i in range(4)), F13.zero)
    assert tr == F13.zero
    assert mm.kernel_dim == 0


def test_multiplication_matrix_charpoly_via_roots():
    """det(B - g(root) I) = 0 for every root: g evaluated at the variety
    gives exactly the eigenvalues of the multiplication map."""
    rng = random.Random(3)
    sys_, roots = power_system(F13, (2, 2), [3, 5])
    M = m0_set((2, 2))
    g = MultiPoly(
        F13, 2, {m: F13.of(rng.randrange(13)) for m in monomials_of_degree(2, 1)}
    )
    mm = multiplication_matrix(sys_, M, g)
    for pt in roots:
        lam = g.evaluate(pt)
        shifted = Matrix(
            F13,
            [
                [mm.matrix[i, j] - (lam if i == j else F13.zero) for j in range(4)]
                for i in range(4)
            ],
        )
        assert shifted.det() == F13.zero


@pytest.mark.parametrize("field", [F13, QQ], ids=["F13", "Q"])
def test_multiplication_matrix_det_after_its_rank(field):
    """The kernel dimension ranks the same matrix that det later
    eliminates; neither may change its rows, and det(B) is prod g(root)."""
    rng = random.Random(f"mulmat-{field.name}")
    sys_, roots = power_system(field, (2, 2), [2, 3])
    M = m0_set((2, 2))
    # x1 - 2 vanishes on two roots, so its rank is short
    gs = [MultiPoly.variable(field, 2, 0) - MultiPoly.constant(field, 2, 2)]
    gs += [MultiPoly(field, 2, {m: field.of(rng.randrange(-4, 5))
                                for d in range(3) for m in monomials_of_degree(2, d)})
           for _ in range(3)]
    for g in gs:
        mm = multiplication_matrix(sys_, M, g)
        rows = [dict(r) for r in mm.matrix.rows]
        want = field.one
        for pt in roots:
            want = want * g.evaluate(pt)
        assert mm.det() == want
        assert mm.matrix.rows == rows
        assert mm.kernel_dim == sum(1 for pt in roots if not g.evaluate(pt))


def test_multiplication_needs_certified_basis():
    f1 = qpoly({(2, 0): 1, (0, 0): -1}, 2)
    f2 = qpoly({(0, 2): 1, (0, 0): -1}, 2)
    sys_ = PolySystem([f1, f2], (2, 2))
    M = MonomialSet([(0, 0), (1, 0), (2, 0), (3, 0)])
    with pytest.raises(InputError):
        multiplication_matrix(sys_, M, MultiPoly.variable(QQ, 2, 0))


def test_upsilon_matches_roots_on_transformed_grid():
    rng = random.Random(44)
    for d1, d2, p in [(2, 3, 13), (2, 4, 17)]:
        F = GF(p)
        sys0, roots0 = power_system(
            F, (d1, d2), [rng.randrange(1, p), rng.randrange(1, p)]
        )
        while True:
            L = Matrix(F, [[F.of(rng.randrange(p)) for _ in range(2)] for _ in range(2)])
            if L.det():
                break
        sysL = linear_transform(sys0, L)
        rootsL = transform_roots(roots0, L)
        M1 = m1_set(d1, d2)
        grid = [[MultiPoly.monomial(F, m).evaluate(pt) for m in M1] for pt in rootsL]
        det = Matrix(F, grid, ncols=len(M1)).det()
        jac = jacobian(sysL)
        J = F.one
        for pt in rootsL:
            J = J * jac.evaluate(pt)
        ups = upsilon_bivariate(sysL.polys[0], sysL.polys[1], d1, d2)
        assert ups == det * det / J


def test_transform_roots_solves_and_rejects_a_singular_change():
    F = GF(13)
    roots = [(F.of(1), F.of(2)), (F.of(3), F.of(4)), (F.of(5), F.of(0))]
    for field, pts in ((QQ, [tuple(QQ.of(x.val) for x in pt) for pt in roots]), (F, roots)):
        L = Matrix(field, [[field.of(2), field.of(1)], [field.of(1), field.of(1)]])
        moved = transform_roots(pts, L)
        assert [L @ Matrix(field, [[y] for y in pt]) for pt in moved] == [
            Matrix(field, [[x] for x in pt]) for pt in pts
        ]
        singular = Matrix(field, [[field.of(1), field.of(2)], [field.of(2), field.of(4)]])
        with pytest.raises(InputError):
            transform_roots(pts, singular)
    with pytest.raises(ShapeError):
        transform_roots(roots, Matrix(F, [[F.of(1), F.of(0)]]))



def transformed_power_system(seed, degrees, field):
    """A seeded power system x_i^d_i - b_i^d_i, b_i in 1..3, its roots and
    an invertible L with entries in -3..3 to compose it with."""
    rng = random.Random(seed)
    n = len(degrees)
    sys0, roots0 = power_system(field, degrees, [rng.randint(1, 3) for _ in range(n)])
    while True:
        L = Matrix(field, [[field.of(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        if L.det():
            return sys0, roots0, L


@pytest.mark.parametrize("degrees, field", [
    ((2, 2), QQ), ((2, 2), F101), ((3, 2), F13),
    ((2, 2, 2), QQ), ((2, 2, 2), F101), ((3, 2, 2), F13),
], ids=["22-Q", "22-F101", "32-F13", "222-Q", "222-F101", "322-F13"])
def test_vandermonde_matches_the_symbolic_jacobian_and_the_monomial_grid(degrees, field):
    """On M0 and on M0 with its top monomial traded for x1^(d1+1), whose
    exponent passes every degree: J is the product of the symbolic
    Jacobian's values, det_value the det of the grid of monomial values,
    and the sign checks read the identity from these references."""
    sys0, roots0, L = transformed_power_system(f"{degrees}:{field.name}", degrees, field)
    sys_, roots = linear_transform(sys0, L), transform_roots(roots0, L)
    profile = DegreeProfile(degrees)
    jac = jacobian(sys_)
    J = math.prod((jac.evaluate(pt) for pt in roots), start=field.one)
    m0 = m0_set(degrees)
    top = tuple(d - 1 for d in degrees)
    high = (degrees[0] + 1,) + (0,) * (len(degrees) - 1)
    traded = MonomialSet([m for m in m0 if m != top] + [high])
    for M in (m0, traded):
        rep = vandermonde_verify(sys_, roots, M)
        grid = [[MultiPoly.monomial(field, m).evaluate(pt) for m in M] for pt in roots]
        det = Matrix(field, grid, ncols=len(M)).det()
        assert rep.jacobian_product == J
        assert rep.det_value == det
        cert = certify_basis(sys_, M)
        lhs = det**2 * cert.res_value ** (2 * cert.t_used - profile.rho + 1)
        rhs = J * cert.delta_value**2
        assert rep.matched_sign == (1 if lhs == rhs else -1) and lhs in (rhs, -rhs)
        assert rep.identity_residual == field.zero
        if M is m0:
            assert lhs == sign_constant(profile) * rhs and rep.disp_exact is True
        else:
            assert rep.disp_exact is None

    def message(bad):
        with pytest.raises(InputError) as err:
            vandermonde_verify(sys_, bad, m0)
        return str(err.value)

    # a zero of every f_i but f_j: the first root of the power system with
    # its j-th coordinate set to 0, moved by L
    for j in range(len(degrees)):
        z = roots0[0][:j] + (field.zero,) + roots0[0][j + 1 :]
        point = transform_roots([z], L)[0]
        assert message([point] + roots[1:]) == f"supplied point {point} is not a common root"
    assert message(roots[:-1] + roots[:1]) == "repeated roots: the identity needs distinct roots"
    assert message(roots[:-1] + [roots[-1][1:]]) == "root with the wrong number of coordinates"
    assert message(roots[:-1]) == f"expected {len(roots)} roots, got {len(roots) - 1}"


def sparse_system(rng, field, degrees):
    """3 or 4 terms per polynomial, one of them of top degree, coefficients
    +-1..3; such systems often have a vanishing extraneous Macaulay minor."""
    n = len(degrees)
    polys = []
    for d in degrees:
        pool = [m for s in range(d + 1) for m in monomials_of_degree(n, s)]
        support = {rng.choice(monomials_of_degree(n, d))}
        size = rng.choice((3, 4))
        while len(support) < size:
            support.add(rng.choice(pool))
        terms = {m: field.of(rng.choice((-3, -2, -1, 1, 2, 3))) for m in sorted(support)}
        polys.append(MultiPoly(field, n, terms))
    return PolySystem(polys, degrees)


def test_rank_oracle_matches_certificate_on_random_systems():
    rng = random.Random(10)
    M = m0_set((2, 2))
    for _ in range(15):
        sys_ = random_system(rng, F101, (2, 2))
        cert = certify_basis(sys_, M)
        assert cert.is_basis == rank_oracle(sys_, M)

    # sparse draws at (2,2,2), with M0 and with random sets of 8 monomials
    rng = random.Random(11)
    low = [m for s in range(4) for m in monomials_of_degree(3, s)]
    for field in (QQ, F101):
        verdicts = set()
        for _ in range(40):
            sys_ = sparse_system(rng, field, (2, 2, 2))
            for M in (m0_set((2, 2, 2)), MonomialSet(rng.sample(low, 8))):
                answer = rank_oracle(sys_, M)
                assert certify_basis(sys_, M).is_basis == answer
                verdicts.add(answer)
        assert verdicts == {True, False}


def test_rank_oracle_over_q_is_exact_where_its_ranks_fall_short_mod_p():
    """A coefficient equal to _P = 2**30 - 35, the prime that ranks over Q
    are first taken modulo.  Mod _P the leading form of f1 vanishes and M0
    is no basis; over Q, Res = _P^2 and M0 is a basis, which the oracle can
    only see through the elimination over the integers."""
    p = _P
    texts = [f"{p}*x1^2 + x2 - 1", "x2^2 - x1"]
    M = m0_set((2, 2))
    for field, res, basis in ((QQ, p**2, True), (GF(p), 0, False)):
        sys_ = parsed_system(texts, (2, 2), field)
        cert = certify_basis(sys_, M)
        assert cert.res_value == res
        assert cert.is_basis == rank_oracle(sys_, M) == basis


# Macaulay's extraneous minor vanishes at rho+1..rho+3 on both systems;
# the oracle decides by ranks alone, and the certificate, whose resultant
# is a Koszul determinant, needs no such minor either.


def test_rank_oracle_answers_when_res_is_nonzero_and_the_minor_vanishes():
    texts = ["x1*x2 + x1*x3 + x2^2 + x1", "x1^2 - x1*x3 + x2*x3 + 1", "3*x1^2 - x2^2 + x3^2"]
    for field in (QQ, F101):
        sys_ = parsed_system(texts, (2, 2, 2), field)
        assert rank_oracle(sys_, m0_set((2, 2, 2))) is True
        cert = certify_basis(sys_, m0_set((2, 2, 2)))
        assert cert.res_value and cert.is_basis


def test_rank_oracle_rejects_leading_forms_with_a_common_zero():
    texts = ["x1*x2 + 1", "x2*x3 + x1", "x1*x3 + x2"]
    for field in (QQ, F101):
        sys_ = parsed_system(texts, (2, 2, 2), field)
        # the leading forms x1*x2, x2*x3, x1*x3 share the zero (1 : 0 : 0)
        assert all(not f.evaluate((1, 0, 0)) for f in sys_.leading_forms().polys)
        assert rank_oracle(sys_, m0_set((2, 2, 2))) is False


def test_macaulay_rows_are_a_permutation_on_the_pure_powers():
    """On x_1^{d_1}, ..., x_n^{d_n} each of Macaulay's rows holds one entry,
    and no two the same column, in both of the oracle's matrices: the
    leading forms' at rho + 1 and the homogenized system's onto the
    monomials outside M0 at rho and rho + 1, where x0 never counts.  For
    any set M of d_1*...*d_n monomials the rows are as many as the
    columns."""
    rng = random.Random("macaulay-rows")
    for degrees in ((2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2)):
        n, rho = len(degrees), sum(degrees) - len(degrees)
        powers = PolySystem([MultiPoly.monomial(QQ, tuple(d if j == i else 0 for j in range(n)))
                             for i, d in enumerate(degrees)], degrees)
        hom = powers.homogenized()
        cases = [(powers, rho + 1, koszul_term(powers, rho + 1, 0))]
        cases += [(hom, t, koszul_term(hom, t, 0, m0_set(degrees).homogenized_at(t)))
                  for t in (rho, rho + 1)]
        for sys_, t, target in cases:
            m = macaulay_matrix(sys_, target)
            picked = [m.rows[i] for i in _macaulay_rows(sys_.nvars, degrees, t)]
            assert all(len(row) == 1 for row in picked)
            assert sorted(j for row in picked for j in row) == list(range(len(target)))
        monos = [m for e in range(rho + 2) for m in monomials_of_degree(n, e)]
        for _ in range(5):
            M = MonomialSet(rng.sample(monos, math.prod(degrees)))
            t = max(M.delta, rho)
            outside = koszul_term(hom, t, 0, M.homogenized_at(t))
            assert len(_macaulay_rows(hom.nvars, degrees, t)) == len(outside)


def whole_matrix_oracle(sys_, M):
    """``rank_oracle``'s two tests, each on every row of its Macaulay matrix."""
    rho = DegreeProfile(sys_.degrees).rho
    forms, hom = sys_.leading_forms(), sys_.homogenized()
    t = max(M.delta, rho)
    tests = ((forms, koszul_term(forms, rho + 1, 0)),
             (hom, koszul_term(hom, t, 0, M.homogenized_at(t))))
    return all(macaulay_matrix(s, target).rank() == len(target) for s, target in tests)


def spy_on_given_rows(monkeypatch):
    """For each rank on given rows, the matrix's shape and its kernel
    calls, each as (modulus, stops at the first cancelled row, row count,
    pivot count); a rank of every row records no shape."""
    ranks, rank, pivot = [], linalg.Matrix.rank, linalg._pivot

    def spy_rank(m, rows=None):
        ranks.append((m.nrows, m.ncols, []) if rows is not None else None)
        return rank(m, rows)

    def spy(rows, p=None, m=None, stop=False):
        out = pivot(rows, p, m, stop)
        if ranks[-1] is not None:
            ranks[-1][2].append((p, stop, len(rows), len(out[1])))
        return out

    monkeypatch.setattr(linalg.Matrix, "rank", spy_rank)
    monkeypatch.setattr(linalg, "_pivot", spy)
    return ranks


def proved_on_macaulay_rows(field, nrows, ncols, calls) -> bool:
    """Checks one rank on Macaulay's rows: they are eliminated alone, over
    Q first mod _P stopping at the first cancelled row; if they fall
    short, over Z on Q, the kernel ranks the other rows times their
    kernel, and never every row.  Whether those rows alone proved the
    rank full, None for a square matrix, which is ranked whole."""
    prime = None if field is QQ else field.p
    if nrows == ncols:
        # over Q mod _P and, if short, over Z
        whole = [(prime or _P, False, nrows)]
        if prime is None and calls[0][3] < nrows:
            whole.append((None, False, nrows))
        assert [c[:3] for c in calls] == whole, calls
        return None
    if field is QQ:
        assert calls[0][:3] == (_P, True, ncols), calls
        if calls[0][3] == ncols:
            assert len(calls) == 1, calls
            return True
        calls = calls[1:]
    assert calls[0][:3] == (prime, False, ncols), calls
    if calls[0][3] == ncols:
        assert len(calls) == 1, calls
        return True
    assert [c[:3] for c in calls[1:]] == [(prime, False, nrows - ncols)], calls
    return False


@pytest.mark.parametrize("field", [GF(3), F101, QQ], ids=["F3", "F101", "Q"])
def test_rank_oracle_equals_its_tests_on_every_row(field, monkeypatch):
    """Ranking on Macaulay's rows first changes no answer: seeded dense,
    sparse and non-monic sparse systems with M0, M0 lifted, a non-basis of
    monomials below degree rho (there they span a space of dimension
    d_1*...*d_n - 1 when Res != 0) and random sets, the ROADMAP system
    and the system with a coefficient _P.  Both outcomes occur: a proof on
    Macaulay's rows, and the other rows ranked times their kernel."""
    rng = random.Random(f"oracle-rows-{field.name}")
    ranks = spy_on_given_rows(monkeypatch)
    coefficients = range(-5, 6) if field is QQ else range(field.p)
    questions = []
    for seed, degrees in enumerate(((2, 2), (3, 2), (2, 2, 2), (3, 2, 2))):
        n, rho, bezout = len(degrees), sum(degrees) - len(degrees), math.prod(degrees)
        low = [m for e in range(rho) for m in monomials_of_degree(n, e)]
        monos = low + [m for e in range(rho, rho + 2) for m in monomials_of_degree(n, e)]
        sets = [m0_set(degrees), lifted_m0(degrees)]
        if len(low) >= bezout:
            sets.append(MonomialSet(low[:bezout]))
        for draw in range(4):
            for sys_ in (seeded_system(4 * draw + seed, degrees, field, coefficients),
                         sparse_affine(rng, field, degrees),
                         sparse_affine(rng, field, degrees, monic=False)):
                for M in sets + [MonomialSet(rng.sample(monos, bezout)) for _ in range(2)]:
                    questions.append((sys_, M))
    questions.append((parsed_system(["x1*x2 + x1*x3 + x2^2 + x1", "x1^2 - x1*x3 + x2*x3 + 1",
                                     "3*x1^2 - x2^2 + x3^2"], (2, 2, 2), field), m0_set((2, 2, 2))))
    questions.append((parsed_system([f"{_P}*x1^2 + x2 - 1", "x2^2 - x1"], (2, 2), field),
                      m0_set((2, 2))))
    verdicts = set()
    for sys_, M in questions:
        answer = rank_oracle(sys_, M)
        assert answer == whole_matrix_oracle(sys_, M)
        verdicts.add(answer)
    assert verdicts == {True, False}
    proved = [proved_on_macaulay_rows(field, *shape) for shape in ranks if shape is not None]
    assert proved.count(True) >= 50 and proved.count(False) >= 20, proved


def test_rank_oracle_ranks_square_matrices_only_on_a_dense_system(monkeypatch):
    """For a dense (2,2,2,2) system over F_101 and M0, Macaulay's rows prove
    both tests: the kernel sees two square matrices and nothing else."""
    shapes, pivot = [], linalg._pivot

    def spy(rows, p=None, m=None, stop=False):
        shapes.append((len(rows), len(set().union(*rows))))
        return pivot(rows, p, m, stop)

    monkeypatch.setattr(linalg, "_pivot", spy)
    degrees = (2, 2, 2, 2)
    assert rank_oracle(seeded_system(1, degrees, F101, range(-5, 6)), m0_set(degrees))
    assert len(shapes) == 2 and all(r == c for r, c in shapes), shapes


def test_rank_oracle_never_ranks_a_tall_matrix_whole_on_a_dense_non_basis(monkeypatch):
    """For a dense (2,2,2,2) system over F_101 and the first 16 monomials
    below degree rho, a non-basis, Macaulay's rows prove the first test and
    are singular in the second: the kernel sees two square matrices, then
    the other rows of the second matrix on the kernel of its square one,
    and never a whole tall matrix."""
    degrees = (2, 2, 2, 2)
    sys_ = seeded_system(1, degrees, F101, range(-5, 6))
    low = [m for e in range(4) for m in monomials_of_degree(4, e)]
    M = MonomialSet(low[:16])
    hom, t = sys_.homogenized(), max(M.delta, 4)
    tall = macaulay_matrix(hom, koszul_term(hom, t, 0, M.homogenized_at(t)))
    shapes, pivot = [], linalg._pivot

    def spy(rows, p=None, m=None, stop=False):
        shape = len(rows), len(set().union(*rows))
        out = pivot(rows, p, m, stop)
        shapes.append((*shape, len(out[1])))
        return out

    monkeypatch.setattr(linalg, "_pivot", spy)
    assert not rank_oracle(sys_, M)
    (a, b, _), (c, d, r0), (e, f, r) = shapes
    assert a == b and c == d == tall.ncols and r0 < tall.ncols, shapes
    assert e == tall.nrows - tall.ncols and f <= tall.ncols - r0 and r0 + r < tall.ncols, shapes


def test_huge_exponent_is_an_input_error_not_an_enumeration():
    sys_ = parsed_system(["x1^2 - 1", "x2^2 - 1"], (2, 2), QQ)
    for e in (99999999999, 10**9, 99999):
        M = MonomialSet([(e, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(InputError):
            rank_oracle(sys_, M)
        with pytest.raises(InputError):
            certify_basis(sys_, M)


def test_multiplication_matrix_pinned_columns():
    """Column j holds the M-coordinates of m_j * g: on x1^2 = 4, x2^2 = 9
    with M = (1, x1, x2, x1 x2), x1 * x1 = 4 and x1 * x1 x2 = 4 x2."""
    sys_, _ = power_system(QQ, (2, 2), [2, 3])
    mm = multiplication_matrix(sys_, m0_set((2, 2)), MultiPoly.variable(QQ, 2, 0))
    expected = [[0, 4, 0, 0], [1, 0, 0, 0], [0, 0, 0, 4], [0, 0, 1, 0]]
    assert mm.matrix == Matrix(QQ, [[QQ.of(x) for x in row] for row in expected])


def test_upsilon_input_checks():
    three = parsed_system(["x1^2 - x3", "x2^2 - 1", "x3^2 - 1"], (2, 2, 2), QQ)
    with pytest.raises(ShapeError):
        upsilon_bivariate(three.polys[0], three.polys[1], 2, 2)
    # the leading forms x1 (x1 - x2) and (x1 - x2)(x1 + x2) share a factor
    sys_ = parsed_system(["x1^2 - x1*x2", "x1^2 - x2^2 + 1"], (2, 2), QQ)
    with pytest.raises(InputError):
        upsilon_bivariate(sys_.polys[0], sys_.polys[1], 2, 2)


def test_vandermonde_rejects_wrong_root_data():
    sys_, roots = power_system(QQ, (2, 2), [1, 1])
    M = m0_set((2, 2))
    with pytest.raises(InputError):
        vandermonde_verify(sys_, roots[:3], M)
    with pytest.raises(InputError):
        vandermonde_verify(sys_, [pt + (QQ.zero,) for pt in roots], M)
    line = parsed_system(["x1 - x2", "x1 - x2"], (1, 1), QQ)
    with pytest.raises(InputError, match="resultant of the leading forms vanishes"):
        vandermonde_verify(line, [(0, 0)], MonomialSet([(0, 0)]))


def test_certificate_agrees_with_the_oracle_on_every_small_question_over_f3():
    """Every 4-set of the 10 monomials of degree <= 3, for 10 seeded (2,2)
    systems over F_3: 2,100 questions, a fifth of them with Res = 0."""
    counts = sweep((2, 2), 10, GF(3), range(3))
    assert counts.disagreements == []
    assert (counts.questions, counts.res_zero, counts.bases) == (2100, 420, 825)


@pytest.mark.parametrize("field, coefficients, modulus, res_zero, bases", [
    (GF(5), range(5), None, 420, 1272),
    (QQ, range(-1, 2), 101, 840, 957),
], ids=["F5", "Q"])
def test_certificate_agrees_with_the_oracle_on_every_small_question(
    field, coefficients, modulus, res_zero, bases
):
    """The same 2,100 questions on (2,2) systems over F_5, coefficients from
    all of F_5, and over Q, coefficients in -1..1, where the oracle's ranks
    mod a prime fall short on every non-basis and the exact elimination
    over Z decides.  Each Q question is certified once more over F_101 on
    the reduced system, and its Res and Delta must be the Q values mod 101."""
    counts = sweep((2, 2), 10, field, coefficients, modulus)
    assert counts.disagreements == []
    assert (counts.questions, counts.res_zero, counts.bases) == (2100, res_zero, bases)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_scaled_equations_scale_res_and_keep_every_verdict(field):
    """Res is homogeneous of degree d_1*...*d_n / d_i in the coefficients
    of f_i, and c_i f_i generate the same ideal as f_i: so with each c_i in
    {1/2, 2/3, 5/7}, Res moves by prod c_i^(bezout / d_i), and M0, M0
    lifted and a non-basis of monomials below degree rho keep their
    verdicts, by the certificate and by the rank oracle.  Over Q the
    scaled systems' Koszul rows have denominators other than 1, and their
    ascending and descending decompositions agree up to sign."""
    rng = random.Random(f"scaled-{field.name}")
    for seed, degrees in enumerate(((2, 2, 2), (3, 2, 2)), start=1):
        n, rho, bezout = len(degrees), sum(degrees) - len(degrees), math.prod(degrees)
        sys_ = seeded_system(seed, degrees, field, range(-5, 6))
        cs = [field.of(rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(5, 7))))
              for _ in degrees]
        scaled = PolySystem([c * f for c, f in zip(cs, sys_.polys)], degrees)
        factor = field.one
        for c, d in zip(cs, degrees):
            factor = factor * c ** (bezout // d)
        low = [m for e in range(rho) for m in monomials_of_degree(n, e)]
        verdicts = []
        for M in (m0_set(degrees), lifted_m0(degrees), MonomialSet(low[:bezout])):
            cert, moved = certify_basis(sys_, M), certify_basis(scaled, M)
            assert cert.res_value and moved.res_value == factor * cert.res_value
            assert moved.verdict == cert.verdict
            assert rank_oracle(scaled, M) == rank_oracle(sys_, M) == cert.is_basis
            verdicts.append(cert.verdict)
        assert verdicts == ["basis", "basis", "not-basis"]
        if field is QQ:
            hom, M = scaled.homogenized(), m0_set(degrees)
            cx = build_complex(hom, M.delta, M.homogenized_at(M.delta))
            assert any(d != 1 for diff in cx.differentials for d in diff.dens)
            # the ascending decomposition transposes those rows
            delta = decompose_descending(cx).delta
            assert decompose_ascending(cx).delta in (delta, -delta)
