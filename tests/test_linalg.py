"""Determinant/rank tests against an independent cofactor-expansion oracle."""
import itertools
import math
import random
from fractions import Fraction

import pytest

from monobasis import (
    GF,
    QQ,
    DegreeProfile,
    Matrix,
    MinorSelection,
    NotFullRank,
    ShapeError,
    m0_set,
    rank_oracle,
    select_nonzero_maximal_minor,
)
from monobasis import linalg
from monobasis.fields import is_prime
from monobasis.detcomplex import decompose_descending
from monobasis.koszul import build_complex, koszul_term
from monobasis.linalg import _GATE, _P, _copy, _permutation_sign, _pivot
from monobasis.resultants import macaulay_matrix

from conftest import identity_matrix, random_system
from lexicographic import echelon, lexicographic_minor
from sweep import seeded_system

F101 = GF(101)
F7 = GF(7)
# a user field whose residues span three CPython digits
FP = GF(2**62 - 57)
# the field of the prime a rank over Q is proved modulo before any exact
# elimination, _P = 2**30 - 35
FQ = GF(_P)


def Mq(rows, ncols=None):
    return Matrix(QQ, [[QQ.of(x) for x in r] for r in rows], ncols=ncols)


def cofactor_det(rows, zero, one):
    """Textbook Laplace expansion along the first row (the oracle)."""
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    total = zero
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor, zero, one)
        total = total + term if j % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_det_matches_cofactor_oracle(field):
    rng = random.Random(42)
    for trial in range(100):
        n = rng.randrange(1, 7)
        rows = [
            [field.of(rng.randrange(-9, 10)) for _ in range(n)] for _ in range(n)
        ]
        m = Matrix(field, rows)
        assert m.det() == cofactor_det(rows, field.zero, field.one)


def test_det_identity_and_empty():
    assert identity_matrix(QQ, 4).det() == 1
    assert Matrix(QQ, [], ncols=0).det() == 1


def test_det_multiplicative():
    rng = random.Random(1)
    for _ in range(30):
        a = Matrix(QQ, [[QQ.of(rng.randrange(-5, 6)) for _ in range(4)] for _ in range(4)])
        b = Matrix(QQ, [[QQ.of(rng.randrange(-5, 6)) for _ in range(4)] for _ in range(4)])
        assert (a @ b).det() == a.det() * b.det()


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_rank_via_row_combinations(field):
    rng = random.Random(9)
    for _ in range(60):
        r = rng.randrange(0, 4)
        base = [[field.of(rng.randrange(-9, 10)) for _ in range(5)] for _ in range(r)]
        # pile on random combinations of the base rows; rank can't exceed r
        rows = list(base)
        for _ in range(rng.randrange(0, 4)):
            coeffs = [field.of(rng.randrange(-3, 4)) for _ in range(r)]
            rows.append(
                [
                    sum((c * base[i][j] for i, c in enumerate(coeffs)), field.zero)
                    for j in range(5)
                ]
            )
        rank = Matrix(field, rows, ncols=5).rank()
        assert rank <= r
        if r and all(any(x for x in row) for row in base):
            assert rank >= 1


def test_solve_exact_and_inconsistent():
    a = Mq([[1, 2], [2, 4]])
    rhs_bad = Mq([[1], [3]])
    assert a.solve(rhs_bad) is None
    rhs_ok = Mq([[1], [2]])
    x = a.solve(rhs_ok)
    assert a @ x == rhs_ok


def test_solve_random_square_systems():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 6)
        a = Matrix(F101, [[F101.of(rng.randrange(101)) for _ in range(n)] for _ in range(n)])
        b = Matrix(F101, [[F101.of(rng.randrange(101))] for _ in range(n)], ncols=1)
        x = a.solve(b)
        if a.det():
            assert x is not None and a @ x == b


def test_shape_checks():
    with pytest.raises(ShapeError):
        Mq([[1], [1, 2]])
    a = Mq([[1, 2]])
    with pytest.raises(ShapeError):
        a @ a


def test_minor_selection_example():
    m = Mq([[1, 2, 3], [4, 5, 6]])
    sel = lexicographic_minor(m)
    assert sel.col_indices == (0, 1)
    assert sel.minor_value == -3


def test_minor_selection_rank_deficient():
    m = Mq([[0, 1], [0, 0]])
    with pytest.raises(NotFullRank):
        select_nonzero_maximal_minor(m)


def transposed(m):
    return Matrix(m.field, [[m[i, j] for i in range(m.nrows)] for j in range(m.ncols)],
                  ncols=m.nrows)


def test_minor_selection_rows_axis():
    m = Mq([[0, 0], [1, 0], [0, 2]])
    sel = select_nonzero_maximal_minor(transposed(m))
    assert sel.col_indices == (1, 2)
    assert sel.minor_value == 2


def test_minor_selection_exhaustive_consistency():
    """Whenever full rank exists the greedy pick is genuinely non-singular."""
    rng = random.Random(3)
    for _ in range(80):
        rows = [[F101.of(rng.randrange(3)) for _ in range(4)] for _ in range(2)]
        m = Matrix(F101, rows, ncols=4)
        try:
            sel = select_nonzero_maximal_minor(m)
        except NotFullRank:
            assert m.rank() < 2
            continue
        assert bool(sel.minor_value)
        assert m.submatrix(range(2), sel.col_indices).det() == sel.minor_value


# ---------------------------------------------------------------------------
# the elimination kernel against brute force over every minor


def _random_entry(field, rng, den):
    if field is QQ:
        return Fraction(rng.randrange(-9, 10), rng.choice(den))
    return field.of(rng.randrange(101))


def random_matrix(field, rng, nrows, ncols):
    """Random entries, often rank-deficient: some rows are combinations of
    others and some columns multiples of their left neighbour.  Over Q
    every row draws its denominators from its own set."""
    rank = rng.randrange(0, min(nrows, ncols) + 1) if rng.random() < 0.5 else nrows
    rows = []
    for i in range(nrows):
        den = rng.sample(range(1, 13), 3)
        if i < rank or not rows:
            rows.append([_random_entry(field, rng, den) for _ in range(ncols)])
        else:
            coeffs = [_random_entry(field, rng, den) for _ in rows]
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero)
                         for j in range(ncols)])
    rng.shuffle(rows)
    # some columns repeat a multiple of the one before, so that the
    # greedy choice has to skip them
    for j in range(1, ncols):
        if rng.random() < 0.3:
            c = field.of(rng.randrange(0, 3))
            for r in rows:
                r[j] = c * r[j - 1]
    return rows


def lex_first_minor(rows, nrows, ncols, axis, field):
    """The lexicographically first index set with a non-zero cofactor
    determinant, and that determinant; None when there is none."""
    if axis == "cols":
        candidates = itertools.combinations(range(ncols), nrows)
        pick = lambda idx: [[r[j] for j in idx] for r in rows]
    else:
        candidates = itertools.combinations(range(nrows), ncols)
        pick = lambda idx: [rows[i] for i in idx]
    for idx in candidates:
        d = cofactor_det(pick(idx), field.zero, field.one)
        if d:
            return idx, d
    return None


def cofactor_rank(rows, nrows, ncols, field):
    for size in range(min(nrows, ncols), 0, -1):
        for ri in itertools.combinations(range(nrows), size):
            for ci in itertools.combinations(range(ncols), size):
                if cofactor_det([[rows[i][j] for j in ci] for i in ri], field.zero, field.one):
                    return size
    return 0


FIELDS = pytest.mark.parametrize("field", [F101, FP, QQ], ids=["F101", "FP", "Q"])


@FIELDS
@pytest.mark.parametrize("axis", ["cols", "rows"])
def test_minor_selection_is_lex_first_nonzero_minor(field, axis):
    rng = random.Random(f"select-{axis}-{field.name}")
    for _ in range(200):
        nrows = rng.randrange(0, 5)
        ncols = max(0, nrows + rng.randrange(-1, 3))
        rows = random_matrix(field, rng, nrows, ncols)
        if axis == "rows":
            # transposed, so that the repeated columns become repeated rows
            rows = [[r[j] for r in rows] for j in range(ncols)]
            nrows, ncols = ncols, nrows
        m = Matrix(field, rows, ncols=ncols)
        want = lex_first_minor(rows, nrows, ncols, axis, field)
        # a row set of m is chosen as the pivot columns of its transpose
        selected = m if axis == "cols" else transposed(m)
        if want is None:
            with pytest.raises(NotFullRank):
                lexicographic_minor(selected)
            continue
        sel = lexicographic_minor(selected)
        idx, value = want
        assert sel.col_indices == idx
        assert sel.minor_value == value
        assert selected.submatrix(range(selected.nrows), sel.col_indices).det() == value


@FIELDS
def test_rank_is_largest_nonzero_minor(field):
    rng = random.Random(f"rank-{field.name}")
    for _ in range(150):
        nrows, ncols = rng.randrange(0, 5), rng.randrange(0, 5)
        rows = random_matrix(field, rng, nrows, ncols)
        assert Matrix(field, rows, ncols=ncols).rank() == cofactor_rank(rows, nrows, ncols, field)


@FIELDS
def test_solve_exact_or_none(field):
    rng = random.Random(f"solve-{field.name}")
    for _ in range(150):
        nrows, ncols, k = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(1, 3)
        rows = random_matrix(field, rng, nrows, ncols + k)
        if rng.random() < 0.5 and ncols:
            # make B a combination of A's columns so that a solution exists
            for r in rows:
                r[ncols:] = [sum((r[j] * (i + j) for j in range(ncols)), field.zero)
                             for i in range(k)]
        a = Matrix(field, [r[:ncols] for r in rows], ncols=ncols)
        b = Matrix(field, [r[ncols:] for r in rows], ncols=k)
        consistent = cofactor_rank(rows, nrows, ncols + k, field) == cofactor_rank(
            [r[:ncols] for r in rows], nrows, ncols, field)
        x = a.solve(b)
        if not consistent:
            assert x is None
            continue
        assert x is not None and (x.nrows, x.ncols) == (ncols, k)
        assert a @ x == b


@FIELDS
def test_edge_shapes(field):
    zero_by_three = Matrix(field, [], ncols=3)
    three_by_zero = Matrix(field, [[], [], []], ncols=0)
    assert Matrix(field, [], ncols=0).det() == field.one
    assert zero_by_three.rank() == 0 and three_by_zero.rank() == 0
    for select in (select_nonzero_maximal_minor, lexicographic_minor):
        sel = select(zero_by_three)
        assert (sel.col_indices, sel.minor_value) == ((), field.one)
        sel = select(transposed(three_by_zero))
        assert (sel.col_indices, sel.minor_value) == ((), field.one)
        with pytest.raises(NotFullRank):
            select(three_by_zero)
        with pytest.raises(NotFullRank):
            select(transposed(zero_by_three))
    x = zero_by_three.solve(Matrix(field, [], ncols=2))
    assert (x.nrows, x.ncols) == (3, 2) and x.is_zero()
    assert three_by_zero.solve(Matrix(field, [[field.zero]] * 3)) == Matrix(field, [], ncols=1)
    assert three_by_zero.solve(Matrix(field, [[field.one], [field.zero], [field.zero]])) is None


def unequal_rows(field, rng, nrows, ncols):
    """Rows holding from one to all of their entries, so that the shortest
    row holding a column is often not the first one."""
    rows = []
    for _ in range(nrows):
        support = set(rng.sample(range(ncols), rng.randrange(1, ncols + 1)))
        rows.append([field.of(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 4)))
                     if j in support else field.zero for j in range(ncols)])
    return rows


@FIELDS
def test_shortest_row_pivots_keep_the_values_and_signs(field):
    """Mod p the pivot of a column is its shortest row, which permutes the
    rows; the minor carries the sign of that permutation."""
    rng = random.Random(f"unequal-{field.name}")
    departures = 0
    for _ in range(150):
        nrows = rng.randrange(1, 6)
        ncols = nrows + rng.randrange(0, 2)
        rows = unequal_rows(field, rng, nrows, ncols)
        holders = [i for i, r in enumerate(rows) if r[0]]
        length = lambda i: sum(1 for e in rows[i] if e)
        departures += bool(holders) and min(holders, key=length) != holders[0]
        m = Matrix(field, rows, ncols=ncols)
        if nrows == ncols:
            assert m.det() == cofactor_det(rows, field.zero, field.one)
        assert m.rank() == cofactor_rank(rows, nrows, ncols, field)
        want = lex_first_minor(rows, nrows, ncols, "cols", field)
        if want is None:
            with pytest.raises(NotFullRank):
                lexicographic_minor(m)
            continue
        sel = lexicographic_minor(m)
        assert (sel.col_indices, sel.minor_value) == want
    assert departures >= 25


def test_rank_over_q_is_exact_where_it_is_short_mod_p():
    """Entries that are multiples of _P: the rank mod _P falls short of full,
    so the rank over Q, full or not, must come from the same kernel run
    over the integers."""
    cases = [
        ([[_P, 0], [0, 1]], 2),
        ([[_P, 2 * _P, 1], [3 * _P, 5 * _P, 1]], 2),
        ([[Fraction(_P, 2), Fraction(1, 3)], [Fraction(_P, 5), Fraction(1, 7)]], 2),
        ([[_P, 0, 0], [0, 0, _P]], 2),
        ([[_P, 0], [0, _P], [_P, _P]], 2),
        ([[_P, 2 * _P], [1, 2]], 1),
    ]
    for rows, rank in cases:
        over_q = Mq(rows)
        entries = [[over_q[i, j] for j in range(over_q.ncols)] for i in range(over_q.nrows)]
        assert over_q.rank() == rank == cofactor_rank(entries, over_q.nrows, over_q.ncols, QQ)
        mod_p = Matrix(FQ, [[FQ.of(x) for x in r] for r in entries])
        assert mod_p.rank() < min(mod_p.nrows, mod_p.ncols)


def test_proof_prime_is_the_largest_prime_below_2_to_the_30():
    """One CPython digit holds 30 bits, so a residue mod _P is one digit."""
    assert _P < 2**30 and is_prime(_P)
    assert not any(is_prime(q) for q in range(_P + 1, 2**30))


def spy_on_pivot(monkeypatch):
    """The modulus of each call to the free-pivot kernel, None over Z."""
    calls = []

    def spy(rows, p=None, m=None, stop=False):
        calls.append(p)
        return _pivot(rows, p, m, stop)

    monkeypatch.setattr(linalg, "_pivot", spy)
    return calls


def test_rank_over_q_is_exact_where_a_denominator_is_a_multiple_of_p(monkeypatch):
    """A denominator divisible by _P has no inverse mod _P: such a matrix is
    ranked by the kernel over the integers alone, full or not."""
    calls = spy_on_pivot(monkeypatch)
    cases = [
        ([[Fraction(1, _P), 0], [0, 1]], 2),
        ([[Fraction(1, _P), Fraction(2, _P)], [1, 2]], 1),
        ([[Fraction(1, _P), 1], [1, Fraction(3, 2 * _P)]], 2),
        ([[Fraction(1, _P**2), 1, 0], [0, Fraction(_P, 3), Fraction(1, 5 * _P)]], 2),
        # the last row is twice the first plus three times the second
        ([[Fraction(1, _P), 0, 1],
          [0, Fraction(1, 3 * _P), 1],
          [Fraction(2, _P), Fraction(1, _P), 5]], 2),
        ([[Fraction(1, _P)], [Fraction(1, 2)], [0]], 1),
    ]
    for rows, rank in cases:
        over_q = Mq(rows)
        entries = [[over_q[i, j] for j in range(over_q.ncols)] for i in range(over_q.nrows)]
        calls.clear()
        assert over_q.rank() == rank == cofactor_rank(entries, over_q.nrows, over_q.ncols, QQ)
        assert calls == [None]


# ---------------------------------------------------------------------------
# the kernel over Q against the kernel mod p, on matrices too large for the
# cofactor oracle


def spread_rows(rng, nrows, ncols):
    """Sparse rational rows whose leftmost columns are spread over the
    matrix: row i holds column perm[i] and starts at most two columns left
    of it, so most rows skip the pivot steps left of their first entry and
    many a pivot row is picked at a lower level than the step it serves.
    Denominators are 1..6, so 7 and 101 divide none.  About one matrix in
    five repeats a multiple of one of its rows."""
    perm = rng.sample(range(ncols), nrows)
    rows = []
    for target in perm:
        first = max(0, target - rng.randrange(3))
        support = {first, target, *rng.sample(range(first, ncols), min(3, ncols - first))}
        rows.append([Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 7))
                     if j in support else Fraction(0) for j in range(ncols)])
    if nrows > 1 and rng.random() < 0.2:
        i, j = rng.sample(range(nrows), 2)
        factor = Fraction(rng.choice((-2, 3)), 5)
        rows[j] = [factor * x for x in rows[i]]
    return rows


def reduced(m, field):
    return Matrix(field, [[field.of(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)],
                  ncols=m.ncols)


def test_q_determinants_and_minors_reduce_to_the_fp_ones():
    """det commutes with reduction mod a prime dividing no denominator; a
    chosen minor that stays non-zero mod p keeps its columns mod p, since
    every prefix of the columns then has the same rank in both fields."""
    rng = random.Random("spread")
    nonzero = kept = 0
    for _ in range(24):
        n = rng.randrange(12, 41)
        square = Matrix(QQ, spread_rows(rng, n, n))
        det = square.det()
        nonzero += bool(det)
        for field in (F7, F101):
            assert reduced(square, field).det() == field.of(det)
        wide = Matrix(QQ, spread_rows(rng, n, n + rng.randrange(1, 8)))
        try:
            sel = lexicographic_minor(wide)
        except NotFullRank:
            for field in (F7, F101):
                with pytest.raises(NotFullRank):
                    lexicographic_minor(reduced(wide, field))
            continue
        assert wide.submatrix(range(n), sel.col_indices).det() == sel.minor_value != 0
        for field in (F7, F101):
            value = field.of(sel.minor_value)
            if value:
                mod = lexicographic_minor(reduced(wide, field))
                assert (mod.col_indices, mod.minor_value) == (sel.col_indices, value)
                kept += 1
    assert nonzero >= 12 and kept >= 24


def test_solve_over_q_on_large_sparse_consistent_systems():
    rng = random.Random("spread-solve")
    for _ in range(24):
        n = rng.randrange(12, 41)
        a = Matrix(QQ, spread_rows(rng, n, n + rng.randrange(0, 5)))
        x0 = Matrix(QQ, [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(2)]
                         for _ in range(a.ncols)])
        b = a @ x0
        x = a.solve(b)
        assert x is not None and a @ x == b


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_solve_sets_the_free_variables_to_zero(field):
    """On consistent underdetermined systems, with dependent rows and zero
    rows among them, the rows of X that hold entries index linearly
    independent columns of A: every other unknown is a free variable, set
    to zero."""
    rng = random.Random(f"free-variables-{field.name}")
    entry = nonzero_entry(field, rng)
    for _ in range(40):
        nrows = rng.randrange(1, 16)
        ncols = nrows + rng.randrange(1, 8)
        a = Matrix(field, dependent_rows(field, rng, nrows, ncols), ncols)
        x0 = Matrix(field, [{l: entry() for l in range(2) if rng.random() < 0.7}
                            for _ in range(ncols)], 2)
        b = a @ x0
        x = a.solve(b)
        assert x is not None and (x.nrows, x.ncols) == (ncols, 2)
        assert a @ x == b
        held = [j for j, row in enumerate(x.rows) if row]
        assert a.submatrix(range(nrows), held).rank() == len(held) <= a.rank()


# ---------------------------------------------------------------------------
# the sparse layout: rows are dicts of the non-zero entries, and every
# operation agrees with the same matrix written out in full


def dense(m):
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def dense_product(a, b, zero):
    return [[sum((x * y for x, y in zip(r, col)), zero) for col in zip(*b)] for r in a]


@pytest.mark.parametrize("field", [F7, QQ], ids=["F7", "Q"])
def test_list_rows_and_dict_rows_make_the_same_matrix(field):
    rng = random.Random(f"layout-{field.name}")
    for _ in range(50):
        nrows, ncols = rng.randrange(0, 5), rng.randrange(1, 6)
        rows = [[field.of(rng.choice((0, 0, 1, -2))) for _ in range(ncols)] for _ in range(nrows)]
        sparse = [{j: e for j, e in enumerate(r) if e} for r in rows]
        m = Matrix(field, rows, ncols=ncols)
        assert m == Matrix(field, sparse, ncols=ncols)
        assert m.rows == sparse and dense(m) == rows
        assert m.is_zero() == (not any(map(any, rows)))
        # rows of field elements are stored converted, as plain ints
        assert all(type(v) is int for r in Matrix(field, sparse, ncols=ncols).rows for v in r.values())
    row = {1: field.one}
    m = Matrix(field, [row, [field.zero, field.one, field.zero]], ncols=3)
    assert m.rows[0] == row and m.rows[1] == {1: field.one}
    with pytest.raises(ShapeError):
        Matrix(field, [row, [field.one] * 2], ncols=3)
    m = Matrix(field, [{1: field.one}], ncols=3)
    assert m[0, 0] == field.zero and m[0, 1] == field.one and m[0, -2] == field.one
    for key in ((0, 3), (0, -4), (1, 0)):
        with pytest.raises(IndexError):
            m[key]
    with pytest.raises(ShapeError):
        Matrix(field, [{0: field.one}])


@pytest.mark.parametrize("field", [F7, QQ], ids=["F7", "Q"])
def test_products_drop_the_entries_that_cancel(field):
    """Entries in -1..1 make many products cancel; the product stores
    none of those zeros, and its det and rank are those of the dense
    product."""
    rng = random.Random(f"matmul-{field.name}")
    cancelled = 0
    for _ in range(60):
        n, inner = rng.randrange(1, 5), rng.randrange(1, 5)
        a = [[field.of(rng.randrange(-1, 2)) for _ in range(inner)] for _ in range(n)]
        b = [[field.of(rng.randrange(-1, 2)) for _ in range(n)] for _ in range(inner)]
        want = dense_product(a, b, field.zero)
        got = Matrix(field, a) @ Matrix(field, b)
        assert all(v for row in got.rows for v in row.values())
        assert got == Matrix(field, want) and dense(got) == want
        assert got.det() == cofactor_det(want, field.zero, field.one)
        assert got.rank() == cofactor_rank(want, n, n, field)
        cancelled += sum(
            1 for r, w in zip(a, want) for j, v in enumerate(w)
            if not v and any(x * b[k][j] for k, x in enumerate(r))
        )
    assert cancelled > 0


def test_submatrix_repeats_and_reorders_columns():
    """A column index may repeat and come in any order: each occurrence
    is a column of its own, as in the dense slice."""
    rng = random.Random(17)
    for _ in range(50):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = [[F7.of(rng.choice((0, 0, 1, 3))) for _ in range(ncols)] for _ in range(nrows)]
        m = Matrix(F7, rows)
        ri = [rng.randrange(nrows) for _ in range(rng.randrange(0, 5))]
        ci = [rng.randrange(ncols) for _ in range(rng.randrange(0, 7))]
        want = Matrix(F7, [[rows[i][j] for j in ci] for i in ri], ncols=len(ci))
        assert m.submatrix(ri, ci) == want
    m = Matrix(F7, [[F7.of(1), F7.of(2)]])
    assert dense(m.submatrix([0, 0], [1, 0, 1])) == [[F7.of(2), F7.of(1), F7.of(2)]] * 2
    with pytest.raises(IndexError):
        m.submatrix([0], [2])


# ---------------------------------------------------------------------------
# rank with a free pivot against the left-to-right kernel, on matrices too
# large for the cofactor oracle

F3 = GF(3)


def left_to_right_rank(m):
    """The pivot count of the reference elimination, which takes the
    columns in order, over Z for Q, so that it proves nothing mod _P."""
    return len(echelon(m).pivots)


def nonzero_entry(field, rng):
    if field is QQ:
        return lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 5))
    return lambda: field.of(rng.randrange(1, field.p))


def dependent_rows(field, rng, nrows, ncols):
    """Sparse dict rows of one to six entries, a third of them zero rows,
    copies of other rows or sums of two or three other rows, shuffled."""
    entry = nonzero_entry(field, rng)
    rows = []
    for _ in range(nrows - nrows // 3):
        support = rng.sample(range(ncols), rng.randrange(1, min(6, ncols) + 1))
        rows.append({j: entry() for j in support})
    while len(rows) < nrows:
        kind = rng.choice(("zero", "copy", "sum", "sum"))
        if kind == "zero":
            rows.append({})
        elif kind == "copy":
            rows.append(dict(rng.choice(rows)))
        else:
            acc = {}
            for row in rng.sample(rows, rng.randrange(2, 4)):
                c = entry()
                for j, e in row.items():
                    acc[j] = acc.get(j, field.zero) + c * e
            rows.append({j: e for j, e in acc.items() if e})
    rng.shuffle(rows)
    return rows


def random_shape(rng):
    kind = rng.choice(("tall", "wide", "square"))
    if kind == "square":
        n = rng.randrange(20, 81)
        return n, n
    small = rng.randrange(20, 61)
    large = rng.randrange(small + 5, 81)
    return (large, small) if kind == "tall" else (small, large)


class LoggedRow(dict):
    """A row that counts the entries set again after they cancelled."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log
        self.cancelled = set()

    def __delitem__(self, j):
        super().__delitem__(j)
        self.cancelled.add(j)

    def __setitem__(self, j, v):
        if j in self.cancelled and j not in self:
            self.log.append(j)
        super().__setitem__(j, v)


@pytest.mark.parametrize("field", [F3, F101, FP], ids=["F3", "F101", "FP"])
def test_free_pivot_rank_matches_the_left_to_right_kernel_mod_p(field):
    rng = random.Random(f"free-pivot-{field.name}")
    shapes, short, refilled = set(), 0, []
    for _ in range(40):
        nrows, ncols = random_shape(rng)
        if rng.random() < 0.3:
            # mostly of full rank
            nrows, ncols = sorted((nrows, ncols))
            rows = [[field.of(e.numerator) for e in r] for r in spread_rows(rng, nrows, ncols)]
        else:
            rows = dependent_rows(field, rng, nrows, ncols)
        shapes.add((nrows > ncols) - (nrows < ncols))
        m = Matrix(field, rows, ncols)
        rank = m.rank()
        assert rank == left_to_right_rank(m)
        short += rank < min(nrows, ncols)
        logged = [LoggedRow(r, refilled) for r in m.rows]
        assert len(_pivot(logged, field.p)[1]) == rank
    assert shapes == {-1, 0, 1} and 20 <= short <= 35
    if field is F3:
        # F_3 cancels often: some entry cancels and is filled in again
        assert refilled


def test_free_pivot_rank_over_q_by_proof_and_by_fallback():
    """A full rank mod _P is the proof.  Short ones go through the exact
    fallback, and so do the mostly full spread matrices with a row that is
    a multiple of _P."""
    rng = random.Random("free-pivot-Q")
    proved = fallback = lifted = 0
    for _ in range(30):
        nrows, ncols = random_shape(rng)
        if rng.random() < 0.5:
            nrows, ncols = sorted((nrows, ncols))
            rows = spread_rows(rng, nrows, ncols)
            if rng.random() < 0.5:
                i = rng.randrange(nrows)
                rows[i] = [e * _P for e in rows[i]]
        else:
            rows = dependent_rows(QQ, rng, nrows, ncols)
        m = Matrix(QQ, rows, ncols)
        rank = m.rank()
        assert rank == left_to_right_rank(m)
        full, mod_p = min(nrows, ncols), reduced(m, FQ).rank()
        proved += mod_p == full
        fallback += mod_p < full
        lifted += mod_p < rank == full
    assert proved >= 5 and fallback >= 10 and lifted >= 3


def test_rank_oracle_over_q_is_proved_mod_p(monkeypatch):
    """Both Macaulay matrices of ``rank_oracle`` for a dense (3,2,2,2)
    system over Q and its set M0 have full rank: each is ranked once mod
    _P, which proves it, and never over the integers."""
    degrees = (3, 2, 2, 2)
    sys_ = seeded_system(1, degrees, QQ, range(-5, 6))
    calls = spy_on_pivot(monkeypatch)
    assert rank_oracle(sys_, m0_set(degrees))
    assert calls == [_P, _P]


def test_rank_oracle_matrices_keep_their_rank():
    """The two Macaulay matrices ``rank_oracle`` ranks, for a dense
    (3,2,2,2) system over F_101 and its set M0."""
    degrees = (3, 2, 2, 2)
    sys_ = random_system(random.Random(3222), F101, degrees)
    M = m0_set(degrees)
    rho = DegreeProfile(degrees).rho
    forms, hom = sys_.leading_forms(), sys_.homogenized()
    top = koszul_term(forms, rho + 1, 0)
    outside = koszul_term(hom, max(M.delta, rho), 0, M.homogenized_at(max(M.delta, rho)))
    for m in (macaulay_matrix(forms, top), macaulay_matrix(hom, outside)):
        assert m.nrows > m.ncols
        assert m.rank() == left_to_right_rank(m) == m.ncols


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_linear_algebra_leaves_the_rows_alone(field):
    """Dict rows are stored without a copy and every kernel eliminates in
    place, so each operation must eliminate a copy."""
    rng = random.Random(f"snapshot-{field.name}")
    for _ in range(12):
        n = rng.randrange(6, 16)
        for nrows, ncols in ((n, n), (n + 3, n), (n, n + 3)):
            m = Matrix(field, dependent_rows(field, rng, nrows, ncols), ncols)
            rhs = Matrix(field, dependent_rows(field, rng, nrows, 2), 2)
            before = [dict(r) for r in m.rows], [dict(r) for r in rhs.rows]
            m.rank()
            if nrows == ncols:
                m.det()
            m.solve(rhs)
            try:
                select_nonzero_maximal_minor(m)
            except NotFullRank:
                pass
            assert (m.rows, rhs.rows) == before


# ---------------------------------------------------------------------------
# the free-pivot minor against the cofactor oracle and the lexicographic
# reference


def kernel_steps(m):
    """The free-pivot kernel's pivot rows and columns, in step order, on a
    copy of m (over Z for Q)."""
    if m.field is QQ:
        return _pivot(_copy(m.rows)[0])[:2]
    return _pivot(_copy(m.rows)[0], m.field.p)[:2]


def unstopped_selection(m):
    """The selection of one kernel run on a copy of m that does not stop:
    its pivot columns, sorted, and the minor on them, signed by the row
    and the column permutation of its steps; None unless every row pivots."""
    if m.field is QQ:
        (work, scale), p = _copy(m.rows, m.dens), None
    else:
        work, scale, p = _copy(m.rows)[0], 1, m.field.p
    order, cols, minor = _pivot(work, p)
    if len(order) < m.nrows:
        return None
    sign = _permutation_sign(order) * _permutation_sign(cols)
    return MinorSelection(tuple(sorted(cols)), m.field.of(sign * minor) / m.field.of(scale))


def lower_level_pivots(m, order, cols):
    """Replays the kernel's steps by Gaussian elimination on m written out
    in full, and counts the pivot rows that did not hold the column of the
    step before theirs: over Z those are scaled up from a lower Bareiss
    level before they serve."""
    rows, held, lower = dense(m), set(), 0
    for k, (i, c) in enumerate(zip(order, cols)):
        lower += k > 0 and i not in held
        pivot = rows[i]
        held = {h for h, r in enumerate(rows) if r[c]}
        inv = m.field.one / pivot[c]
        for h in held - {i}:
            f = rows[h][c] * inv
            rows[h] = [x - f * y for x, y in zip(rows[h], pivot)]
        rows[i] = [m.field.zero] * m.ncols
    return lower


def row_rule_steps(m, monkeypatch):
    """The kernel's steps on m with the gate shut: the shortest row at its
    least-held column at every step, the rule alone."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_GATE", math.inf)
        return kernel_steps(m)


def res_stages(field):
    """Maps of the resultant complex of the leading forms of seed 1's
    dense (2,2,2,2) system, at degree rho + 1 = 5: its stage-1 map d_1
    (80 x 56), the square 56 x 56 stage 1 of its descending decomposition,
    d_1's transpose (56 x 80) and d_2 (24 x 80)."""
    degrees = (2, 2, 2, 2)
    forms = seeded_system(1, degrees, field, range(-5, 6)).leading_forms()
    c = build_complex(forms, sum(degrees) - len(degrees) + 1, ())
    d1, d2 = c.differentials[:2]
    chosen = set(decompose_descending(c).stage_minors[1].col_indices)
    square = Matrix(field, [r for i, r in enumerate(d1.rows) if i not in chosen], d1.ncols)
    transposed = Matrix(field, [{i: r[j] for i, r in enumerate(d1.rows) if j in r}
                                for j in range(d1.ncols)], d1.nrows)
    return d1, square, transposed, d2


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_a_singleton_column_pivots_before_the_shortest_row(field, monkeypatch):
    """Rows 1..11 hold columns 1..11 and row 0 all twelve, so column 0 is
    row 0's alone.  The shortest row, the last one, would cost 10 * 11
    entry updates at any of its columns, past _GATE; column 0 at row 0
    costs none, so it is the first pivot, where the row rule takes the
    last row.  The determinant is the reference's.  With a thirteenth row
    on columns 1..11 the matrix is tall, and the row rule stays."""
    rng = random.Random(f"singleton-{field.name}")
    entry = nonzero_entry(field, rng)
    rows = [{j: entry() for j in range(1, 12)} for _ in range(13)]
    rows[0][0] = entry()
    m = Matrix(field, rows[:12], 12)
    assert 10 * 11 > _GATE
    order, cols = kernel_steps(m)
    assert (order[0], cols[0]) == (0, 0)
    assert row_rule_steps(m, monkeypatch)[0][0] == 11
    assert m.det() == lexicographic_minor(m).minor_value != field.zero
    tall = Matrix(field, rows, 12)
    assert kernel_steps(tall) == row_rule_steps(tall, monkeypatch)
    assert kernel_steps(tall)[0][0] == 12
    assert tall.rank() == left_to_right_rank(tall) == 12


@pytest.mark.parametrize("field", [F3, F101, QQ], ids=["F3", "F101", "Q"])
def test_small_matrices_keep_the_row_rule(field, monkeypatch):
    """On at most nine rows and nine columns no step costs more than
    8 * 8 entry updates, within _GATE, so the kernel takes exactly the row
    rule's pivots.  A kernel that also searched the columns at every step
    would take other pivots on many of these sparse matrices."""
    assert 8 * 8 <= _GATE
    rng = random.Random(f"row-rule-{field.name}")
    entry = nonzero_entry(field, rng)
    searched = 0
    for _ in range(60):
        nrows, ncols = rng.randrange(2, 10), rng.randrange(2, 10)
        rows = [{j: entry() for j in rng.sample(range(ncols), rng.randrange(1, min(4, ncols) + 1))}
                for _ in range(nrows)]
        m = Matrix(field, rows, ncols)
        steps = kernel_steps(m)
        assert steps == row_rule_steps(m, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_GATE", 0)
            searched += kernel_steps(m) != steps
    assert searched >= 10, searched


@pytest.mark.parametrize("field", [F3, F101, FP, QQ], ids=["F3", "F101", "FP", "Q"])
def test_free_pivot_minor_is_the_minor_on_its_columns(field, monkeypatch):
    """Small sparse matrices against the cofactor oracle, larger ones with
    rows spread over the columns against the left-to-right kernel, and rows
    with copies, sums and zero rows, which both selectors must reject.
    Then the resultant stages of a dense (2,2,2,2) system, large enough
    for the kernel to pivot on a least-held column: the rank and the
    determinant are the left-to-right reference's, and each whole-matrix
    selection on a wide map is a non-zero minor, the reference's on its
    columns."""
    rng = random.Random(f"free-minor-{field.name}")
    entry = nonzero_entry(field, rng)
    checked = lower = 0
    for trial in range(60):
        kind = ("small", "spread", "dependent")[trial % 3]
        if kind == "small":
            nrows = rng.randrange(1, 6)
            ncols = nrows + rng.randrange(0, 4)
            rows = [{j: entry() for j in rng.sample(range(ncols), rng.randrange(1, ncols + 1))}
                    for _ in range(nrows)]
        elif kind == "spread":
            nrows = rng.randrange(8, 31)
            ncols = nrows + rng.randrange(0, 6)
            rows = spread_rows(rng, nrows, ncols)
            if field is not QQ:
                rows = [[field.of(e.numerator) for e in r] for r in rows]
        else:
            nrows = rng.randrange(6, 31)
            ncols = nrows + rng.randrange(0, 8)
            rows = dependent_rows(field, rng, nrows, ncols)
        m = Matrix(field, rows, ncols)
        try:
            want = lexicographic_minor(m)
        except NotFullRank:
            with pytest.raises(NotFullRank):
                select_nonzero_maximal_minor(m)
            continue
        assert kind != "dependent"
        sel = select_nonzero_maximal_minor(m)
        assert sel == unstopped_selection(m)
        assert len(sel.col_indices) == len(want.col_indices) == nrows
        assert list(sel.col_indices) == sorted(set(sel.col_indices))
        sub = m.submatrix(range(nrows), sel.col_indices)
        if nrows <= 6:
            value = cofactor_det(dense(sub), field.zero, field.one)
        else:
            value = lexicographic_minor(sub).minor_value
        assert sel.minor_value == sub.det() == value != field.zero
        checked += 1
        lower += lower_level_pivots(m, *kernel_steps(m))
    assert checked >= 20 and lower >= 30
    # the resultant stages of a dense (2,2,2,2) system, where steps pass
    # _GATE and some pivot on a least-held column instead of a shortest row
    d1, square, *wide = res_stages(field)
    assert d1.rank() == left_to_right_rank(d1) == 56
    assert square.det() == lexicographic_minor(square).minor_value != field.zero
    for m in wide:
        sel = select_nonzero_maximal_minor(m)
        assert sel == unstopped_selection(m)
        sub = m.submatrix(range(m.nrows), sel.col_indices)
        assert sel.minor_value == lexicographic_minor(sub).minor_value != field.zero
    assert any(kernel_steps(m) != row_rule_steps(m, monkeypatch) for m in (d1, *wide))


# ---------------------------------------------------------------------------
# the selector on given columns


@pytest.mark.parametrize("field", [F3, F101, FP, QQ], ids=["F3", "F101", "FP", "Q"])
def test_selector_takes_the_given_columns_when_their_minor_is_nonzero(field, monkeypatch):
    """Given as many columns as rows, and fewer than all, the selection is
    those columns, sorted, with the cofactor determinant on them, when it
    is non-zero, and the free-pivot selection otherwise.  Columns on a
    square matrix, or of another length, change nothing: the kernel runs
    once, on the whole matrix.  Dependent rows raise NotFullRank whatever
    columns are given."""
    rng = random.Random(f"given-columns-{field.name}")
    calls = spy_on_pivot(monkeypatch)
    taken = fallen = ignored = raised = 0
    for _ in range(150):
        nrows = rng.randrange(0, 5)
        ncols = nrows + rng.randrange(0, 4)
        m = Matrix(field, random_matrix(field, rng, nrows, ncols), ncols)
        try:
            free = select_nonzero_maximal_minor(m)
        except NotFullRank:
            free = None
        assert free == unstopped_selection(m)
        for size in (nrows - 1, nrows, nrows + 1):
            if not 0 <= size <= ncols:
                continue
            if rng.random() < 0.8:
                cols = rng.sample(range(ncols), size)
            else:  # repeats, so that a square matrix gets columns other than its own
                cols = rng.choices(range(ncols), k=size)
            wide = size == nrows < ncols
            calls.clear()
            if free is None:
                with pytest.raises(NotFullRank):
                    select_nonzero_maximal_minor(m, cols)
                assert len(calls) == 1 + wide
                raised += 1
                continue
            sel = select_nonzero_maximal_minor(m, cols)
            value = wide and cofactor_det([[r[j] for j in sorted(cols)] for r in dense(m)],
                                          field.zero, field.one)
            if value:
                assert (sel.col_indices, sel.minor_value) == (tuple(sorted(cols)), value)
                assert len(calls) == 1
                taken += 1
            else:
                assert sel == free
                assert len(calls) == 1 + wide
                fallen += wide
                ignored += not wide
    assert min(taken, fallen, ignored, raised) >= 10, (taken, fallen, ignored, raised)


# ---------------------------------------------------------------------------
# every minor run stops at its first cancelled row


def spy_on_runs(monkeypatch):
    """For each call to the kernel: whether it stops at the first cancelled
    row, how many rows it pivoted, and how many a run on a copy of the same
    rows that does not stop pivots."""
    runs = []

    def spy(rows, p=None, m=None, stop=False):
        full = _pivot([dict(r) for r in rows], p, m)
        out = _pivot(rows, p, m, stop)
        runs.append((stop, len(out[0]), len(full[0])))
        return out

    monkeypatch.setattr(linalg, "_pivot", spy)
    return runs


def early_dependent_rows(field, rng, nrows, ncols):
    """Rows of three to six entries, and two rows on the same two columns,
    the second a multiple of the first: the kernel pivots on one of the
    two shortest rows first, and the other cancels at that first step."""
    entry = nonzero_entry(field, rng)
    rows = [{j: entry() for j in rng.sample(range(ncols), rng.randrange(3, 7))}
            for _ in range(nrows - 2)]
    short, c = {j: entry() for j in rng.sample(range(ncols), 2)}, entry()
    rows += [short, {j: c * e for j, e in short.items()}]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", [F3, F101, FP, QQ], ids=["F3", "F101", "FP", "Q"])
def test_every_minor_run_stops_at_its_first_cancelled_row(field, monkeypatch):
    """Every kernel run of a selection or a determinant stops at the first
    row that cancels.  On rows where an early pivot row is a multiple of
    another, the selection raises NotFullRank after a run that took one
    step, where a run that does not stop pivots every independent row; on
    a wide matrix given columns are tried first, by a run that stops too.
    On independent rows no row cancels: the selection is that of a run
    that does not stop.  Last a singular square stage of a resultant
    complex, large enough for the kernel to pivot on least-held columns."""
    rng = random.Random(f"stop-{field.name}")
    runs = spy_on_runs(monkeypatch)
    reached = 0
    for trial in range(30):
        nrows = rng.randrange(6, 31)
        ncols = nrows + (trial % 2) * rng.randrange(1, 9)
        m = Matrix(field, early_dependent_rows(field, rng, nrows, ncols), ncols)
        for cols in (None, rng.sample(range(ncols), nrows)):
            runs.clear()
            with pytest.raises(NotFullRank):
                select_nonzero_maximal_minor(m, cols)
            assert len(runs) == 1 + (cols is not None and nrows < ncols)
            assert all(stop for stop, _, _ in runs)
            _, pivoted, full = runs[-1]
            assert pivoted == 1 < full < nrows
            reached += full == nrows - 1
        if nrows == ncols:
            runs.clear()
            assert m.det() == field.zero
            assert len(runs) == 1 and runs[0][:2] == (True, 1)
    assert reached >= 30, reached
    for _ in range(10):
        nrows = rng.randrange(8, 31)
        ncols = nrows + rng.randrange(0, 6)
        rows = spread_rows(rng, nrows, ncols)
        if field is not QQ:
            rows = [[field.of(e.numerator) for e in r] for r in rows]
        m = Matrix(field, rows, ncols)
        want = unstopped_selection(m)
        runs.clear()
        if want is None:
            with pytest.raises(NotFullRank):
                select_nonzero_maximal_minor(m)
        else:
            assert select_nonzero_maximal_minor(m) == want
            assert runs == [(True, nrows, nrows)]
    # the resultant's square stage 1 of a dense (2,2,2,2) system, its last
    # row traded for the sum of its first two: the selection and the
    # determinant each stop before every row has pivoted; over F_3 the
    # stage's rows are too short for any of its steps to pass _GATE
    rows = list(res_stages(field)[1].rows)
    rows[-1] = {j: e for j in rows[0].keys() | rows[1].keys()
                if (e := rows[0].get(j, field.zero) + rows[1].get(j, field.zero))}
    m = Matrix(field, rows, len(rows))
    runs.clear()
    with pytest.raises(NotFullRank):
        select_nonzero_maximal_minor(m)
    assert m.det() == field.zero
    assert [(stop, full) for stop, _, full in runs] == [(True, 55)] * 2
    assert all(pivoted < 56 for _, pivoted, _ in runs), runs


# ---------------------------------------------------------------------------
# the rank on given rows


def spy_on_calls(monkeypatch):
    """For each call to the kernel: its modulus (None over Z), whether it
    stops at the first cancelled row, its row count, the columns its rows
    hold and its pivot columns."""
    runs = []

    def spy(rows, p=None, m=None, stop=False):
        held = set().union(*rows)
        out = _pivot(rows, p, m, stop)
        runs.append((p, stop, len(rows), held, set(out[1])))
        return out

    monkeypatch.setattr(linalg, "_pivot", spy)
    return runs


@pytest.mark.parametrize("field", [F3, F101, FP, QQ], ids=["F3", "F101", "FP", "Q"])
def test_rank_on_given_rows_is_the_rank(field, monkeypatch):
    """``rank(rows)`` is ``rank()`` whatever rows are given.  As many rows
    as columns, and fewer than all, are eliminated alone, mod p in full
    and over Q first mod _P, stopping at the first cancelled row, which
    proves a full count.  When they fall short, over Z on Q, the kernel
    then ranks the other rows times a kernel basis of the chosen ones, on
    the chosen rows' non-pivot columns, and never the whole matrix, as
    after repeated rows.  A row count of another length and a square
    matrix change nothing: the whole matrix is ranked at once."""
    rng = random.Random(f"given-rows-{field.name}")
    runs = spy_on_calls(monkeypatch)
    prime = None if field is QQ else field.p
    proved = singular = ignored = 0
    for _ in range(150):
        ncols = rng.randrange(1, 6)
        nrows = ncols + rng.randrange(0, 4)
        m = Matrix(field, random_matrix(field, rng, nrows, ncols), ncols)
        rank = m.rank()
        assert rank == left_to_right_rank(m)
        for size in (ncols - 1, ncols, ncols + 1):
            if not 0 <= size <= nrows:
                continue
            if rng.random() < 0.8:
                rows = rng.sample(range(nrows), size)
            else:  # repeats, so that the chosen rows of a square matrix are not its own
                rows = rng.choices(range(nrows), k=size)
            runs.clear()
            assert m.rank(rows) == rank
            shapes = [(p, stop, n) for p, stop, n, _, _ in runs]
            if not size == ncols < nrows:
                # over Q mod _P and, if short, over Z
                assert shapes in ([(prime or _P, False, nrows)],
                                  [(_P, False, nrows), (None, False, nrows)][:1 + (field is QQ)])
                ignored += 1
                continue
            if field is QQ:
                # no denominator here is a multiple of _P
                assert shapes[0] == (_P, True, ncols)
                if len(runs[0][4]) == ncols:
                    assert len(runs) == 1 and rank == ncols
                    proved += 1
                    continue
                del runs[0], shapes[0]
            pivoted = runs[0][4]
            if len(pivoted) == ncols:
                assert shapes == [(prime, False, ncols)] and rank == ncols
                proved += 1
                continue
            others = nrows - len(set(rows))
            assert shapes == [(prime, False, ncols), (prime, False, others)]
            assert runs[1][3] <= set(range(ncols)) - pivoted
            assert len(pivoted) + len(runs[1][4]) == rank
            singular += 1
    assert min(proved, singular, ignored) >= 20, (proved, singular, ignored)


def test_rank_on_given_rows_over_q_where_p_divides_an_entry(monkeypatch):
    """Chosen rows whose rank falls short mod _P are ranked again over Z,
    and only if they fall short there too the other rows times their
    kernel: never the whole matrix.  A denominator divisible by _P in the
    chosen rows sends them to Z at once, and elsewhere changes nothing;
    the rank is the cofactor rank in every case."""
    calls = spy_on_pivot(monkeypatch)
    cases = [
        # full over Q, the chosen rows short mod _P and full over Z
        ([[_P, 0], [0, 1], [1, 1]], (0, 1), 2, [_P, None]),
        ([[_P, 0], [0, 1], [2 * _P, 1]], (0, 1), 2, [_P, None]),
        # short over Z as well: the other row times the kernel (-2, 1)
        ([[_P, 2 * _P], [1, 2], [3, 6]], (0, 1), 1, [_P, None, None]),
        ([[1, 2], [2, 4], [0, 1]], (0, 1), 2, [_P, None, None]),
        # a denominator divisible by _P, in the chosen rows or elsewhere
        ([[Fraction(1, _P), 0], [0, 1], [1, 1]], (0, 1), 2, [None]),
        ([[Fraction(1, _P), Fraction(2, _P)], [1, 2], [0, 1]], (0, 1), 2, [None, None]),
        ([[Fraction(1, _P), 0], [0, 1], [1, 1]], (1, 2), 2, [_P]),
        ([[Fraction(1, _P), Fraction(2, _P)], [1, 2], [3, 6]], (1, 2), 1, [_P, None, None]),
    ]
    for rows, chosen, rank, kernel_calls in cases:
        over_q = Mq(rows)
        entries = [[over_q[i, j] for j in range(over_q.ncols)] for i in range(over_q.nrows)]
        calls.clear()
        assert over_q.rank(chosen) == rank
        assert calls == kernel_calls
        assert over_q.rank() == rank == cofactor_rank(entries, over_q.nrows, over_q.ncols, QQ)


@pytest.mark.parametrize("field", [F3, F101, FP, QQ], ids=["F3", "F101", "FP", "Q"])
def test_rank_on_given_rows_of_every_kernel_dimension(field):
    """Seeded tall matrices whose chosen rows have a kernel of dimension 0,
    1 and 2 or more: among them chosen rows that are singular where the
    whole matrix has full column rank, chosen indices that repeat and,
    over Q, a chosen row over a denominator divisible by _P.  The rank on
    the chosen rows is the rank and the reference elimination's."""
    rng = random.Random(f"kernel-rule-{field.name}")
    entry = nonzero_entry(field, rng)

    def combination(rows, ncols):
        coeffs = [entry() for _ in rows]
        return [sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero) for j in range(ncols)]

    seen = dict.fromkeys(("nullity 0", "nullity 1", "nullity 2+", "full", "repeats", "den _P"), 0)
    for _ in range(150):
        ncols = rng.randrange(1, 8)
        nullity = rng.randrange(0, min(ncols, 3) + 1)
        rows = [[entry() if rng.random() < 0.7 else field.zero for _ in range(ncols)]
                for _ in range(ncols - nullity)]
        basis, picked, repeats = list(rows), list(range(len(rows))), 0
        for _ in range(nullity):
            if picked and rng.random() < 0.4:
                picked.append(rng.choice(picked))
                repeats += 1
            else:
                rows.append(combination(basis, ncols))
                picked.append(len(rows) - 1)
        scaled = field is QQ and basis and rng.random() < 0.3
        if scaled:
            rows[0] = [e / _P for e in rows[0]]
        # more rows than the chosen ones: random, or in the chosen rows' span
        for _ in range(repeats + rng.randrange(1, 4)):
            if basis and rng.random() < 0.3:
                rows.append(combination(basis, ncols))
            else:
                rows.append([entry() if rng.random() < 0.6 else field.zero for _ in range(ncols)])
        place = rng.sample(range(len(rows)), len(rows))
        shuffled = [None] * len(rows)
        for i, row in zip(place, rows):
            shuffled[i] = row
        chosen = [place[i] for i in picked]
        m = Matrix(field, shuffled, ncols)
        rank = m.rank(chosen)
        assert rank == m.rank() == left_to_right_rank(m), (shuffled, chosen)
        r0 = left_to_right_rank(Matrix(field, [shuffled[i] for i in chosen], ncols))
        seen[("nullity 0", "nullity 1")[ncols - r0] if ncols - r0 < 2 else "nullity 2+"] += 1
        seen["full"] += r0 < ncols == rank
        seen["repeats"] += repeats > 0
        seen["den _P"] += bool(scaled)
    if field is not QQ:
        del seen["den _P"]
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# the stored form: rows of kernel-ready ints, one denominator per row over
# Q, against references that read the entries through m[i, j] alone


def stored_entries(field, rng, nrows, ncols):
    """Dense rows of field elements, about half of them zero, one matrix in
    four with a row that is a combination of two others.  Over Q the
    entries have denominators 1..6, and in one matrix in three one entry
    has a multiple of _P."""
    if field is QQ:
        def entry():
            return Fraction(rng.randrange(-4, 5), rng.randrange(1, 7))
    else:
        def entry():
            return field.of(rng.randrange(field.p))
    rows = [[entry() if rng.random() < 0.6 else field.zero for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows >= 3 and rng.random() < 0.25:
        a, b, c = rng.sample(range(nrows), 3)
        two = field.of(2)
        rows[c] = [x + two * y for x, y in zip(rows[a], rows[b])]
    if field is QQ and rng.random() < 1 / 3:
        rows[rng.randrange(nrows)][rng.randrange(ncols)] = Fraction(rng.choice((1, -2, 3)),
                                                                    _P * rng.randrange(1, 3))
    return rows


@pytest.mark.parametrize("field", [F3, F101, FP, QQ], ids=["F3", "F101", "FP", "Q"])
def test_the_stored_form_keeps_every_value(field):
    """A matrix holds residues, or over Q integers and a denominator per
    row; read back, multiplied, compared, eliminated and solved, it must
    give what the cofactor oracle and the lexicographic reference give on
    its entries."""
    rng = random.Random(f"stored-{field.name}")
    zero, one = field.zero, field.one
    seen = {"singular": 0, "wide": 0, "tall": 0, "inconsistent": 0, "multiple of P": 0}
    for _ in range(120):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = stored_entries(field, rng, nrows, ncols)
        m = Matrix(field, rows, ncols)
        assert dense(m) == rows
        assert all(type(v) is int for r in m.rows for v in r.values())
        if field is QQ:
            assert all(type(d) is int and d > 0 for d in m.dens)
            seen["multiple of P"] += any(d % _P == 0 for d in m.dens)
            # a stored denominator need not be the least one
            k = rng.randrange(2, 9)
            larger = Matrix._valid(QQ, [{j: v * k for j, v in r.items()} for r in m.rows], ncols,
                                   [d * k for d in m.dens])
            assert larger == m and dense(larger) == rows
        else:
            assert all(0 < v < field.p for r in m.rows for v in r.values())
        other = stored_entries(field, rng, nrows, ncols)
        assert (m == Matrix(field, other, ncols)) == (other == rows)

        right = stored_entries(field, rng, ncols, rng.randrange(1, 4))
        assert dense(m @ Matrix(field, right)) == dense_product(rows, right, zero)

        rank = cofactor_rank(rows, nrows, ncols, field)
        assert m.rank() == rank
        if nrows > ncols:
            seen["tall"] += 1
            assert m.rank(rng.sample(range(nrows), ncols)) == rank
        if nrows == ncols:
            assert m.det() == cofactor_det(rows, zero, one)

        if rank < nrows:
            seen["singular"] += 1
            for select in (select_nonzero_maximal_minor, lexicographic_minor):
                with pytest.raises(NotFullRank):
                    select(m)
        else:
            want = lexicographic_minor(m)
            sel = select_nonzero_maximal_minor(m)
            minor = cofactor_det([[r[j] for j in sel.col_indices] for r in rows], zero, one)
            assert sel.minor_value == minor != zero
            assert want.minor_value == cofactor_det(
                [[r[j] for j in want.col_indices] for r in rows], zero, one) != zero
            if nrows < ncols:
                seen["wide"] += 1
                cols = sorted(rng.sample(range(ncols), nrows))
                given = cofactor_det([[r[j] for j in cols] for r in rows], zero, one)
                sel = select_nonzero_maximal_minor(m, cols)
                if given:
                    assert sel == MinorSelection(tuple(cols), given)
                else:
                    assert sel.minor_value == minor

        x0 = stored_entries(field, rng, ncols, 2)
        b = m @ Matrix(field, x0)
        x = m.solve(b)
        assert x is not None and m @ x == b
        rhs = stored_entries(field, rng, nrows, 1)
        joined = [r + s for r, s in zip(rows, rhs)]
        x = m.solve(Matrix(field, rhs))
        if cofactor_rank(joined, nrows, ncols + 1, field) > rank:
            seen["inconsistent"] += 1
            assert x is None
        else:
            assert dense(m @ x) == rhs
    assert min(seen["singular"], seen["wide"], seen["tall"], seen["inconsistent"]) >= 10, seen
    assert seen["multiple of P"] >= (20 if field is QQ else 0), seen
