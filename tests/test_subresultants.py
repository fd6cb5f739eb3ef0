"""Subresultants vs the rank criterion: J_t + span(S) spans everything iff
the subresultant is non-zero."""
import random

import pytest

from monobasis import (
    GF,
    Matrix,
    MultiPoly,
    PolySystem,
    ShapeError,
    monomials_of_degree,
    subresultant_D,
    subresultant_delta,
)
from monobasis.subresultants import delta_shift_check, required_cardinality

F101 = GF(101)


def homog_random(rng, degrees, nvars=None, field=F101):
    v = nvars if nvars is not None else len(degrees)
    polys = []
    for d in degrees:
        terms = {m: field.of(rng.randrange(field.p)) for m in monomials_of_degree(v, d)}
        polys.append(MultiPoly(field, v, terms))
    return PolySystem(polys, tuple(degrees))


def chardin_rank_criterion(sys_, t, S):
    """Oracle: non-vanishing iff the degree-t ideal piece plus span(S) is all
    of the degree-t graded piece (plain row-rank computation)."""
    v = sys_.nvars
    field = sys_.field
    monos = monomials_of_degree(v, t)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for f, d in zip(sys_.polys, sys_.degrees):
        for b in monomials_of_degree(v, t - d):
            prod = MultiPoly.monomial(field, b) * f
            row = [field.zero] * len(monos)
            for m, c in prod.terms.items():
                row[index[m]] = c
            rows.append(row)
    for m in S:
        row = [field.zero] * len(monos)
        row[index[tuple(m)]] = field.one
        rows.append(row)
    return Matrix(field, rows, ncols=len(monos)).rank() == len(monos)


def test_cardinality_mismatch_is_zero_by_convention():
    rng = random.Random(0)
    sys_ = homog_random(rng, (2, 2), nvars=2)
    hval = required_cardinality((2, 2), 2, 2)
    monos = monomials_of_degree(2, 2)
    too_small = monos[: hval - 1] if hval > 1 else []
    assert subresultant_D(sys_, 2, too_small) == F101.zero
    assert subresultant_D(sys_, 2, monos[: hval + 1]) == F101.zero


def test_pure_powers_unit_value():
    sys_ = PolySystem(
        [MultiPoly.monomial(F101, (2, 0)), MultiPoly.monomial(F101, (0, 2))],
        (2, 2),
    )
    v = subresultant_D(sys_, 2, [(1, 1)])
    assert v == F101.one or v == -F101.one


def test_matches_rank_criterion_on_random_draws():
    rng = random.Random(17)
    cases = 0
    profiles = [((2, 2), 2, 2), ((2, 2), 2, 3), ((2, 3), 2, 3), ((2, 2, 2), 3, 3),
                ((2, 2, 2), 3, 4), ((2, 2, 3), 3, 4)]
    for degrees, v, t in profiles:
        hval = required_cardinality(degrees, v, t)
        monos = monomials_of_degree(v, t)
        if hval > len(monos):
            continue
        for _ in range(50):
            sys_ = homog_random(rng, degrees, nvars=v)
            S = rng.sample(monos, hval)
            value = subresultant_D(sys_, t, S) if v == len(degrees) else None
            if value is None:
                continue
            assert bool(value) == chardin_rank_criterion(sys_, t, S), (degrees, t, S)
            cases += 1
    assert cases >= 300


def test_homogenized_ambient_matches_rank_criterion():
    """Same equivalence for the n+1 variable subresultant of homogenized systems."""
    rng = random.Random(71)
    from conftest import random_system

    for _ in range(25):
        sys_ = random_system(rng, F101, (2, 2))
        hom = sys_.homogenized()
        t = 2
        hval = required_cardinality((2, 2), 3, t)
        monos = monomials_of_degree(3, t)
        S = rng.sample(monos, hval)
        value = subresultant_delta(hom, t, S)
        assert bool(value) == chardin_rank_criterion(hom, t, S)


def test_wrong_ambient_rejected():
    rng = random.Random(2)
    sys2 = homog_random(rng, (2, 2), nvars=2)
    with pytest.raises(ShapeError):
        subresultant_delta(sys2, 2, [(1, 1)])
    sys3 = homog_random(rng, (2, 2), nvars=3)
    with pytest.raises(ShapeError):
        subresultant_D(sys3, 2, [(1, 1, 0)])


def test_delta_shift_by_resultant():
    """|Delta^(t)| = |Delta^(delta) * Res^(t-delta)| on basis-certifying sets."""
    rng = random.Random(55)
    from conftest import random_system

    hits = 0
    for _ in range(20):
        sys_ = random_system(rng, F101, (2, 2))
        from monobasis import m0_set

        M = m0_set((2, 2))
        for t in (M.delta + 1, M.delta + 2):
            lhs, rhs = delta_shift_check(sys_, M, t)
            assert lhs == rhs or lhs == -rhs
            if lhs:
                hits += 1
    assert hits >= 30
