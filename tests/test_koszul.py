"""Structural checks on the graded complexes: dimensions, d∘d = 0, Euler char."""
import itertools
import random

import pytest

from monobasis import (
    GF,
    QQ,
    InputError,
    Matrix,
    MultiPoly,
    PolySystem,
    build_complex,
    monomials_of_degree,
)
from monobasis.hilbert import DegreeProfile

from conftest import random_system

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
            assert (dk1 @ dk).is_zero()


def test_projection_stage_drops_selected_monomials():
    rng = random.Random(8)
    sys_ = homog_random(rng, F101, (2, 2))
    S = [(3, 0), (0, 3)]
    c = build_complex(sys_, 3, S)
    # B_0 omits exactly the monomials of S
    assert set(c.term_bases[0]) == set(
        b for b in build_complex(sys_, 3, []).term_bases[0] if b.monomial not in S
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
