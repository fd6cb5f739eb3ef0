"""Hilbert function values, checked against brute-force monomial counting."""
import itertools
import math

import pytest

from monobasis import DegreeProfile, InputError, hilbert_H, hilbert_h, monomials_of_degree
from monobasis.hilbert import required_cardinality


def brute_h(degrees, tau):
    """Count degree-tau monomials with exponent i strictly below degrees[i].

    For pure powers x_i^{d_i} the quotient has exactly these monomials as a
    basis, in any degree, which is what the generating function encodes.
    """
    n = len(degrees)
    return sum(
        1
        for m in monomials_of_degree(n, tau)
        if all(e < d for e, d in zip(m, degrees))
    )


def test_example_values_222():
    p = DegreeProfile((2, 2, 2))
    assert hilbert_H(p, 2) == 7
    for tau in range(3, 9):
        assert hilbert_H(p, tau) == 8
    assert p.rho == 3
    assert p.bezout == 8


def test_h_values_44():
    p = DegreeProfile((4, 4))
    assert hilbert_h(p, 5) == 2
    assert hilbert_h(p, 6) == 1
    assert p.rho == 6


def test_h_matches_brute_force_counting():
    for n in range(1, 4):
        for degrees in itertools.product(range(1, 5), repeat=n):
            p = DegreeProfile(degrees)
            for tau in range(p.rho + 3):
                assert hilbert_h(p, tau) == brute_h(degrees, tau)


def test_huge_tau_in_closed_form():
    tau = 99999999999
    for n in range(1, 4):
        for degrees in itertools.product(range(1, 5), repeat=n):
            p = DegreeProfile(degrees)
            assert hilbert_h(p, tau) == 0
            assert hilbert_H(p, tau) == p.bezout
    # one cubic in three variables: the degree-t forms modulo its multiples
    for t in (0, 2, 3, 7, tau):
        expected = math.comb(t + 2, 2) - (math.comb(t - 1, 2) if t >= 3 else 0)
        assert required_cardinality((3,), 3, t) == expected
    assert required_cardinality((2, 2), 3, -1) == 0


def test_huge_degree_with_small_tau():
    # a degree above tau cuts nothing in degree tau, so it counts as tau + 1
    huge = 99999999999
    for degrees in [(huge,), (2, huge), (huge, 3, huge)]:
        p = DegreeProfile(degrees)
        for tau in range(5):
            small = [min(d, tau + 1) for d in degrees]
            assert hilbert_h(p, tau) == brute_h(small, tau)
            assert hilbert_H(p, tau) == sum(brute_h(small, k) for k in range(tau + 1))
    # huge degrees and huge tau together: H = d_1 * d_2 past rho
    assert hilbert_H(DegreeProfile((2, 10**9)), huge) == 2 * 10**9


def test_H_is_partial_sum_of_h():
    for degrees in [(2,), (3, 2), (2, 2, 2), (3, 3, 3), (4, 4)]:
        p = DegreeProfile(degrees)
        for tau in range(p.rho + 3):
            assert hilbert_H(p, tau) == sum(hilbert_h(p, t) for t in range(tau + 1))


def test_h_sums_to_bezout():
    for n in range(1, 4):
        for degrees in itertools.product(range(1, 5), repeat=n):
            p = DegreeProfile(degrees)
            total = sum(hilbert_h(p, t) for t in range(p.rho + 1))
            assert total == math.prod(degrees)
            assert hilbert_h(p, p.rho + 1) == 0
            assert hilbert_H(p, p.rho) == math.prod(degrees)


def test_negative_tau_rejected():
    with pytest.raises(InputError):
        hilbert_H(DegreeProfile((2, 2)), -1)
