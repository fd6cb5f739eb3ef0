"""Exhaustive cross-check of the certificate against the rank oracle over F_3.

For each of ``nsystems`` seeded affine systems of the given degrees, every
coefficient drawn from all of F_3, every set of d_1*...*d_n monomials of
degree at most rho + 1 is asked both ways.  Over F_3 the leading forms'
resultant vanishes and non-bases are common, so the zero paths of both
tests run as often as the generic one.

The tier-1 suite runs the (2,2) sweep; the larger (2,3) sweep, 50,050
questions, runs as a script::

    PYTHONPATH=src python tests/sweep.py
"""
import itertools
import random
import sys
from dataclasses import dataclass, field

from monobasis import (
    GF,
    DegreeProfile,
    MonomialSet,
    MultiPoly,
    PolySystem,
    certify_basis,
    monomials_of_degree,
    rank_oracle,
)

F3 = GF(3)


@dataclass
class SweepCounts:
    questions: int = 0
    res_zero: int = 0
    bases: int = 0
    disagreements: list = field(default_factory=list)  # (seed, monomials)


def seeded_system(seed: int, degrees) -> PolySystem:
    """Dense affine system with every coefficient uniform in F_3."""
    rng = random.Random(seed)
    n = len(degrees)
    polys = [
        MultiPoly(F3, n, {m: F3.of(rng.randrange(3))
                          for e in range(d + 1) for m in monomials_of_degree(n, e)})
        for d in degrees
    ]
    return PolySystem(polys, tuple(degrees))


def sweep(degrees, nsystems: int) -> SweepCounts:
    profile = DegreeProfile(degrees)
    pool = [m for e in range(profile.rho + 2) for m in monomials_of_degree(profile.n, e)]
    counts = SweepCounts()
    for seed in range(nsystems):
        sys_ = seeded_system(seed, degrees)
        for chosen in itertools.combinations(pool, profile.bezout):
            M = MonomialSet(chosen)
            cert = certify_basis(sys_, M)
            counts.questions += 1
            counts.res_zero += not cert.res_value
            counts.bases += cert.is_basis
            if rank_oracle(sys_, M) != cert.is_basis:
                counts.disagreements.append((seed, chosen))
    return counts


if __name__ == "__main__":
    result = sweep((2, 3), 10)
    print(result)
    sys.exit(1 if result.disagreements else 0)
