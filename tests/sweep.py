"""Exhaustive cross-check of the certificate against the rank oracle.

For each of ``nsystems`` seeded affine systems of the given degrees over
the given field, every coefficient drawn uniformly from ``coefficients``,
every set of d_1*...*d_n monomials of degree at most rho + 1 is asked
both ways.  Over F_3, with coefficients from all of F_3, the leading
forms' resultant vanishes and non-bases are common, so the zero paths of
both tests run as often as the generic one; over Q, with coefficients in
-1..1, the ranks are taken mod a prime first and the exact elimination
runs whenever they fall short.

The tier-1 suite runs the (2,2) sweeps over F_3, F_5 and Q; the larger
(2,3) sweep over F_3, 50,050 questions, runs as a script::

    PYTHONPATH=src python tests/sweep.py
"""
import dataclasses
import itertools
import random
import sys

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


@dataclasses.dataclass
class SweepCounts:
    questions: int = 0
    res_zero: int = 0
    bases: int = 0
    disagreements: list = dataclasses.field(default_factory=list)  # (seed, monomials)


def seeded_system(seed: int, degrees, field, coefficients) -> PolySystem:
    """Dense affine system with every coefficient uniform in ``coefficients``."""
    rng = random.Random(seed)
    n = len(degrees)
    polys = [
        MultiPoly(field, n, {m: field.of(rng.choice(coefficients))
                             for e in range(d + 1) for m in monomials_of_degree(n, e)})
        for d in degrees
    ]
    return PolySystem(polys, tuple(degrees))


def sweep(degrees, nsystems: int, field, coefficients) -> SweepCounts:
    profile = DegreeProfile(degrees)
    pool = [m for e in range(profile.rho + 2) for m in monomials_of_degree(profile.n, e)]
    counts = SweepCounts()
    for seed in range(nsystems):
        sys_ = seeded_system(seed, degrees, field, coefficients)
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
    result = sweep((2, 3), 10, GF(3), range(3))
    print(result)
    sys.exit(1 if result.disagreements else 0)
