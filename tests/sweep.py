"""Exhaustive cross-check of the certificate against the rank oracle.

For each of ``nsystems`` seeded affine systems of the given degrees over
the given field, every coefficient drawn uniformly from ``coefficients``,
every set of d_1*...*d_n monomials of degree at most rho + 1 is asked
both ways.  Over F_3, with coefficients from all of F_3, the leading
forms' resultant vanishes and non-bases are common, so the zero paths of
both tests run as often as the generic one; over Q, with coefficients in
-1..1, the ranks are taken mod a prime first and the exact elimination
over Z runs whenever they fall short.  Given a prime ``modulus``, a Q
sweep certifies every question once more over F_modulus, on the same
system with its coefficients reduced, and Res and Delta there must be the
Q values reduced: the two fields run the elimination kernel's two
arithmetics against each other.

Given ``draws``, each system is asked that many sets instead of every
one, drawn from one ``random.Random(0)`` per sweep, so that two sweeps of
the same degrees ask the same sets.

The tier-1 suite runs the (2,2) sweeps over F_3, F_5 and Q, the last one
also over F_101.  The script runs the larger sweeps: the (2,3) sweeps over
F_3 and over Q, 50,050 questions each, and 10,000 drawn (3,3,2) questions
over F_3 and over Q, the Q ones certified once more over F_101.  (3,3,2)
is the smallest profile where the kernel's second pivot rule (past _GATE)
and the rank oracle's rule on the kernel of Macaulay's rows both run on
non-bases.  It exits 1 on any disagreement or on counts other than the
pinned ones::

    PYTHONPATH=src python tests/sweep.py
"""
import dataclasses
import itertools
import random
import sys

from monobasis import (
    GF,
    QQ,
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
    # (seed, monomials, "oracle" or the modulus whose Res or Delta differs)
    disagreements: list = dataclasses.field(default_factory=list)


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


def sweep(degrees, nsystems: int, field, coefficients, modulus=None, draws=None) -> SweepCounts:
    profile = DegreeProfile(degrees)
    pool = [m for e in range(profile.rho + 2) for m in monomials_of_degree(profile.n, e)]
    counts = SweepCounts()
    fp = GF(modulus) if modulus else None
    rng = random.Random(0)
    for seed in range(nsystems):
        sys_ = seeded_system(seed, degrees, field, coefficients)
        # the same draws, so the same system with its coefficients reduced
        reduced = seeded_system(seed, degrees, fp, coefficients) if fp else None
        if draws is None:
            sets = itertools.combinations(pool, profile.bezout)
        else:
            sets = [tuple(pool[i] for i in sorted(rng.sample(range(len(pool)), profile.bezout)))
                    for _ in range(draws)]
        for chosen in sets:
            M = MonomialSet(chosen)
            cert = certify_basis(sys_, M)
            counts.questions += 1
            counts.res_zero += not cert.res_value
            counts.bases += cert.is_basis
            if rank_oracle(sys_, M) != cert.is_basis:
                counts.disagreements.append((seed, chosen, "oracle"))
            if fp:
                mod = certify_basis(reduced, M)
                if (mod.res_value, mod.delta_value) != (
                    fp.of(cert.res_value), fp.of(cert.delta_value)
                ):
                    counts.disagreements.append((seed, chosen, modulus))
    return counts


# (questions, res_zero, bases) of each sweep the script runs
PINNED = [
    (((2, 3), 10, GF(3), range(3)), (50050, 10010, 16808)),
    (((2, 3), 10, QQ, range(-1, 2)), (50050, 20020, 16696)),
    (((3, 3, 2), 10, GF(3), range(3), None, 1000), (10000, 6000, 1536)),
    (((3, 3, 2), 10, QQ, range(-1, 2), 101, 1000), (10000, 2000, 7960)),
]


if __name__ == "__main__":
    failed = False
    for args, pinned in PINNED:
        result = sweep(*args)
        print(result)
        counts = (result.questions, result.res_zero, result.bases)
        failed |= bool(result.disagreements) or counts != pinned
    sys.exit(1 if failed else 0)
