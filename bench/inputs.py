"""Seeded inputs of the certification benchmark.

A *question* is a triple (system, field, monomial set M).  Each workload is
a list of questions plus a few identity calls, drawn from ``--seed``.  The
program under test only ever sees what is written here: system files in
the CLI grammar and comma-separated monomial lists.

Polynomials are plain dicts {exponent tuple: int}.  Over F_p the ints are
reduced when the CLI reads the file.
"""
from __future__ import annotations

import itertools
import math
import os
import random

import reference as ref

# The prime just below 2**62 with p = 1 (mod 6): F_P has the square and
# cube roots of unity that the identity systems need.
P_BIG = 2**62 - 57
P_SMALL = 101
# The CLI's vandermonde-verify finds roots of unity through primitive_root,
# which factors p - 1 by trial division once per variable: about 3 s per
# variable at P_BIG, about 0.1 s at this prime (p - 1 = 2 * 3 * 17 * 172472412199).
# The call stays in fp-dense at this prime so that the cost shows without
# filling the pass.
P_MID = 2**44 - 117
COEFFS = (-3, -2, -1, 1, 2, 3)

# The fixed system from ROADMAP item 3.  resultant_macaulay raises
# EvaluationDegenerate on it (the extraneous minor vanishes at
# rho+1..rho+3) although its Macaulay map at rho+1 is onto, so Res != 0.
ROADMAP_SYSTEM = (
    (2, 2, 2),
    [
        {(1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 1, (1, 0, 0): 1},
        {(2, 0, 0): 1, (1, 0, 1): -1, (0, 1, 1): 1, (0, 0, 0): 1},
        {(2, 0, 0): 3, (0, 2, 0): -1, (0, 0, 2): 1},
    ],
)

WORKLOADS = ("q-dense", "fp-dense", "sparse-cli")


# ---------------------------------------------------------------------------
# text in the CLI grammar


def mono_text(m) -> str:
    parts = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
    return "*".join(parts) if parts else "1"


def poly_text(f: dict) -> str:
    out = []
    for m in sorted(f, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = f[m]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        body = mono_text(m)
        if body == "1":
            term = str(c)
        elif c == 1:
            term = body
        else:
            term = f"{c}*{body}"
        out.append((sign, term))
    text = ("-" if out[0][0] == "-" else "") + out[0][1]
    for sign, term in out[1:]:
        text += f" {sign} {term}"
    return text


def system_text(title: str, degrees, polys) -> str:
    lines = [f"# {title}", "degrees: " + ",".join(map(str, degrees))]
    lines += [poly_text(f) for f in polys]
    return "\n".join(lines) + "\n"


def set_text(mset) -> str:
    return ",".join(mono_text(m) for m in mset)


# ---------------------------------------------------------------------------
# systems


def _unit(n, i, d):
    return tuple(d if j == i else 0 for j in range(n))


def dense_system(rng, degrees):
    """Every monomial of degree <= d_i, small non-zero coefficients, monic x_i^d_i."""
    n = len(degrees)
    polys = []
    for i, d in enumerate(degrees):
        f = {m: rng.choice(COEFFS) for t in range(d + 1) for m in ref.monomials(n, t)}
        f[_unit(n, i, d)] = 1
        polys.append(f)
    return polys


def sparse_system(rng, degrees):
    """3 or 4 terms per polynomial: monic x_i^d_i plus random monomials of degree <= d_i."""
    n = len(degrees)
    polys = []
    for i, d in enumerate(degrees):
        pool = [m for t in range(d + 1) for m in ref.monomials(n, t)]
        f = {_unit(n, i, d): 1}
        size = rng.choice((3, 4))
        while len(f) < size:
            m = rng.choice(pool)
            if m not in f:
                f[m] = rng.choice(COEFFS)
        polys.append(f)
    return polys


def free_sparse_system(rng, degrees):
    """3 or 4 terms per polynomial, one of degree d_i, the rest of degree <= d_i."""
    n = len(degrees)
    polys = []
    for d in degrees:
        pool = [m for t in range(d + 1) for m in ref.monomials(n, t)]
        f = {rng.choice(ref.monomials(n, d)): rng.choice(COEFFS)}
        size = rng.choice((3, 4))
        while len(f) < size:
            m = rng.choice(pool)
            if m not in f:
                f[m] = rng.choice(COEFFS)
        polys.append(f)
    return polys


# (degrees, p) of the fixed degenerate sparse systems, and how many of
# them to keep with Res != 0 and with Res = 0.
DEGENERATE_PROFILES = (((2, 2, 2), None), ((2, 2, 2), P_SMALL), ((3, 2, 2), None), ((3, 2, 2), P_SMALL))
DEGENERATE_PER_KIND = 8
# Seeded sparse systems per profile and field.  The oracle's cost on a
# sparse system over Q varies with its sparsity pattern by up to a factor
# of two; with 8 the scaled oracle_s of ten seeds still spread by 0.1 of
# its median.
SPARSE_PER_PROFILE = 16


def degenerate_systems():
    """[(degrees, p, polys)]: the systems that hit EvaluationDegenerate today.

    Free sparse draws (no monic x_i^d_i) from a seed-independent generator,
    kept when the benchmark's own exact determinant finds the extraneous
    Macaulay minor zero at rho+1..rho+3: per profile DEGENERATE_PER_KIND
    with Res != 0 and as many with Res = 0, then the ROADMAP item 3 system
    over Q and F_101.  Most free sparse draws are of this kind; they do
    not depend on the seed, so their failures are the same share of every
    run.
    """
    rng = random.Random("sparse-cli:degenerate")
    out = []
    for degrees, p in DEGENERATE_PROFILES:
        want = {True: DEGENERATE_PER_KIND, False: DEGENERATE_PER_KIND}
        while any(want.values()):
            polys = free_sparse_system(rng, degrees)
            if ref.extraneous_minor_nonzero(polys, degrees, p, exact=True):
                continue
            res = ref.resultant_nonzero(polys, degrees, p)
            if want[res]:
                want[res] -= 1
                out.append((degrees, p, polys))
    degrees, polys = ROADMAP_SYSTEM
    out += [(degrees, None, polys), (degrees, P_SMALL, polys)]
    return out


def draw_system(rng, degrees, p, kind, stats):
    """Draw until resultant_macaulay can evaluate the system.

    Seeded draws whose extraneous Macaulay minor vanishes at rho+1..rho+3
    hit the EvaluationDegenerate fault on some seeds and not others, so
    they are redrawn; the benchmark's own determinant decides, never the
    program.  The fault is measured by the fixed degenerate_systems().
    """
    make = dense_system if kind == "dense" else sparse_system
    while True:
        polys = make(rng, degrees)
        if ref.extraneous_minor_nonzero(polys, degrees, p):
            return polys
        stats[f"redrawn_{kind}"] = stats.get(f"redrawn_{kind}", 0) + 1


# ---------------------------------------------------------------------------
# monomial sets


def m0_set(degrees):
    return [tuple(a) for a in itertools.product(*(range(d) for d in degrees))]


def lifted_set(rng, degrees):
    """M0 with its top monomial times one variable, so delta = rho + 1."""
    top = tuple(d - 1 for d in degrees)
    j = rng.randrange(len(degrees))
    lifted = tuple(e + (k == j) for k, e in enumerate(top))
    return [m for m in m0_set(degrees) if m != top] + [lifted]


def nonbasis_set(rng, degrees):
    """A set with more monomials of degree <= t than sum_{s<=t} h(s).

    When Res != 0 the monomials of degree <= t span a space of dimension
    sum_{s<=t} h(s) in the quotient, so such a set is never a basis.  The
    rest of the set is filled with monomials of degree rho, so delta = rho
    whenever there is room (for (2,2,2) there is none and delta = 2).
    """
    n = len(degrees)
    bezout = math.prod(degrees)
    rho = sum(degrees) - n
    h = ref.hilbert_h(degrees, rho)
    t = 0
    while math.comb(n + t, n) <= sum(h[: t + 1]):
        t += 1
    low = [m for s in range(t + 1) for m in ref.monomials(n, s)]
    chosen = rng.sample(low, sum(h[: t + 1]) + 1)
    top = [m for m in ref.monomials(n, rho) if m not in chosen]
    return chosen + rng.sample(top, bezout - len(chosen))


# ---------------------------------------------------------------------------
# systems with known roots


def power_roots(degrees, shifts, p):
    """Common roots of x_i^d_i - b_i^d_i: the grid of b_i times d_i-th roots of unity."""
    axes = [[b * z for z in ref.roots_of_unity(d, p)] for d, b in zip(degrees, shifts)]
    if p:
        axes = [[x % p for x in axis] for axis in axes]
    return [tuple(pt) for pt in itertools.product(*axes)]


def transformed_power(rng, degrees, p, stats):
    """(polys, roots, L): x_i^d_i - b_i^d_i composed with x -> L x.

    L has small integer entries; the roots are L^-1 applied to the grid.
    Redrawn until M0 is a basis, read off det[m(zeta)] != 0, because the
    identity calls need a certified basis.
    """
    n = len(degrees)
    while True:
        shifts = [rng.choice((1, 2, 3)) for _ in range(n)]
        L = [[rng.choice(COEFFS) for _ in range(n)] for _ in range(n)]
        if not ref.det(L, p):
            continue
        linv = ref.inverse(L, p)
        roots = [
            tuple(ref.reduce(sum(linv[i][j] * z[j] for j in range(n)), p) for i in range(n))
            for z in power_roots(degrees, shifts, p)
        ]
        polys = [
            ref.compose({_unit(n, i, d): 1, (0,) * n: -(b**d)}, L, p)
            for i, (d, b) in enumerate(zip(degrees, shifts))
        ]
        if not ref.extraneous_minor_nonzero(polys, degrees, p):
            stats["redrawn_transformed"] = stats.get("redrawn_transformed", 0) + 1
        elif ref.reduce(ref.root_det(m0_set(degrees), roots, p), p):
            return polys, roots, L


def linear_form(rng, n):
    g = {(0,) * n: rng.choice(COEFFS)}
    for j in range(n):
        g[_unit(n, j, 1)] = rng.choice(COEFFS)
    return g


# ---------------------------------------------------------------------------
# workloads


class Question:
    """One basis-check question; ``path`` is set when its system file is written."""

    def __init__(self, name, system, degrees, p, polys, mset, kind, degenerate):
        self.name = name
        self.system = system  # (file name, file text)
        self.path = None
        self.degrees = tuple(degrees)
        self.p = p
        self.field = f"fp:{p}" if p else "q"
        self.polys = polys
        self.mset = [tuple(m) for m in mset]
        self.monomials = set_text(self.mset)
        self.kind = kind  # "M0" | "lifted" | "nonbasis"
        self.degenerate = degenerate  # one of the fixed degenerate_systems()

    @property
    def delta(self):
        return max(sum(m) for m in self.mset)

    def argv(self, field=None):
        return [
            "basis-check", "--field", field or self.field,
            "--system", self.path, "--monomials", self.monomials,
        ]


class Identity:
    """One identity call: factor, mulmat, vandermonde-verify or vandermonde-transformed."""

    def __init__(self, kind, **kw):
        self.kind = kind
        self.__dict__.update(kw)


def _fp_tag(p):
    return "q" if p is None else {P_SMALL: "p101", P_MID: "pmid", P_BIG: "pbig"}[p]


def _spec(workload):
    """(questions spec, identity spec) of a workload.

    Question spec rows: (kind of system, degrees, p, set kinds), and for
    the fixed degenerate systems a fifth entry, the polynomials.
    """
    if workload == "q-dense":
        q = [("dense", (2, 2, 2), None, ("M0", "lifted", "nonbasis"))] * 2
        q += [("dense", (3, 2, 2), None, ("M0", "lifted", "nonbasis"))] * 2
        q += [("dense", (2, 2, 2, 2), None, ("M0", "nonbasis"))] * 2
        q += [("dense", (2, 2, 2, 2), None, ("M0",))] * 2
        ids = {
            "factor": [2, 4],  # indices into the system list, on M0
            "mulmat": [((2, 2, 2), None)],
            "vandermonde-verify": [((2, 2, 2, 2), None)],
            "vandermonde-transformed": [((2, 2, 2, 2), None)],
        }
    elif workload == "fp-dense":
        q = [
            ("dense", (2, 2, 2, 2), P_SMALL, ("M0", "lifted", "nonbasis")),
            ("dense", (3, 2, 2, 2), P_SMALL, ("M0", "lifted", "nonbasis")),
            ("dense", (2, 2, 2, 2, 2), P_SMALL, ("M0",)),
            ("dense", (2, 2, 2, 2), P_BIG, ("M0", "lifted", "nonbasis")),
            ("dense", (3, 2, 2, 2), P_BIG, ("M0", "nonbasis")),
        ]
        ids = {
            "factor": [1, 4],
            "mulmat": [((3, 2, 2), P_BIG)],
            "vandermonde-verify": [((3, 2, 2, 2), P_MID)],
            "vandermonde-transformed": [((3, 2, 2, 2), P_BIG)],
        }
    elif workload == "sparse-cli":
        q = []
        for degrees, q_sets, p_sets in (
            ((2, 2, 2), ("M0", "lifted"), ("M0", "lifted")),
            ((3, 2, 2), ("M0",), ("M0", "lifted")),
            ((2, 2, 2, 2), (), ("M0",)),
        ):
            for _ in range(SPARSE_PER_PROFILE):
                if q_sets:
                    q.append(("sparse", degrees, None, q_sets))
                q.append(("sparse", degrees, P_SMALL, p_sets))
        q += [("degenerate", degrees, p, ("M0",), polys)
              for degrees, p, polys in degenerate_systems()]
        ids = {
            "factor": [0, 1],
            "mulmat": [((2, 2, 2), None)],
            "vandermonde-verify": [((2, 2, 2), None)],
            "vandermonde-transformed": [((2, 2, 2), None)],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return q, ids


def draw(workload, seed):
    """Draw the questions and identity calls of ``workload`` for ``seed``.

    Returns (questions, identities, stats); nothing is written yet.
    """
    rng = random.Random(f"{workload}:{seed}")
    stats = {}
    spec, id_spec = _spec(workload)
    systems = []
    questions = []
    for k, (kind, degrees, p, set_kinds, *fixed) in enumerate(spec):
        polys = fixed[0] if fixed else draw_system(rng, degrees, p, kind, stats)
        name = f"s{k:02d}-{kind}-{''.join(map(str, degrees))}-{_fp_tag(p)}"
        system = (name + ".txt", system_text(f"{workload} seed {seed}: {name}", degrees, polys))
        systems.append((system, degrees, p))
        for sk in set_kinds:
            if sk == "M0":
                mset = m0_set(degrees)
            elif sk == "lifted":
                mset = lifted_set(rng, degrees)
            else:
                mset = nonbasis_set(rng, degrees)
            questions.append(Question(f"{name}/{sk}", system, degrees, p, polys, mset, sk,
                                      kind == "degenerate"))

    # The identity systems do not depend on the seed: a transformed power
    # system is redrawn about one time in three, and redraws that varied with
    # the seed would make the inputs' cost vary with it.
    id_rng = random.Random(f"{workload}:identities")
    identities = []
    for k in id_spec["factor"]:
        system, degrees, p = systems[k]
        identities.append(Identity(
            "factor", system=system, degrees=degrees, p=p, mset=m0_set(degrees),
            question=next(q for q in questions if q.system is system and q.kind == "M0"),
        ))
    for kind in ("mulmat", "vandermonde-verify", "vandermonde-transformed"):
        for j, (degrees, p) in enumerate(id_spec[kind]):
            n = len(degrees)
            ident = Identity(kind, degrees=degrees, p=p, mset=m0_set(degrees), system=None)
            if kind == "vandermonde-verify":
                # the CLI builds x_i^d_i - 1 itself
                ident.roots = power_roots(degrees, [1] * n, p)
            else:
                polys, roots, L = transformed_power(id_rng, degrees, p, stats)
                name = f"{kind}{j}-{''.join(map(str, degrees))}-{_fp_tag(p)}"
                ident.system = (name + ".txt",
                                system_text(f"{workload}: {name}", degrees, polys))
                ident.polys, ident.roots, ident.L = polys, roots, L
                if kind == "mulmat":
                    ident.g = linear_form(id_rng, n)
            identities.append(ident)
    return questions, identities, stats


def write(questions, identities, outdir):
    """Write every system file under ``outdir`` and set the ``path`` of each user."""
    os.makedirs(outdir, exist_ok=True)
    for item in list(questions) + list(identities):
        if item.system is None:
            continue
        filename, text = item.system
        item.path = os.path.join(outdir, filename)
        with open(item.path, "w", encoding="utf-8") as fh:
            fh.write(text)
