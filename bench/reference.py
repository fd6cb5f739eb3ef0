"""Independent exact reference for the benchmark's checks.

Standard library only, and nothing from ``monobasis``: its own monomials,
Hilbert function, modular elimination and Fraction elimination.  It
decides

* Res(leading forms) != 0, from the rank of the full Macaulay map of the
  leading forms at degree rho + 1 (onto exactly when Res != 0);
* whether M is a basis, from the graded rank test at t = max(delta, rho):
  with Res != 0, M is a basis exactly when the degree-t multiples of the
  homogenized f_i span every coordinate outside M_t;
* for systems with known simple roots, whether M is a basis, from
  det[m_j(zeta_i)] != 0, and the product of g over the roots.

``p`` is a prime for F_p and ``None`` for Q.  Over Q every matrix has
integer entries; a rank that is full modulo P_REF is full over Q (a
non-zero minor mod P_REF is non-zero over Z), and any other rank is
recomputed with Fractions.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

P_REF = 2**61 - 1


def monomials(n, d):
    """All exponent tuples of total degree d in n variables."""
    if d < 0:
        return []
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for k in combo:
            e[k] += 1
        out.append(tuple(e))
    return out


def hilbert_h(degrees, upto):
    """h(0..upto): coefficients of prod(1 - T^d_i) / (1 - T)^n."""
    c = [1] + [0] * upto
    for d in degrees:
        for k in range(upto, d - 1, -1):
            c[k] -= c[k - d]
    for _ in degrees:
        for k in range(1, upto + 1):
            c[k] += c[k - 1]
    return c


def reduce(x, p):
    if p is None:
        return Fraction(x)
    if isinstance(x, int):
        return x % p
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


# ---------------------------------------------------------------------------
# elimination


def _rank_mod(rows, p):
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        head = rows[rank]
        inv = pow(head[c], -1, p)
        tail = [x * inv % p for x in head[c:]]
        for i in range(rank + 1, len(rows)):
            r = rows[i]
            f = r[c]
            if f:
                r[c:] = [(a - f * b) % p for a, b in zip(r[c:], tail)]
        rank += 1
    return rank


def _rank_frac(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        head = rows[rank]
        tail = [x / head[c] for x in head[c:]]
        for i in range(rank + 1, len(rows)):
            r = rows[i]
            f = r[c]
            if f:
                r[c:] = [a - f * b for a, b in zip(r[c:], tail)]
        rank += 1
    return rank


def rank(rows, p):
    if p is not None:
        return _rank_mod(rows, p)
    r = _rank_mod(rows, P_REF)
    if rows and r == min(len(rows), len(rows[0])):
        return r
    return _rank_frac(rows)


def det(rows, p):
    """Determinant by Gaussian elimination, in F_p or Q."""
    n = len(rows)
    m = [[reduce(x, p) for x in r] for r in rows]
    value = 1 if p else Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0 if p else Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            value = -value
        head = m[c]
        value = value * head[c] % p if p else value * head[c]
        inv = pow(head[c], -1, p) if p else 1 / head[c]
        for i in range(c + 1, n):
            r = m[i]
            f = r[c] * inv % p if p else r[c] * inv
            if f:
                r[c:] = [(a - f * b) % p if p else a - f * b for a, b in zip(r[c:], head[c:])]
    return value


def inverse(rows, p):
    """Inverse of a small invertible matrix by Gauss-Jordan, in F_p or Q."""
    n = len(rows)
    one = reduce(1, p)
    m = [[reduce(x, p) for x in r] + [one if i == j else 0 * one for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c])
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], -1, p) if p else 1 / m[c][c]
        m[c] = [x * inv % p if p else x * inv for x in m[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and f:
                m[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(m[i], m[c])]
    return [r[n:] for r in m]


# ---------------------------------------------------------------------------
# polynomials


def poly_mul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c % p if p else c for m, c in out.items() if (c % p if p else c)}


def poly_pow(f, e, p):
    n = len(next(iter(f)))
    out = {(0,) * n: 1}
    for _ in range(e):
        out = poly_mul(out, f, p)
    return out


def compose(f, L, p):
    """f(L x): x_i replaced by sum_j L_ij x_j."""
    n = len(L)
    lin = [{tuple(int(k == j) for k in range(n)): L[i][j] for j in range(n) if L[i][j]}
           for i in range(n)]
    out = {}
    for m, c in f.items():
        term = {(0,) * n: c}
        for i, e in enumerate(m):
            if e:
                term = poly_mul(term, poly_pow(lin[i], e, p), p)
        for mm, cc in term.items():
            out[mm] = out.get(mm, 0) + cc
    return {m: c % p if p else c for m, c in out.items() if (c % p if p else c)}


def evaluate(f, point, p):
    total = 0
    for m, c in f.items():
        v = reduce(c, p)
        for x, e in zip(point, m):
            v *= reduce(x, p) ** e
        total += v
    return total % p if p else total


def roots_of_unity(d, p):
    """The d-th roots of unity of F_p (all d of them), or of Q for d <= 2."""
    if p is None:
        if d > 2:
            raise ValueError(f"Q has no primitive {d}-th root of unity")
        return [1, -1][:d]
    if (p - 1) % d:
        raise ValueError(f"F_{p} has no primitive {d}-th root of unity")
    prime_factors = [q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))]
    for g in range(2, p):
        w = pow(g, (p - 1) // d, p)
        if all(pow(w, d // q, p) != 1 for q in prime_factors):
            return [pow(w, k, p) for k in range(d)]
    raise ValueError(f"no primitive {d}-th root of unity in F_{p}")


def root_det(mset, roots, p):
    """det[m_j(zeta_i)]: rows are roots, columns the monomials of M."""
    grid = [[evaluate({m: 1}, z, p) for m in mset] for z in roots]
    return det(grid, p)


def product_over_roots(g, roots, p):
    value = reduce(1, p)
    for z in roots:
        value = value * evaluate(g, z, p)
        if p:
            value %= p
    return value


# ---------------------------------------------------------------------------
# the three decisions


def _leading(polys, degrees):
    return [{m: c for m, c in f.items() if sum(m) == d} for f, d in zip(polys, degrees)]


def _multiples(forms, degrees, nvars, t, columns):
    """Rows x^b * F_i for every b of degree t - d_i, restricted to ``columns``."""
    index = {m: j for j, m in enumerate(columns)}
    rows = []
    for f, d in zip(forms, degrees):
        for b in monomials(nvars, t - d):
            row = [0] * len(columns)
            for m, c in f.items():
                j = index.get(tuple(x + y for x, y in zip(b, m)))
                if j is not None:
                    row[j] += c
            rows.append(row)
    return rows


def resultant_nonzero(polys, degrees, p):
    """Res(leading forms) != 0: the Macaulay map at rho + 1 is onto."""
    n = len(degrees)
    t = sum(degrees) - n + 1
    columns = monomials(n, t)
    rows = _multiples(_leading(polys, degrees), degrees, n, t, columns)
    return rank(rows, p) == len(columns)


def graded_basis(polys, degrees, mset, p):
    """Graded rank test at t = max(delta, rho), assuming Res != 0."""
    n = len(degrees)
    t = max(max(sum(m) for m in mset), sum(degrees) - n)
    homog = [{(d - sum(m),) + m: c for m, c in f.items()} for f, d in zip(polys, degrees)]
    m_t = {(t - sum(m),) + tuple(m) for m in mset}
    complement = [m for m in monomials(n + 1, t) if m not in m_t]
    rows = _multiples(homog, degrees, n + 1, t, complement)
    return rank(rows, p) == len(complement)


def is_basis(polys, degrees, mset, p):
    return resultant_nonzero(polys, degrees, p) and graded_basis(polys, degrees, mset, p)


def extraneous_minor_nonzero(polys, degrees, p, exact=False):
    """Whether Macaulay's extraneous minor E is non-zero at some t in rho+1..rho+3.

    E keeps the multipliers x^b of f_i (with b_j < d_j for j < i) that are
    non-reduced in a variable other than x_i, and the degree-t monomials
    that are non-reduced in at least two variables.  Over Q a determinant
    that is non-zero modulo P_REF is non-zero; with ``exact`` a zero one is
    recomputed with Fractions.
    """
    n = len(degrees)
    lead = _leading(polys, degrees)
    rho = sum(degrees) - n
    for t in range(rho + 1, rho + 4):
        cols = [m for m in monomials(n, t) if sum(m[j] >= degrees[j] for j in range(n)) >= 2]
        rows = []
        for i, d in enumerate(degrees):
            for b in monomials(n, t - d):
                if all(b[j] < degrees[j] for j in range(i)) and any(
                    b[j] >= degrees[j] for j in range(n) if j != i
                ):
                    rows.append((i, b))
        if len(rows) != len(cols):
            raise ValueError("extraneous minor is not square")
        index = {m: j for j, m in enumerate(cols)}
        grid = []
        for i, b in rows:
            row = [0] * len(cols)
            for m, c in lead[i].items():
                j = index.get(tuple(x + y for x, y in zip(b, m)))
                if j is not None:
                    row[j] += c
            grid.append(row)
        if det(grid, p or P_REF) or (p is None and exact and det(grid, None)):
            return True
    return False
