"""Macaulay matrices, the homogeneous resultant, Sylvester matrices and
classical univariate subresultants.

The row space of the degree-t Macaulay map splits per polynomial: the
block of f_i is spanned by the monomial multipliers x^b of degree t - d_i
whose exponents satisfy b_1 < d_1, ..., b_{i-1} < d_{i-1} (the exponent of
the homogenizing variable, when present, is unrestricted).  The resultant
of n forms in n variables is the classical quotient det(M) / det(E) at
degree rho + 1, normalized so that Res(x_1^{d_1}, ..., x_n^{d_n}) = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import EvaluationDegenerate, InputError, ShapeError
from .linalg import Matrix
from .polynomials import (
    MultiPoly,
    PolySystem,
    mono_key,
    mono_mul,
    monomials_of_degree,
)

__all__ = [
    "ClassicalSubresultantSequence",
    "classical_subresultants",
    "macaulay_matrix",
    "macaulay_row_monomials",
    "resultant_macaulay",
    "sylvester_resultant",
]


def macaulay_row_monomials(degrees, nvars: int, t: int) -> list:
    """Row labels (i, b): multiplier monomials of f_i, with the Macaulay
    restriction b_1 < d_1, ..., b_{i-1} < d_{i-1} on the affine variables."""
    offset = nvars - len(degrees)  # position of x1 in the exponent tuples
    if offset < 0:
        raise ShapeError("more polynomials than variables")
    rows = []
    for i, d in enumerate(degrees, start=1):
        for b in monomials_of_degree(nvars, t - d):
            if all(b[offset + j] < degrees[j] for j in range(i - 1)):
                rows.append((i, b))
    return rows


def macaulay_matrix(sys: PolySystem, columns, rows=None) -> Matrix:
    """Matrix of (p_1, ..., p_n) -> sum p_i f_i on the given row/column labels.

    Row (i, b) holds the coefficients of x^b f_i on the columns, which are
    monomials of one degree t; coefficients outside the columns are
    dropped.  The default rows are every multiplier (i, b) with
    deg b = t - d_i, so the row space is the degree-t piece of the ideal.
    """
    if rows is None:
        # an empty column set has no degree and gets no rows
        t = sum(columns[0]) if columns else 0
        rows = [
            (i, b)
            for i, d in enumerate(sys.degrees, start=1)
            for b in monomials_of_degree(sys.nvars, t - d)
        ]
    field = sys.field
    col_index = {m: j for j, m in enumerate(columns)}
    grid = []
    for i, b in rows:
        row = [field.zero] * len(columns)
        for mono, coeff in sys.polys[i - 1].terms.items():
            j = col_index.get(mono_mul(b, mono))
            if j is not None:
                row[j] = coeff
        grid.append(row)
    return Matrix(field, grid, ncols=len(columns))


def _macaulay_numerator_rows(degrees, nvars, t):
    # rows sorted by the bijection image b + d_i e_i so that the diagonal
    # system gets the identity matrix (this pins the sign of Res)
    offset = nvars - len(degrees)

    def image(label):
        i, b = label
        return tuple(
            e + (degrees[i - 1] if pos == offset + i - 1 else 0)
            for pos, e in enumerate(b)
        )

    rows = macaulay_row_monomials(degrees, nvars, t)
    return sorted(rows, key=lambda lab: mono_key(image(lab))), image


def resultant_macaulay(forms: PolySystem):
    """Res of n homogeneous forms in n variables, Res(x_i^{d_i}) = 1.

    Computed as det(M) / det(E) at t = rho + 1 (E the minor on monomials
    that are non-reduced in at least two variables).  If the extraneous
    minor vanishes for this specialization, nearby admissible degrees are
    tried before reporting EvaluationDegenerate.
    """
    n = forms.n
    if forms.nvars != n:
        raise ShapeError("need as many variables as forms")
    for f, d in zip(forms.polys, forms.degrees):
        if not f.is_homogeneous_of(d):
            raise InputError("resultant input must be homogeneous forms")
    degrees = forms.degrees
    rho = sum(degrees) - n
    for t in range(rho + 1, rho + 4):
        rows, image = _macaulay_numerator_rows(degrees, n, t)
        columns = monomials_of_degree(n, t)
        mat = macaulay_matrix(forms, columns, rows)
        extraneous_rows = [
            r
            for r, (i, b) in enumerate(rows)
            if any(b[j] >= degrees[j] for j in range(n) if j != i - 1)
        ]
        extraneous_cols = [
            c
            for c, m in enumerate(columns)
            if sum(1 for j in range(n) if m[j] >= degrees[j]) >= 2
        ]
        det_e = mat.submatrix(extraneous_rows, extraneous_cols).det()
        if det_e:
            return mat.det() / det_e
    raise EvaluationDegenerate(
        "extraneous Macaulay minor vanished at every tried degree"
    )


def _univariate_coeffs(f: MultiPoly, d: int) -> list:
    """Coefficients c_0..c_d of a declared-degree-d polynomial in one
    variable, or of a binary form (coefficient of x1^k x2^(d-k))."""
    field = f.field
    coeffs = [field.zero] * (d + 1)
    if f.nvars == 1:
        if f.degree > d:
            raise InputError("degree above declared bound")
        for (e,), c in f.terms.items():
            coeffs[e] = c
    elif f.nvars == 2:
        if f.terms and not f.is_homogeneous_of(d):
            raise InputError("binary input must be homogeneous of the declared degree")
        for (e1, _), c in f.terms.items():
            coeffs[e1] = c
    else:
        raise ShapeError("expected a univariate polynomial or binary form")
    return coeffs


def _sylvester_like(field, fc, gc, d1, d2, k):
    # rows: x^(d2-k-1) f .. f then x^(d1-k-1) g .. g; columns by exponent
    # d1+d2-k-1 downward, truncated to the leading d1+d2-2k columns
    size = d1 + d2 - 2 * k
    exps = list(range(d1 + d2 - k - 1, d1 + d2 - k - 1 - size, -1))
    zero = field.zero
    rows = []
    for shift in range(d2 - k - 1, -1, -1):
        rows.append([fc[e - shift] if 0 <= e - shift <= d1 else zero for e in exps])
    for shift in range(d1 - k - 1, -1, -1):
        rows.append([gc[e - shift] if 0 <= e - shift <= d2 else zero for e in exps])
    return rows


def sylvester_resultant(f: MultiPoly, g: MultiPoly, d1: int, d2: int):
    """Determinant of the (d1+d2) x (d1+d2) Sylvester matrix."""
    if d1 < 1 or d2 < 1:
        raise InputError("declared degrees must be at least 1")
    fc = _univariate_coeffs(f, d1)
    gc = _univariate_coeffs(g, d2)
    rows = _sylvester_like(f.field, fc, gc, d1, d2, 0)
    return Matrix(f.field, rows, ncols=d1 + d2).det()


@dataclass(frozen=True)
class ClassicalSubresultantSequence:
    """Principal subresultant coefficients R_1 .. R_{d1-1}."""

    values: tuple

    def __getitem__(self, k: int):
        # 1-based, matching the usual R_k notation
        return self.values[k - 1]

    def __len__(self):
        return len(self.values)


def classical_subresultants(
    f: MultiPoly, g: MultiPoly, d1: int, d2: int
) -> ClassicalSubresultantSequence:
    """R_k for k = 1..d1-1 as Sylvester-submatrix determinants (d1 <= d2)."""
    if not 1 <= d1 <= d2:
        raise InputError("need 1 <= d1 <= d2")
    fc = _univariate_coeffs(f, d1)
    gc = _univariate_coeffs(g, d2)
    values = []
    for k in range(1, d1):
        rows = _sylvester_like(f.field, fc, gc, d1, d2, k)
        values.append(Matrix(f.field, rows, ncols=d1 + d2 - 2 * k).det())
    return ClassicalSubresultantSequence(tuple(values))
