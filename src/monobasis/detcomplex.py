"""Determinant of an exact complex via the two standard decompositions.

Both procedures are one loop over the differentials: every stage, the
last one and an empty one included, restricts its map to the basis
elements the previous stage left over and takes a deterministically
chosen non-zero maximal minor of it (an empty matrix has the empty minor,
of value 1).  They return the alternating product
prod det(phi_{i+1})^((-1)^i).  The two results agree up to sign on every
exact complex; when a stage has no non-zero maximal minor, or basis
elements are left over after the last stage, the complex is not exact and
NotExact is raised (callers read this as "determinant 0").  Whether a
stage finds a minor does not depend on the minors chosen before it.

Both take each stage's minor from ``select_nonzero_maximal_minor``, on
the free-pivot kernel, whose columns follow the sparsity of the stage
rather than their order.  The descending decomposition signs each stage's
minor by the shuffle that moves its chosen columns to the front, so its
value is the torsion of the complex in the given term bases: it does not
depend on which minors were chosen, and permuting the bases changes it by
the product of the permutations' signs.  ``koszul_det`` is that value for
the degree-t Koszul complex C_t(S); the resultant and every subresultant
are computed by it.  The ascending decomposition is unsigned, equal to it
up to sign; it chooses each stage's rows as the columns of the minor of
the transposed stage.

On a Koszul complex the descending decomposition first tries, on each
stage with fewer rows than columns, the minor on that stage's Macaulay
columns (``GradedComplex.macaulay_columns``; Macaulay 1902, Chardin
1993), which are named by exponents alone: it is +-1 on the pure powers
x_i^{d_i}, so non-zero for generic forms, and for the paper's set M0 it
serves every such stage of Delta.  Its kernel runs on a square matrix
instead of the whole stage.  Where that minor vanishes the stage takes
the free-pivot minor of its whole map, as any other complex does; either
way the value is the same torsion.  Stage 1 of an exact complex is
square and has no columns to choose.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotExact, NotFullRank
from .hilbert import required_cardinality
from .koszul import GradedComplex, build_complex
from .linalg import _restricted, _transposed, select_nonzero_maximal_minor
from .polynomials import PolySystem

__all__ = [
    "DecompositionTrace",
    "decompose_ascending",
    "decompose_descending",
    "koszul_det",
]


@dataclass(frozen=True)
class DecompositionTrace:
    """Per-stage minors and determinants, and the final alternating product."""

    stage_minors: tuple  # one MinorSelection per map index 1..s
    stage_dets: tuple
    delta: object


def _alternating_product(field, dets):
    # dets[i] is det(phi_{i+1}); exponent (-1)^i
    delta = field.one
    for i, d in enumerate(dets):
        delta = delta * d if i % 2 == 0 else delta / d
    return delta


def decompose_ascending(c: GradedComplex) -> DecompositionTrace:
    """Splitting from the right-most term, choosing row sets: each stage's
    minor is chosen on the transpose of its restricted map, whose pivot
    columns are the chosen rows."""
    dims = c.dims()
    cols = list(range(dims[0]))
    minors = []
    for k in range(1, c.s + 1):
        try:
            sel = select_nonzero_maximal_minor(_transposed(c.differentials[k - 1], cols))
        except NotFullRank:
            raise NotExact(f"stage {k}: restricted differential is not onto") from None
        minors.append(sel)
        chosen = set(sel.col_indices)
        cols = [i for i in range(dims[k]) if i not in chosen]
    if cols:
        raise NotExact("leftover basis elements after the last term")
    dets = [sel.minor_value for sel in minors]
    return DecompositionTrace(tuple(minors), tuple(dets), _alternating_product(c.field, dets))


def decompose_descending(c: GradedComplex) -> DecompositionTrace:
    """Splitting from the left-most term, choosing column sets, each wide
    stage its Macaulay columns if their minor is non-zero; each stage's
    minor is signed by the shuffle of its chosen columns."""
    dims = c.dims()
    rows = list(range(dims[c.s]))
    minors = []
    dets = []
    for k in range(c.s, 0, -1):
        d = c.differentials[k - 1]
        try:
            sel = select_nonzero_maximal_minor(_restricted(d, rows), c.macaulay_columns(k))
        except NotFullRank:
            raise NotExact(f"stage {k}: restricted differential is not into") from None
        cols = sel.col_indices
        # sign of the permutation that moves the chosen columns to the front
        odd = (sum(cols) - len(cols) * (len(cols) - 1) // 2) % 2
        minors.append(sel)
        dets.append(-sel.minor_value if odd else sel.minor_value)
        chosen = set(cols)
        rows = [j for j in range(dims[k - 1]) if j not in chosen]
    if rows:
        raise NotExact("leftover basis elements after the first term")
    minors.reverse()
    dets.reverse()
    return DecompositionTrace(tuple(minors), tuple(dets), _alternating_product(c.field, dets))


def koszul_det(sys: PolySystem, t: int, S):
    """Determinant of the degree-t Koszul complex C_t(S) of a homogeneous
    system, by the signed descending decomposition.

    Zero when #S is not the Hilbert count at t or the complex is not exact.
    """
    if len(S) != required_cardinality(sys.degrees, sys.nvars, t):
        return sys.field.zero
    try:
        return decompose_descending(build_complex(sys, t, S)).delta
    except NotExact:
        return sys.field.zero
