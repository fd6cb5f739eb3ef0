"""Exact certification of monomial bases of zero-dimensional quotient rings.

Given f1..fn in K[x1..xn] with declared degrees d1..dn and a set M of
d1*...*dn monomials, the library decides exactly whether M is a basis of
the quotient algebra, via resultants of the leading forms and
subresultants computed as determinants of graded Koszul-type complexes.
"""

from .certify import (
    BasisCertificate,
    FactorizationReport,
    MultiplicationMatrix,
    VandermondeReport,
    certify_basis,
    degree_bound_reject,
    factorize_delta,
    multiplication_matrix,
    rank_oracle,
    sign_constant,
    upsilon_bivariate,
    vandermonde_verify,
)
from .detcomplex import (
    DecompositionTrace,
    decompose_ascending,
    decompose_descending,
)
from .errors import (
    AlgebraError,
    DegreeError,
    InputError,
    NotExact,
    NotFullRank,
    ParseError,
    ShapeError,
)
from .fields import GF, QQ, FpElement, PrimeField, RationalField, field_from_spec
from .hilbert import DegreeProfile, hilbert_H, hilbert_h
from .koszul import GradedComplex, build_complex
from .linalg import Matrix, MinorSelection, select_nonzero_maximal_minor
from .polynomials import (
    MonomialSet,
    MultiPoly,
    PolySystem,
    homogenize,
    m0_set,
    mono_key,
    monomials_of_degree,
)
from .resultants import classical_subresultants, resultant_macaulay
from .rootsystems import (
    linear_transform,
    power_system,
    roots_of_unity,
    transform_roots,
)
from .subresultants import (
    delta_shift_check,
    required_cardinality,
    subresultant_D,
    subresultant_delta,
)

__version__ = "0.1.0"
