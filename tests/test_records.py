"""The result and input records: built by keyword, equal and hashed by
value, shown as Name(field=value, ...) and read-only."""
from fractions import Fraction

import pytest

from monobasis import (
    GF,
    QQ,
    BasisCertificate,
    DecompositionTrace,
    DegreeProfile,
    FactorizationReport,
    GradedComplex,
    Matrix,
    MinorSelection,
    MonomialSet,
    MultiplicationMatrix,
    MultiPoly,
    PolySystem,
    VandermondeReport,
)

F101 = GF(101)

# each type with a function making fresh field values, in field order and
# already in the form the constructor keeps, and whether it hashes: a
# Matrix or a MultiPoly in a field makes a record unhashable
RECORDS = [
    (BasisCertificate, lambda: dict(
        res_value=Fraction(3), delta_value=Fraction(-1, 2), t_used=3, verdict="basis",
        product=Fraction(-3, 2)), True),
    (FactorizationReport, lambda: dict(
        applicable=True, factors=((2, Fraction(5)),), product=Fraction(5)), True),
    (VandermondeReport, lambda: dict(
        det_value=F101.of(7), jacobian_product=F101.of(3), sign_const=-1, matched_sign=1,
        identity_residual=F101.zero, disp_exact=None, resultant_value=F101.of(2),
        subresultant_value=F101.of(5), t_used=4), True),
    (MultiplicationMatrix, lambda: dict(
        matrix=Matrix(QQ, [[1, 2], [0, 3]]), g=MultiPoly.variable(QQ, 2, 0), kernel_dim=0),
     False),
    (DecompositionTrace, lambda: dict(
        stage_minors=(MinorSelection((0, 1), Fraction(2)),), stage_dets=(Fraction(2),),
        delta=Fraction(2)), True),
    (MinorSelection, lambda: dict(col_indices=(0, 2), minor_value=Fraction(-4)), True),
    (GradedComplex, lambda: dict(
        s=1, t=2, nvars=2, term_bases=((((2, 0), ()),), (((0, 0), (1,)),)),
        differentials=(Matrix(QQ, [[1]]),), field=QQ, degrees=(2,)), False),
    (DegreeProfile, lambda: dict(degrees=(2, 3)), True),
    (PolySystem, lambda: dict(
        polys=(MultiPoly.variable(QQ, 2, 0), MultiPoly.variable(QQ, 2, 1)), degrees=(1, 2)),
     False),
    (MonomialSet, lambda: dict(monomials=((0, 0), (1, 0), (0, 1))), True),
]


@pytest.mark.parametrize("cls, values, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, values, hashable):
    fields = values()
    a, b = cls(**fields), cls(**values())
    assert a == b
    assert {name: getattr(a, name) for name in fields} == fields
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(a) == f"{cls.__name__}({shown})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    if cls is GradedComplex:
        del fields["degrees"]
        assert cls(**fields).degrees == ()
