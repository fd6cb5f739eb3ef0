"""Exception types shared across the library."""


class AlgebraError(Exception):
    """Base class for all library errors."""


class ShapeError(AlgebraError):
    """Matrix or system dimensions do not match the operation."""


class DegreeError(AlgebraError):
    """A declared degree is inconsistent with the data."""


class InputError(AlgebraError):
    """Structurally invalid input (bad monomial set, wrong cardinality, ...)."""


class NotFullRank(AlgebraError):
    """A map has no non-zero maximal minor: its rows are dependent."""


class NotExact(AlgebraError):
    """A decomposition stage of a complex failed; its determinant is zero."""


class ParseError(AlgebraError):
    """Malformed polynomial or monomial text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position
