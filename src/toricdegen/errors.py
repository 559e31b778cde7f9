"""Exception types shared across the package."""


class PolySyntaxError(ValueError):
    """Malformed polynomial text."""


class DegreeError(ValueError):
    """A term's degree disagrees with the declared degree."""


class VariableIndexError(ValueError):
    """Variable index outside 0..n."""


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class SupportMismatchError(ValueError):
    """Binomial monomials absent from the polynomial, or coefficients differ."""


class DomainError(ValueError):
    """Parameters outside the supported range."""


class GenericityError(RuntimeError):
    """Random sampling failed to reach the generic locus within budget."""


class CertificateError(RuntimeError):
    """A verification step inside a certificate failed."""
