"""Exception types shared across the package."""


class UsageError(ValueError):
    """Input outside what the package accepts; the CLI exits 64."""


class PolySyntaxError(UsageError):
    """Malformed polynomial text."""


class DegreeError(UsageError):
    """A term's degree disagrees with the declared degree."""


class VariableIndexError(UsageError):
    """Variable index outside 0..n."""


class ZeroPolynomialError(UsageError):
    """Operation undefined for the zero polynomial."""


class DimensionMismatchError(UsageError):
    """Operands live in different ambient dimensions."""


class SupportMismatchError(UsageError):
    """Binomial monomials absent from the polynomial, or coefficients differ."""


class DomainError(UsageError):
    """Parameters outside the supported range."""


class GenericityError(RuntimeError):
    """Random sampling failed to reach the generic locus within budget."""


class CertificateError(RuntimeError):
    """A verification step inside a certificate failed."""
