"""Exception types shared across the package."""


class HamformsError(Exception):
    """Base class for all package errors."""


class PoleError(HamformsError):
    """Evaluation point lies on the zero set of a denominator."""


class DimensionMismatch(HamformsError):
    """Operands live in incompatible dimensions or rings."""


class OddDimension(HamformsError):
    """Pfaffian-type operation applied to an odd-sized matrix."""


class SingularMatrix(HamformsError):
    """Matrix (or its Pfaffian) is identically zero where invertibility is required."""


class NotInThetaEta(HamformsError):
    """Two-form is not in the trace-free complement of the symplectic form."""


class DegenerateMetric(HamformsError):
    """Metric block of a three-form has identically vanishing Pfaffian."""


class DegenerateImage(HamformsError):
    """A transformation produced a pair outside the admissible class."""


class WrongTBlock(HamformsError):
    """Classification requires the canonical metric block and got something else."""


class ParseError(HamformsError):
    """Input file is not syntactically valid."""


class ValidationError(HamformsError):
    """Input file is syntactically valid but semantically inconsistent."""


class NoResidue(HamformsError, ValueError):
    """A rational number has no residue modulo the sampling prime."""


class NullSystemWarning(UserWarning):
    """Three-form has no system part; the induced flux is constant."""
