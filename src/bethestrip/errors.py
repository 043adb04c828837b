"""Exception types shared across the package."""


class BetheStripError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(BetheStripError):
    """A matrix that must be inverted is singular or numerically unusable."""


class OutOfBandError(BetheStripError):
    """A real energy lies outside the band where a closed form is defined."""


class UnsupportedEnsembleError(BetheStripError):
    """The requested operation is undefined for this disorder ensemble."""


class EigenvalueLawError(BetheStripError):
    """A computed eigenvalue violates the exact modulus law."""


class TruncationOverflowError(BetheStripError):
    """A polynomial exceeds the requested truncation degree or basis cap."""


class SizeOverflowError(BetheStripError):
    """A direct solve was requested beyond the supported problem size."""


class ConfigError(BetheStripError):
    """Invalid command-line or config-file input."""
