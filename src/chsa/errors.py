"""Exception types shared across the package."""


class ChsaError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveCoordinate(ChsaError):
    """Log transform requested on data with a coordinate <= 0."""


class NonFiniteCoordinate(ChsaError):
    """A point has a NaN or infinite coordinate."""


class NonPositiveAlpha(ChsaError):
    """Uniform scaling factor must be strictly positive."""


class KTooLarge(ChsaError):
    """Requested neighbor count exceeds p - 1."""


class DimensionMismatch(ChsaError):
    """Point / neighbor-matrix dimensions disagree."""


class KktSingular(ChsaError):
    """Newton system singular beyond the regularization floor."""


class WrongDimension(ChsaError):
    """Operation requires data of a specific ambient dimension."""


class OutOfCube(ChsaError):
    """Coordinate outside the unit cube."""


class UnknownKind(ChsaError):
    """Generator spec names a kind that does not exist."""


class NotUnitScaled(ChsaError):
    """Cloud coordinates fall outside [0, 1] and no override was given."""


class DegenerateVertices(UserWarning):
    """Simplex-mixture vertices are affinely dependent (warning-level)."""
