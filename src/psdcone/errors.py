"""Exception types shared across the package."""


class PsdConeError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(PsdConeError, ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class BackendError(PsdConeError, ValueError):
    """An operation was requested on a backend that does not support it."""


class NotSemilinearError(PsdConeError, ValueError):
    """A line map could not be realized by any semilinear operator."""


class LineMapError(PsdConeError, ValueError):
    """A map did not produce a valid projective line where one was required."""


class GenerationError(PsdConeError, RuntimeError):
    """A randomized generator exhausted its retry budget or got an impossible request."""


class MatrixFileError(PsdConeError, ValueError):
    """A matrix or map file failed validation; the message names the offending field."""
