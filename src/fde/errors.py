"""Exception types shared across the package."""


class FdeError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(FdeError):
    """Operands have incompatible sizes."""


class GridTooSmall(FdeError):
    """Sampling grid cannot represent the requested bandwidth."""


class ProblemFormatError(FdeError):
    """A problem file failed schema or semantic validation.

    ``path`` locates the offending entry in the JSON document.
    """

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class ScanBoundExceeded(FdeError):
    """The resonance scan bound exceeded the hard cap."""


class NotInImageError(FdeError):
    """Right-hand side has a component along the kernel directions."""


class R2ViolationError(FdeError):
    """The projected limit field vanished at a sphere sample.

    Carries the offending sample as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BlockStructureError(FdeError):
    """Kernel does not decompose into per-component blocks."""
