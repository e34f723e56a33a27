"""Exception hierarchy shared by all dwelltime modules."""


class DwellTimeError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DwellTimeError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class ConfigurationError(DwellTimeError, ValueError):
    """A specification is malformed: bad parameter names, bad grids, bad files."""


class ResolutionError(DwellTimeError):
    """The grid undersamples the local wavelength.

    Carries ``suggested_n_points`` so callers can retry with a usable grid.
    """

    def __init__(self, message: str, suggested_n_points: int | None = None):
        super().__init__(message)
        self.suggested_n_points = suggested_n_points


class MatchingError(DwellTimeError):
    """Amplitude extraction at the matching radius is not possible."""


class DifferentiationError(DwellTimeError):
    """A finite-difference stencil could not be evaluated consistently."""


class NodeAtBoundaryError(DwellTimeError):
    """The wave function vanishes at the matching radius; pick a different one."""


class NonphysicalStateError(DwellTimeError):
    """A computed state violates a positivity requirement (width, current)."""


class SubsystemConvergenceError(DwellTimeError):
    """One channel of a composite model failed to converge."""

    def __init__(self, channel: str, message: str):
        super().__init__(f"channel '{channel}': {message}")
        self.channel = channel


class InternalConsistencyError(DwellTimeError):
    """Two redundant computations of the same quantity disagree."""


class BlockOverflowError(DwellTimeError):
    """A block of the rescaled Numerov solve produced non-finite values.

    Carries the step ``h``, the growth bound ``kappa`` that sized the
    blocks and the index ``block`` of the offending block.
    """

    def __init__(self, h: float, kappa: float, block: int):
        super().__init__(
            f"Numerov block {block} overflowed (h = {h:.6g}, growth bound kappa = {kappa:.6g})")
        self.h = h
        self.kappa = kappa
        self.block = block
