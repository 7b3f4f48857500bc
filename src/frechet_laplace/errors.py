"""Exception types shared across the library."""


class FrechetLaplaceError(Exception):
    """Base class for all library errors."""


class DomainError(FrechetLaplaceError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(FrechetLaplaceError):
    """Evaluation requested at a pole of the gamma function."""


class DivergentMoment(FrechetLaplaceError):
    """Moment order at or beyond the divergence boundary."""


class NonConvergence(FrechetLaplaceError):
    """An adaptive scheme could not produce a meaningful estimate."""


class ContourError(FrechetLaplaceError):
    """Contour abscissa violates the pole-separation / strip conditions."""


class MissingLaplace(FrechetLaplaceError):
    """The transform target lacks the input the chosen route needs."""
