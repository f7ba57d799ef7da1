"""Exception types shared across the package."""


class InnervarError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(InnervarError):
    """State or ambient dimensions of the supplied objects do not agree."""


class NonInvertible(InnervarError):
    """Newton inversion of a deformation map failed (t too large)."""


class UnsupportedBoundary(InnervarError):
    """A boundary where the operation allows none.

    X0 does not vanish on the outermost quadrature nodes where dA(u, X0) is
    taken by parts.
    """


class TubeTooNarrow(InnervarError):
    """Requested tubular width exceeds the focal distance of the surface."""


class EpsilonTooLarge(InnervarError):
    """Interface width parameter does not fit the tubular neighborhood."""


class StiffTail(InnervarError):
    """Profile ODE stalled before the tail tolerance was reached."""


class DegenerateReference(InnervarError):
    """Reference field has (numerically) zero flux through the interface."""


class ConfigError(InnervarError):
    """Experiment configuration is malformed or references unknown builders."""
