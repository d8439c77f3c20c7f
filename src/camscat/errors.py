"""Exception hierarchy shared by all camscat modules."""


class CamscatError(Exception):
    """Base class for every error raised by this package."""


class PoleError(CamscatError):
    """Gamma function evaluated at a nonpositive integer."""


class DomainError(CamscatError):
    """Argument outside the domain an operation guarantees accuracy on."""


class ConvergenceError(CamscatError):
    """A series or iteration failed to meet its truncation bound."""


class QuadratureError(CamscatError):
    """Adaptive quadrature could not meet the requested tolerance."""


class IntegrationError(CamscatError):
    """ODE integration failed (step-doubling budget exhausted or zero span)."""


class FluxMismatch(CamscatError):
    """Two media were compared whose magnetic fluxes differ."""


class InsufficientTail(CamscatError):
    """Too few large-l records, or sigma(l) not yet at its limit over them."""


class IllConditioned(CamscatError):
    """A linear extraction was requested with nearly coincident nodes."""
