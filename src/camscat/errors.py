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


class BetaZero(CamscatError):
    """The Jost function beta vanished; sigma is undefined at this nu."""


class FluxMismatch(CamscatError):
    """Two media were compared whose magnetic fluxes differ."""


class InsufficientTail(CamscatError):
    """Not enough large-l records to extrapolate the sigma tail."""


class IllConditioned(CamscatError):
    """A linear extraction was requested with nearly coincident nodes."""
