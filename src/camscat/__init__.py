"""Fixed-energy scattering for radial magnetic media outside a disk.

Direct problem: complex-order Bessel/Hankel core, Jost and regular
solutions of the radial equation, Jost functions, the Regge interpolation
function and phase shifts.  Inverse steps: magnetic-flux recovery from
the large-l tail of sigma, the Jost-function discriminator of two media,
and the cross-Wronskian uniqueness witness.
"""

__version__ = "0.1.0"

from .errors import (BetaZero, CamscatError, ConvergenceError, DomainError,
                     FluxMismatch, IllConditioned, InsufficientTail,
                     IntegrationError, PoleError, QuadratureError)
from .fields import (EffectivePotential, GaugeData, Medium, RadialProfile,
                     bump_field, bump_profile, build_gauge,
                     effective_potential, medium_from_dict, medium_from_json,
                     medium_to_dict, mirror, poly_profile, step_profile,
                     validate_class_C, zero_profile)
from .inverse import (DiscriminatorReport, FluxEstimate, borg_marchenko_F,
                      decouple_potentials, discriminator_F, recover_flux)
from .radial import (RadialGrid, grid_for, jost_endpoints, jost_solve,
                     make_grid, regular_solve, wronskian)
from .scattering import (CamScan, JostFunctions, ScatteringData, cam_scan,
                         jost_functions_many, phase_shifts, regge_sigma,
                         sigma_free, sigma_many)
from .specfun import BesselValue, bessel_h, gamma_complex
from .verification import (run_verification, verify_kernel_bounds,
                           verify_regular_bound)
