"""Fixed-energy scattering for radial magnetic media outside a disk.

Direct problem: complex-order Bessel/Hankel core, Jost and regular
solutions of the radial equation, Jost functions, the Regge interpolation
function and phase shifts.  Inverse steps: magnetic-flux recovery from
the large-l tail of sigma, the Jost-function discriminator of two media,
and the cross-Wronskian uniqueness witness.
"""

__version__ = "0.1.0"

from .errors import (BetaZero, CamscatError, ConvergenceError,
                     DivisionByNearZero, DomainError, FluxMismatch,
                     IllConditioned, InsufficientTail, IntegrationError,
                     NoConvergence, PoleError, QuadratureError)
from .fields import (EffectivePotential, GaugeData, Medium, RadialProfile,
                     bump_field, bump_profile, build_gauge,
                     effective_potential, medium_from_dict, medium_from_json,
                     medium_to_dict, mirror, poly_profile, step_profile,
                     validate_class_C, zero_profile)
from .inverse import (DiscriminatorReport, FluxEstimate, borg_marchenko_F,
                      borg_marchenko_reconstructed, decouple_potentials,
                      discriminator_F, recover_flux)
from .kernels import kernel_K, kernel_M, kernel_N, verify_kernel_bounds
from .radial import (RadialGrid, c_r_factor, free_jost, grid_for,
                     jost_endpoints, jost_solve, jost_solve_volterra,
                     make_grid, regular_solve, verify_regular_bound, wronskian)
from .scattering import (CamScan, JostFunctions, ScatteringData, cam_scan,
                         jost_functions, jost_functions_many, phase_shifts,
                         regge_sigma, sigma_free, sigma_many,
                         sigma_tail_negative)
from .specfun import BesselValue, bessel_h, bessel_j, gamma_complex
from .verification import run_verification
