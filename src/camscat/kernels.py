"""Green kernels of the free radial equation and empirical bound checks.

With nu_R = nu - flux and the fundamental pair

    u(r) = sqrt(pi r / 2) J_{nu_R}(r),
    v(r) = -i sqrt(pi r / 2) H1_{nu_R}(r),

the kernels are

    N(r, s, nu) = u(r) v(s) - u(s) v(r)
    M(r, s, nu) = (r/s)^{nu_R} N(r, s, nu)
    K(r, s, nu) = (F0+(s, nu) / F0+(r, nu)) N(r, s, nu)

N is the variation-of-constants kernel of the scattering integral
equation, M its weighted version used for the contraction estimates, K
the version normalized by the free outgoing solution.

N admits two algebraically equal product forms,

    N = -i (pi/2) sqrt(rs) [J(r) H1(s) - J(s) H1(r)]
      = +i (pi/4) sqrt(rs) [H1(r) H2(s) - H1(s) H2(r)],

whose cancellation behavior is complementary: the J,H1 form is stable for
dominantly real orders (the two products differ by (s/r)^{2 Re nu_R}), the
H1,H2 form near the imaginary axis (the e^{pi |Im nu_R|} growth lives in
H1 alone and cancels against the decay of H2).  Each evaluation computes
both and keeps the one whose intermediate products are smaller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByNearZero
from .specfun import _check_order, _check_radius, _hankel_arrays

_DENOM_FLOOR = 1e-300


def _n_outer(nu_R: complex, r: np.ndarray):
    """Matrix N(r_i, r_j) over a radius array, cancellation-aware."""
    j, _, h1, h2, _, _, _ = _hankel_arrays(nu_R, r)
    root = np.sqrt(0.5 * math.pi * r)
    ju, hu, hv = root * j, root * h1, root * h2
    pa1 = np.outer(ju, hu)                     # J(r) H1(s) products
    fa = -1j * (pa1 - pa1.T)                   # J,H1 form
    ma = np.maximum(np.abs(pa1), np.abs(pa1.T))
    pb1 = np.outer(hu, hv)                     # H1(r) H2(s) products
    fb = 0.5j * (pb1 - pb1.T)                  # H1,H2 form
    mb = 0.5 * np.maximum(np.abs(pb1), np.abs(pb1.T))
    out = np.where(ma <= mb, fa, fb)
    np.fill_diagonal(out, 0.0)
    return out


def kernel_N(r: float, s: float, nu: complex, flux: float = 0.0) -> complex:
    """N(r, s, nu); exactly zero on the diagonal r = s."""
    if r == s:
        return 0j
    nu_R = _check_order(complex(nu) - flux)
    pts = _check_radius(np.array([float(r), float(s)]))
    return complex(_n_outer(nu_R, pts)[0, 1])


def kernel_M(r: float, s: float, nu: complex, flux: float = 0.0) -> complex:
    """M(r, s, nu) = (r/s)^{nu_R} N(r, s, nu), overflow-safe via exp-log."""
    if r == s:
        return 0j
    nu_R = complex(nu) - flux
    w = np.exp(nu_R * (math.log(r) - math.log(s)))
    return complex(w * kernel_N(r, s, nu, flux))


def kernel_K(r: float, s: float, nu: complex, flux: float = 0.0) -> complex:
    """K(r, s, nu) = (F0+(s)/F0+(r)) N(r, s, nu).

    The order-dependent phase of F0+ cancels in the ratio, leaving
    sqrt(s/r) H1(s)/H1(r).  Raises DivisionByNearZero if the denominator
    H1_{nu_R}(r) is below the representable floor (impossible for real nu).
    """
    if r == s:
        return 0j
    nu_R = _check_order(complex(nu) - flux)
    pts = _check_radius(np.array([float(r), float(s)]))
    _, _, h1, _, _, _, _ = _hankel_arrays(nu_R, pts)
    if abs(h1[0]) < _DENOM_FLOOR:
        raise DivisionByNearZero(f"F0+({r:g}, nu) ~ 0 at nu_R = {nu_R:g}")
    ratio = math.sqrt(s / r) * h1[1] / h1[0]
    return complex(ratio * kernel_N(r, s, nu, flux))


@dataclass(frozen=True)
class KernelBoundReport:
    """Empirical constant for |N| <= C/(|nu_R|+1) (s/r)^{Re nu_R}."""

    c_emp: float
    c_emp_half: float          # same scan on every other grid point
    max_location: tuple        # (r, s, nu) attaining c_emp
    n_grid: int

    @property
    def stable(self) -> bool:
        lo, hi = sorted((self.c_emp, self.c_emp_half))
        return math.isfinite(hi) and hi <= 2.0 * lo

    @property
    def passed(self) -> bool:
        return self.stable

    def to_dict(self) -> dict:
        return {
            "grid": self.n_grid,
            "C_emp": self.c_emp,
            "C_emp_half_grid": self.c_emp_half,
            "max_location": [self.max_location[0], self.max_location[1],
                             [self.max_location[2].real, self.max_location[2].imag]],
            "pass": self.passed,
        }


def _weighted_N_max(r_grid: np.ndarray, nu: complex, flux: float):
    """max over r <= s of |N| (|nu_R|+1) (r/s)^{Re nu_R} and its location."""
    nu_R = complex(nu) - flux
    n_mat = np.abs(_n_outer(nu_R, r_grid))
    logr = np.log(r_grid)
    w = np.exp(nu_R.real * (logr[:, None] - logr[None, :]))
    q = n_mat * w * (abs(nu_R) + 1.0)
    iu = np.triu_indices(len(r_grid), k=1)              # strictly r < s
    vals = q[iu]
    k = int(np.argmax(vals))
    return float(vals[k]), (float(r_grid[iu[0][k]]), float(r_grid[iu[1][k]]))


def verify_kernel_bounds(r0: float, R: float, nu_samples, flux: float = 0.0,
                         n_grid: int = 33) -> KernelBoundReport:
    """Scan |N| (|nu_R|+1) (r/s)^{Re nu_R} over [r0, R]^2 and the nu samples.

    All samples must satisfy Re(nu_R) >= 0, the half plane the decay
    estimate covers.  Stability is judged against the same scan on the
    half-resolution grid.
    """
    nu_samples = tuple(complex(n) for n in nu_samples)
    for nu in nu_samples:
        if (nu - flux).real < -1e-12:
            raise ValueError("bound verification requires Re(nu_R) >= 0")
    grid = np.linspace(r0, R, n_grid)
    half = grid[::2] if n_grid >= 4 else grid
    best, best_half = 0.0, 0.0
    loc = (r0, R, nu_samples[0])
    for nu in nu_samples:
        c, where = _weighted_N_max(grid, nu, flux)
        if c > best:
            best, loc = c, (where[0], where[1], nu)
        c2, _ = _weighted_N_max(half, nu, flux)
        best_half = max(best_half, c2)
    return KernelBoundReport(best, best_half, loc, n_grid)


def default_nu_rays(flux: float = 0.0):
    """The ray sampling used by the bound suites.

    Real axis nu_R in 1..40, imaginary axis i*(5..40 step 5), and the
    diagonal rays at +-pi/4 out to |nu_R| = 40, all shifted by the flux so
    Re(nu_R) >= 0 holds.
    """
    real = [flux + k for k in range(1, 41)]
    imag = [flux + 1j * y for y in range(5, 41, 5)]
    diag = []
    for rho in range(5, 41, 5):
        c = rho / math.sqrt(2.0)
        diag.append(flux + c + 1j * c)
        diag.append(flux + c - 1j * c)
    return tuple(real + imag + diag)
