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

verify_kernel_bounds estimates C in |N| <= C/(1+|nu_R|) (s/r)^{Re nu_R}
from one N matrix per order; its BoundReport is also the report of
radial.verify_regular_bound.
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
class BoundReport:
    """Empirical constant of a bound scan on the given nodes and on a second
    node set: every other node for the kernel scan, the midpoint-refined
    grid for the regular-solution scan."""

    c_emp: float
    c_emp_alt: float

    @property
    def drift(self) -> float:
        """Larger constant over smaller; inf unless both are finite and positive."""
        lo, hi = sorted((self.c_emp, self.c_emp_alt))
        return hi / lo if lo > 0 and math.isfinite(hi) else math.inf

    @property
    def stable(self) -> bool:
        return self.drift <= 2.0


def verify_kernel_bounds(r0: float, R: float, nu_samples, flux: float = 0.0,
                         n_grid: int = 33) -> BoundReport:
    """Scan |N| (|nu_R|+1) (r/s)^{Re nu_R} over r < s on [r0, R] and the nu samples.

    All samples must satisfy Re(nu_R) >= 0, the half plane the decay
    estimate covers.  Each order takes one N matrix on the n_grid nodes;
    c_emp_alt is its maximum over every other node (the whole grid when
    n_grid < 4), the half-resolution scan that judges stability.
    """
    nu_samples = tuple(complex(n) for n in nu_samples)
    for nu in nu_samples:
        if (nu - flux).real < -1e-12:
            raise ValueError("bound verification requires Re(nu_R) >= 0")
    grid = np.linspace(r0, R, n_grid)
    logr = np.log(grid)
    step = 2 if n_grid >= 4 else 1
    best, best_half = 0.0, 0.0
    for nu in nu_samples:
        nu_R = nu - flux
        w = np.exp(nu_R.real * (logr[:, None] - logr[None, :]))
        q = np.triu(np.abs(_n_outer(nu_R, grid)) * w * (abs(nu_R) + 1.0), k=1)
        best = max(best, float(np.max(q)))
        best_half = max(best_half, float(np.max(q[::step, ::step])))
    return BoundReport(best, best_half)


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
