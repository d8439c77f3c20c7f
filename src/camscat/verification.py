"""Invariant suites behind the verify command, and the bound scans they run.

Each group re-checks one family of identities or estimates at runtime on
a given medium (plus the zero medium where the check is medium-free) and
returns a measured worst-case value against its tolerance.  The Jost
groups solve all their orders in one jost_solve call per medium.
Groups:

    specfun_identities   conjugation/reflection symmetries, |Gamma(iy)|^2,
                         the Hankel Wronskian
    wronskian            W(F+, F-) = -2i across the grid (scaled residual)
    kernel_bounds        drift of the empirical constant of |N| between
                         the grid and every other node
    regular_bound        drift of the empirical constant of |Phi| between
                         the grid and its refinement
    symmetry             F_gamma(r, nu) = F_{-gamma}(r, -nu)
    sigma_limits         sigma(l) -> e^{+i pi gamma(R)} along the tail
    idalg                the two-sided Jost-function identity

The two bound scans report a BoundReport.  verify_kernel_bounds estimates
C in |N| <= C/(1+|nu_R|) (s/r)^{Re nu_R} for the variation-of-constants
kernel of the scattering integral equation,

    N(r, s, nu) = u(r) v(s) - u(s) v(r),    nu_R = nu - flux,
    u(r) = sqrt(pi r / 2) J_{nu_R}(r),  v(r) = -i sqrt(pi r / 2) H1_{nu_R}(r).

N admits two algebraically equal product forms,

    N = -i (pi/2) sqrt(rs) [J(r) H1(s) - J(s) H1(r)]
      = +i (pi/4) sqrt(rs) [H1(r) H2(s) - H1(s) H2(r)],

whose cancellation behavior is complementary: the J,H1 form is stable for
dominantly real orders (the two products differ by (s/r)^{2 Re nu_R}), the
H1,H2 form near the imaginary axis (the e^{pi |Im nu_R|} growth lives in
H1 alone and cancels against the decay of H2).  Each matrix entry takes
both and keeps the one whose intermediate products are smaller.
verify_regular_bound estimates the constant of |Phi| <= C/(1+|nu_R|)
(r/r0)^{Re nu_R} for the regular solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inverse, radial, scattering, specfun
from .fields import (EffectivePotential, Medium, bump_field,
                     effective_potential, mirror, step_profile)
from .specfun import _hankel_arrays

DEFAULT_TOLERANCES = {
    "specfun_identities": 1e-10,
    "wronskian": 1e-8,
    "kernel_bounds": 2.0,       # allowed refinement drift factor
    "regular_bound": 2.0,
    "symmetry": 1e-9,
    "sigma_limits": 0.05,
    "idalg": 1e-6,
}


# ---------------------------------------------------------------------------
# bound scans
# ---------------------------------------------------------------------------

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


def verify_regular_bound(q: EffectivePotential, nu_list, grid: radial.RadialGrid,
                         rtol: float = 1e-10) -> BoundReport:
    """Scan |Phi| (1+|nu_R|) (r0/r)^{Re nu_R}; requires Re(nu_R) >= 0.

    One regular_solve on grid.refined(), which keeps every node of grid at
    an even index: c_emp is the maximum over those rows, c_emp_alt over all.
    """
    nu_list = tuple(complex(n) for n in nu_list)
    for nu in nu_list:
        if (nu - q.flux_over_2pi).real < -1e-12:
            raise ValueError("regular bound scan requires Re(nu_R) >= 0")
    fine = grid.refined()
    nu_R = np.asarray(nu_list) - q.flux_over_2pi
    values, _ = radial.regular_solve(q, nu_list, fine, rtol=rtol)
    w = np.exp(-nu_R.real * np.log(fine.r_points / fine.r0)[:, None])
    weighted = np.abs(values) * w * (1.0 + np.abs(nu_R))
    return BoundReport(float(np.max(weighted[::2])), float(np.max(weighted)))


# ---------------------------------------------------------------------------
# invariant groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str

    def to_dict(self) -> dict:
        return {"group": self.name, "pass": bool(self.passed),
                "measured": float(self.measured),
                "tolerance": float(self.tolerance), "detail": self.detail}


def reference_medium() -> Medium:
    """The bump+step desk-scale medium used when no file is given."""
    return Medium(step_profile(0.3, 0.5, 2.0), bump_field(0.3, 0.8, 1.6),
                  0.5, 2.0)


def _check_specfun(tol: float, quick: bool) -> GroupResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    n = 12 if quick else 40
    draws = [(complex(rng.uniform(-20, 20), rng.uniform(-20, 20)),
              float(rng.uniform(0.3, 4.0))) for _ in range(n)]
    # integer and near-integer orders, which specfun reads off a ring
    draws += [(nu, 1.3) for nu in (0, 3, -7, 25, 3 + 1e-3, -7 + 5e-5, 10 - 0.01j)]
    for nu, r in draws:
        a = specfun.bessel_h(nu, r)
        b = specfun.bessel_h(np.conj(nu), r)
        worst = max(worst, abs(np.conj(a.H1) - b.H2) / max(1.0, abs(a.H1)))
        w = a.H1 * a.dH2 - a.dH1 * a.H2 + 4j / (np.pi * r)
        worst = max(worst, abs(w) / max(1.0, abs(a.H1 * a.dH2)))
    for _ in range(n):
        # reflection holds to 1e-10 on the moderate-order box; beyond
        # |Im nu| ~ 10 the series mix ~1e4 of internal cancellation
        nu = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        r = float(rng.uniform(0.3, 4.0))
        a = specfun.bessel_h(nu, r)
        c = specfun.bessel_h(-nu, r)
        rhs = np.exp(-1j * np.pi * nu) * a.H2
        worst = max(worst, abs(c.H2 - rhs) / max(1.0, abs(rhs)))
    for y in (1.0, 2.0, 5.0):
        g = specfun.gamma_complex(1j * y)
        worst = max(worst, abs(abs(g) ** 2 - np.pi / (y * np.sinh(np.pi * y))))
    return GroupResult("specfun_identities", worst <= tol, worst, tol,
                       "conjugation, reflection, Wronskian, |Gamma(iy)|^2")


def _check_wronskian(q, tol: float, quick: bool) -> GroupResult:
    grid = radial.grid_for(q, 256 if quick else 1024)
    nus = [0.5, 3.0, 11.0, 0.3 + 8j] if quick else \
        [0.5, 1.0, 3.0, 7.0, 15.0, 25.0, 40.0, 0.3 + 8j, 0.3 + 25j, 6 + 6j]
    worst = radial.wronskian_residual(*radial.jost_solve(q, nus, grid, rtol=1e-10))
    return GroupResult("wronskian", worst <= tol, worst, tol,
                       f"{len(nus)} orders, grid {grid.r_points.size}")


def _check_kernel_bounds(q, tol: float, quick: bool) -> GroupResult:
    flux = q.flux_over_2pi
    if quick:
        nus = [flux + k for k in (1.0, 5.0, 20.0, 40.0)] + [flux + 20j]
    else:
        nus = list(default_nu_rays(flux))
    rep = verify_kernel_bounds(q.r0, q.R, nus, flux, n_grid=17 if quick else 33)
    return GroupResult("kernel_bounds", rep.drift <= tol, rep.drift, tol,
                       f"C_emp = {rep.c_emp:.4g}")


def _check_regular_bound(q, tol: float, quick: bool) -> GroupResult:
    grid = radial.grid_for(q, 128 if quick else 512)
    flux = q.flux_over_2pi
    nus = [flux + x for x in ((1.0, 8.0, 25.0) if quick
                              else (1.0, 4.0, 10.0, 20.0, 30.0, 40.0))]
    nus += [flux + 10j]
    rep = verify_regular_bound(q, nus, grid, rtol=1e-9)
    return GroupResult("regular_bound", rep.drift <= tol, rep.drift, tol,
                       f"C_emp = {rep.c_emp:.4g}")


def _check_symmetry(q, tol: float, quick: bool) -> GroupResult:
    q_neg = effective_potential(mirror(q.medium))
    grid = radial.grid_for(q, 256 if quick else 1024)
    nus = np.array([1.0, 3.2, 7.0])
    a = radial.jost_solve(q, nus, grid, rtol=1e-11)[::2]
    b = radial.jost_solve(q_neg, -nus, grid, rtol=1e-11)[::2]
    worst = max(float(np.max(np.abs(x - y) / np.maximum(1.0, np.abs(x))))
                for x, y in zip(a, b))
    return GroupResult("symmetry", worst <= tol, worst, tol,
                       "F_gamma(r, nu) vs F_{-gamma}(r, -nu)")


def _check_sigma_limits(q, tol: float, quick: bool) -> GroupResult:
    flux = q.flux_over_2pi
    ls = list(range(31, 41))
    sig = scattering.sigma_many(q, ls, rtol=1e-9)
    lim = np.exp(1j * np.pi * flux)
    devs = [abs(s - lim) for s in sig]
    worst = devs[-1]
    trend_ok = devs[-1] <= max(devs[0] + 1e-12, 1e-9)
    return GroupResult("sigma_limits", worst <= tol and trend_ok,
                       worst, tol, f"deviation at l=40 (trend ok: {trend_ok})")


def _check_idalg(q, tol: float, quick: bool) -> GroupResult:
    other = Medium(step_profile(0.5, q.r0, q.R), q.medium.b, q.r0, q.R)
    qb = effective_potential(other)
    ls = [1, 5] if quick else [1, 5, 10, 20]
    rep = inverse.discriminator_F(q, qb, ls, rtol=1e-11)
    worst = max(rep.agreement().values())
    return GroupResult("idalg", worst <= tol, worst, tol,
                       "product-scaled two-route agreement")


_GROUPS = {
    "specfun_identities": lambda q, tol, quick: _check_specfun(tol, quick),
    "wronskian": _check_wronskian,
    "kernel_bounds": _check_kernel_bounds,
    "regular_bound": _check_regular_bound,
    "symmetry": _check_symmetry,
    "sigma_limits": _check_sigma_limits,
    "idalg": _check_idalg,
}


def run_verification(medium: Medium | None = None, tolerances: dict | None = None,
                     quick: bool = True):
    """Run every invariant group on a medium; returns a list of GroupResult."""
    med = medium if medium is not None else reference_medium()
    q = effective_potential(med)
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance group(s): {sorted(unknown)}")
        tols.update(tolerances)
    return [check(q, tols[name], quick) for name, check in _GROUPS.items()]
