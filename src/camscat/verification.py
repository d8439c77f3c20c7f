"""Invariant suites behind the verify command.

Each group re-checks one family of identities or estimates at runtime on
a given medium (plus the zero medium where the check is medium-free) and
returns a measured worst-case value against its tolerance.  The Jost
groups solve all their orders in one jost_solve call per sign and medium.
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inverse, kernels, radial, scattering, specfun
from .fields import (Medium, bump_field, effective_potential, mirror,
                     step_profile)

DEFAULT_TOLERANCES = {
    "specfun_identities": 1e-10,
    "wronskian": 1e-8,
    "kernel_bounds": 2.0,       # allowed refinement drift factor
    "regular_bound": 2.0,
    "symmetry": 1e-9,
    "sigma_limits": 0.05,
    "idalg": 1e-6,
}


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
    for _ in range(n):
        nu = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        r = float(rng.uniform(0.3, 4.0))
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
    worst = radial.wronskian_residual(
        *radial.jost_solve(q, "plus", nus, grid, rtol=1e-10),
        *radial.jost_solve(q, "minus", nus, grid, rtol=1e-10))
    return GroupResult("wronskian", worst <= tol, worst, tol,
                       f"{len(nus)} orders, grid {grid.r_points.size}")


def _check_kernel_bounds(q, tol: float, quick: bool) -> GroupResult:
    flux = q.flux_over_2pi
    if quick:
        nus = [flux + k for k in (1.0, 5.0, 20.0, 40.0)] + [flux + 20j]
    else:
        nus = list(kernels.default_nu_rays(flux))
    rep = kernels.verify_kernel_bounds(q.r0, q.R, nus, flux,
                                       n_grid=17 if quick else 33)
    return GroupResult("kernel_bounds", rep.drift <= tol, rep.drift, tol,
                       f"C_emp = {rep.c_emp:.4g}")


def _check_regular_bound(q, tol: float, quick: bool) -> GroupResult:
    grid = radial.grid_for(q, 128 if quick else 512)
    flux = q.flux_over_2pi
    nus = [flux + x for x in ((1.0, 8.0, 25.0) if quick
                              else (1.0, 4.0, 10.0, 20.0, 30.0, 40.0))]
    nus += [flux + 10j]
    rep = radial.verify_regular_bound(q, nus, grid, rtol=1e-9)
    return GroupResult("regular_bound", rep.drift <= tol, rep.drift, tol,
                       f"C_emp = {rep.c_emp:.4g}")


def _check_symmetry(q, tol: float, quick: bool) -> GroupResult:
    q_neg = effective_potential(mirror(q.medium))
    grid = radial.grid_for(q, 256 if quick else 1024)
    nus = np.array([1.0, 3.2, 7.0])
    worst = 0.0
    for sign in ("plus", "minus"):
        a, _ = radial.jost_solve(q, sign, nus, grid, rtol=1e-11)
        b, _ = radial.jost_solve(q_neg, sign, -nus, grid, rtol=1e-11)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a)))))
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
