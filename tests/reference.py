"""Double-precision reference routes that the tests compare the package against.

Each is an independent way to a quantity the package computes by another
route, or a closed form the package only evaluates inside its solvers:

    free_jost, jost_functions_free    F0+- and (alpha0, beta0) in closed form
    jost_solve_volterra               Picard iteration of the integral equation
    c_r_factor                        large-order limit of F+/F0+
    kernel_N, kernel_M, kernel_K      pointwise free Green kernels
    borg_marchenko_reconstructed      F(r, nu) from Phi and the sigma difference

They share the package's special-function core but none of its stepping.
oracles.py holds the mpmath routes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from camscat import radial as rd
from camscat.errors import CamscatError, ConvergenceError, DomainError
from camscat.quadrature import adaptive_gl
from camscat.scattering import _jost_alpha_beta, _sigma
from camscat.specfun import _check_order, _check_radius, _hankel_arrays
from camscat.verification import _n_outer

PICARD_TOL = 1e-10  # scale-relative stopping tolerance of the Picard oracle
SIGN = {"plus": 0, "minus": 2}   # where F+- and F+-' start in a Jost read
_DENOM_FLOOR = 1e-300


class NoConvergence(ConvergenceError):
    """Picard iteration did not converge within the iteration budget."""


class DivisionByNearZero(CamscatError):
    """A kernel denominator fell below the representable threshold."""


# ---------------------------------------------------------------------------
# free closed forms
# ---------------------------------------------------------------------------

def free_jost(sign: str, nu: complex, r, flux: float = 0.0):
    """Closed-form free Jost solution F0+- and its radial derivative.

    F0+(r, nu) = e^{i (nu_R + 1/2) pi/2} sqrt(pi r / 2) H1_{nu_R}(r) and the
    conjugate-phase H2 form for the minus sign; both tend to e^{+-ir} at
    large r.
    """
    nu_R = _check_order(complex(nu) - flux)
    k = SIGN[sign]
    f, df = rd._free_pair(nu_R, np.atleast_1d(np.asarray(r, dtype=float)))[k:k + 2]
    if np.ndim(r) == 0:
        return complex(f[0]), complex(df[0])
    return f, df


def jost_functions_free(nu: complex, flux: float, r0: float):
    """Free Jost functions (alpha0, beta0) = (i F0-(r0), -i F0+(r0))."""
    fp, _ = free_jost("plus", nu, r0, flux)
    fm, _ = free_jost("minus", nu, r0, flux)
    return 1j * fm, -1j * fp


# ---------------------------------------------------------------------------
# Volterra-Picard oracle
# ---------------------------------------------------------------------------

def _cumulative_right(pq: rd.PanelQuadrature, f_gl: np.ndarray) -> np.ndarray:
    """I_i = integral from node i to the last node."""
    per = np.sum(pq.w_gl * f_gl, axis=1)
    out = np.zeros(pq.h.size + 1, dtype=per.dtype)
    out[:-1] = np.cumsum(per[::-1])[::-1]
    return out


def jost_solve_volterra(q, sign: str, nu: complex, grid: rd.RadialGrid,
                        max_iter: int = 60):
    """Picard iteration of F = F0 + int_r^R N(r,s) q_nu(s) F(s) ds.

    Independent oracle for jost_solve in the half plane Re(nu_R) >= 0
    where the kernel bounds guarantee convergence.  The kernel factorizes,
    N(r,s) = u(r)v(s) - u(s)v(r), so each sweep costs two cumulative
    integrals A, B on the cubic Hermite panels of PanelQuadrature and
    forms F = F0 + uA - vB with F' = F0' + u'A - v'B.  Stops when
    successive iterates differ by less than PICARD_TOL in the
    scale-relative sup norm; returns that sweep's (values, derivs,
    iterations), or the free data after 0 iterations on a one-node grid;
    ValueError if the grid ends inside the support.
    """
    nu = complex(nu)
    nu_R = _check_order(nu - q.flux_over_2pi)
    if nu_R.real < -1e-12:
        raise DomainError("Picard oracle requires Re(nu_R) >= 0")
    if grid.R < q.R and not q.is_free():
        raise ValueError("the Picard oracle needs a grid that reaches R")
    k = SIGN[sign]
    if grid.degenerate:
        return (*rd._free_pair(nu_R, grid.r_points)[k:k + 2], 0)

    pts, n = grid.r_points, grid.r_points.size
    pq = rd.PanelQuadrature(grid)
    r_all = np.concatenate([pts, pq.r_gl.ravel()])   # nodes, then panel points
    root = np.sqrt(0.5 * math.pi * r_all)
    j, _, h1, _, dj, dh1, _ = _hankel_arrays(nu_R, r_all)
    u, v = root * j, -1j * root * h1
    du_n = (root * dj + 0.5 * root / r_all * j)[:n]
    dv_n = -1j * (root * dh1 + 0.5 * root / r_all * h1)[:n]
    u_n, v_n = u[:n], v[:n]
    u_g, v_g, q_g = (a.reshape(pq.r_gl.shape) for a in (u[n:], v[n:], q(nu, r_all[n:])))

    f0, df0 = rd._free_pair(nu_R, pts)[k:k + 2]
    F, dF = f0, df0
    for it in range(1, max_iter + 1):
        F_gl = pq.interpolate(F, dF)
        A = _cumulative_right(pq, v_g * q_g * F_gl)
        B = _cumulative_right(pq, u_g * q_g * F_gl)
        F_new = f0 + u_n * A - v_n * B
        dF = df0 + du_n * A - dv_n * B
        delta = float(np.max(np.abs(F_new - F)))
        scale = float(np.max(np.abs(F_new)))
        F = F_new
        if delta <= PICARD_TOL * max(1.0, scale):
            return F, dF, it
    raise NoConvergence(f"Picard did not converge in {max_iter} sweeps")


# ---------------------------------------------------------------------------
# large-order Jost-to-free ratio
# ---------------------------------------------------------------------------

def split_panels(a: float, b: float, breakpoints=()):
    """Sorted panel edges over [a, b] honoring interior breakpoints.

    Panels never straddle a breakpoint, so piecewise-smooth integrands are
    smooth on every panel.
    """
    edges = {float(a), float(b)} | {float(p) for p in breakpoints if a < p < b}
    return np.asarray(sorted(edges))


def integrate_piecewise(f, a: float, b: float, breakpoints=(),
                        tol: float = 1e-13) -> float:
    """Adaptive integral of a piecewise-smooth f with known breakpoints."""
    edges = split_panels(a, b, breakpoints)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += adaptive_gl(f, float(lo), float(hi), tol=tol)
    return total


def c_r_factor(q, r: float) -> float:
    """C_r = exp( int_r^R (gamma(R) - gamma(s))/s ds ); equals 1 for r >= R.

    The large-order limit of F+(r, nu)/F0+(r, nu) on the real axis.  The
    sign matches the first Picard sweep of the integral equation: the
    kernel-weighted tail integral enters with + and the order-coupled part
    of q contributes -2 nu (gamma - gamma(R))/s^2, so positive flux acts
    repulsively and the ratio exceeds 1 (WKB gives the same exponent).
    """
    if r >= q.R:
        return 1.0
    f = lambda s: -q.gauge.gamma_minus_flux(s) / s
    val = integrate_piecewise(f, r, q.R, q.medium.breakpoints(), tol=1e-13)
    return math.exp(val)


# ---------------------------------------------------------------------------
# pointwise free Green kernels
# ---------------------------------------------------------------------------

def kernel_N(r: float, s: float, nu: complex, flux: float = 0.0) -> complex:
    """N(r, s, nu) = u(r) v(s) - u(s) v(r); exactly zero on the diagonal r = s.

    One entry of the cancellation-aware N matrix of the kernel bound scan.
    """
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


# ---------------------------------------------------------------------------
# cross-Wronskian from regular solutions
# ---------------------------------------------------------------------------

def borg_marchenko_reconstructed(qa, qb, r: float, nu: float,
                                 rtol: float = rd.DEFAULT_RTOL) -> complex:
    """F(r, nu) assembled from regular solutions and the sigma difference.

    For real nu,
        F(r, nu) = Psi~ F+ - Psi F~+ + e^{-i pi (nu + 1/2)}
                   (sigma - sigma~) F+ F~+,
    with Psi = Phi / beta: a second route to inverse.borg_marchenko_F.
    """
    nu = float(nu)
    out = {}
    for tag, q in (("a", qa), ("b", qb)):
        fp_r = rd.jost_endpoints(q, [nu], rtol=rtol, r=r)[0]
        (alpha,), (beta,) = _jost_alpha_beta(q, [nu], rtol)
        phi, _ = rd.regular_solve(q, [nu], rd.make_grid(q.r0, r, 2), rtol=rtol)
        out[tag] = {
            "fplus": fp_r[0],
            "psi": phi[-1, 0] / beta,
            "sigma": _sigma(nu, alpha, beta),
        }
    a, b = out["a"], out["b"]
    return (b["psi"] * a["fplus"] - a["psi"] * b["fplus"]
            + cmath.exp(-1j * math.pi * (nu + 0.5))
            * (a["sigma"] - b["sigma"]) * a["fplus"] * b["fplus"])
