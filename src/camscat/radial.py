"""Jost and regular solutions of the radial equation at unit energy.

The stationary equation on (r0, infinity) is

    -u'' + ( (nu_R^2 - 1/4)/r^2 + q_nu(r) ) u = u,      nu_R = nu - gamma(R),

with q_nu compactly supported in [r0, R].  Because the support is compact
the data of the Jost solutions at infinity transfer exactly to r = R:
F+-(r, nu) equals the free closed form at every r >= R, for a whole order
list from one Bessel call.  The medium, not the caller's grid, fixes
where: the data are imposed at max(R, grid.R), so a grid ending inside
the support still reads the true F+-.  On a free medium (q_nu = 0 beyond
r0) the closed form holds everywhere and nothing is integrated; otherwise
the solver back-integrates the ODE from there with the fourth-order Magnus
stepper of integrate.py in t = ln r, whose step does not shrink with |nu|,
under a global Richardson error bound.  The Picard iteration of the
integral equation (upper limit exactly R) on cubic Hermite panels is an
oracle for Re(nu_R) >= 0.

The regular solution solves the same ODE forward from the obstacle with
Dirichlet data Phi(r0) = 0, Phi'(r0) = -2.

Both routes take a list of orders and share one contract: jost_solve and
regular_solve return (values, derivs) of shape (n_grid, n_nu);
jost_endpoints returns the row at one radius (r0 by default) and
regular_endpoints the row at R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence
from .fields import EffectivePotential
from .integrate import solve_oscillator
from .kernels import BoundReport
from .quadrature import gl_rule, hermite, integrate_piecewise
from .specfun import _check_order, _hankel_arrays

BATCH_BLOCK = 16   # orders per integration, in the caller's order; peers share steps
DEFAULT_RTOL = 1e-12
PANEL_GL = 4        # Gauss-Legendre nodes per PanelQuadrature panel
PICARD_TOL = 1e-10  # scale-relative stopping tolerance of the Picard oracle


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii from r0 to R; a single point if R <= r0."""

    r_points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.r_points, dtype=float)
        if pts.ndim != 1 or pts.size == 0 or np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid radii must be strictly increasing")
        object.__setattr__(self, "r_points", pts)

    @property
    def r0(self) -> float:
        return float(self.r_points[0])

    @property
    def R(self) -> float:
        return float(self.r_points[-1])

    @property
    def degenerate(self) -> bool:
        return self.r_points.size == 1

    def refined(self) -> "RadialGrid":
        """Grid with midpoints inserted (used by stability-under-refinement checks)."""
        p = self.r_points
        if p.size == 1:
            return self
        mid = 0.5 * (p[:-1] + p[1:])
        return RadialGrid(np.sort(np.concatenate([p, mid])))


def make_grid(r0: float, R: float, n: int = 1024, include=()) -> RadialGrid:
    """Geometric-uniform hybrid grid on [r0, R] with breakpoints snapped to nodes.

    Each distinct breakpoint in (r0, R), in ascending order, takes the
    nearest interior node that no smaller breakpoint holds, while one is free.

    For R <= r0 (medium entirely inside the obstacle) the grid degenerates
    to the single point r0 and solvers return free solutions; otherwise it
    needs n >= 2 nodes.
    """
    if R <= r0:
        return RadialGrid(np.array([r0]))
    if n < 2:
        raise ValueError(f"a grid on r0 < R needs at least 2 nodes, got {n}")
    t = np.linspace(0.0, 1.0, n)
    pts = 0.5 * (r0 + t * (R - r0)) + 0.5 * r0 * (R / r0) ** t
    pts[0], pts[-1] = r0, R
    held = np.zeros(pts.size, dtype=bool)
    held[[0, -1]] = True
    for b in sorted(set(include)):
        if r0 < b < R and not held.all():
            i = int(np.argmin(np.where(held, np.inf, np.abs(pts - b))))
            pts[i], held[i] = b, True
    return RadialGrid(np.sort(pts))


def grid_for(q: EffectivePotential, n: int = 1024) -> RadialGrid:
    """Default solver grid for a medium: breakpoints of q become nodes."""
    return make_grid(q.r0, q.R, n, include=q.breakpoints())


# ---------------------------------------------------------------------------
# free solutions
# ---------------------------------------------------------------------------

def _free_pair(sign: str, nu_R, r: np.ndarray):
    """Free Jost solution and derivative for one order or a 1-D array of
    orders at an array of radii, shape np.shape(nu_R) + r.shape."""
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    _, _, h1, h2, _, dh1, dh2 = _hankel_arrays(nu_R, r)
    i, h, dh = (1j, h1, dh1) if sign == "plus" else (-1j, h2, dh2)
    phase = np.exp(i * (np.asarray(nu_R)[..., None] + 0.5) * math.pi / 2.0)
    root = np.sqrt(0.5 * math.pi * r)
    return phase * root * h, phase * (root * dh + 0.5 * root / r * h)


def free_jost(sign: str, nu: complex, r, flux: float = 0.0):
    """Closed-form free Jost solution F0+- and its radial derivative.

    F0+(r, nu) = e^{i (nu_R + 1/2) pi/2} sqrt(pi r / 2) H1_{nu_R}(r) and the
    conjugate-phase H2 form for the minus sign; both tend to e^{+-ir} at
    large r.
    """
    nu_R = _check_order(complex(nu) - flux)
    f, df = _free_pair(sign, nu_R, np.atleast_1d(np.asarray(r, dtype=float)))
    if np.ndim(r) == 0:
        return complex(f[0]), complex(df[0])
    return f, df


def wronskian(f, df, g, dg):
    """W(f, g) = f g' - f' g."""
    return f * dg - df * g


def wronskian_residual(f_plus, df_plus, f_minus, df_minus) -> float:
    """Worst deviation of W(F+, F-) from -2i over arrays of any matching
    shape, such as the (n_grid, n_nu) output of jost_solve.

    The deviation is measured relative to the size of the products forming
    the Wronskian (floored at 1), since for |nu_R| beyond ~5 the solutions
    reach 1e10..1e70 and the constant -2i sits far below the cancellation
    noise of any double-precision subtraction.
    """
    w = wronskian(f_plus, df_plus, f_minus, df_minus)
    scale = np.maximum(1.0, np.maximum(
        np.abs(f_plus * df_minus), np.abs(df_plus * f_minus)))
    return float(np.max(np.abs(w + 2j) / scale))


# ---------------------------------------------------------------------------
# ODE solvers
# ---------------------------------------------------------------------------

def _coefficient_fn(q: EffectivePotential, nus: np.ndarray):
    """c(r) for the batch at an array of radii, shape (radii, batch):
    (nu_R^2 - 1/4)/r^2 + q0(r) + nu q1(r) - 1.  q0 and q1 do not depend on
    the order, so one evaluation serves the whole batch."""
    cent = (nus - q.flux_over_2pi) ** 2 - 0.25

    def c_fn(r: np.ndarray):
        q0, q1 = q.parts(r)
        rr = (r * r)[:, None]
        return cent / rr + q0[:, None] + nus * q1[:, None] - 1.0

    return c_fn


def _propagate(q: EffectivePotential, nus: np.ndarray, r_start: float,
               r_end: float, u0: np.ndarray, du0: np.ndarray, r_out,
               rtol: float):
    """Carry (u, u') of every order from r_start to r_end; values at r_out.

    The one integration path of the package.  Orders go in fixed blocks of
    BATCH_BLOCK, in the caller's order, each block sharing its steps; the
    medium's breakpoints and R end the stepper's panels, so a span past R
    never steps across the jump of q there.  Returns (U, DU) of shape
    (len(r_out), len(nus)).
    """
    r_out = np.asarray(r_out, dtype=float)
    U = np.empty((r_out.size, len(nus)), dtype=complex)
    DU = np.empty_like(U)
    for lo in range(0, len(nus), BATCH_BLOCK):
        blk = slice(lo, lo + BATCH_BLOCK)
        U[:, blk], DU[:, blk] = solve_oscillator(
            _coefficient_fn(q, nus[blk]), r_start, r_end, u0[blk], du0[blk],
            r_out=r_out, rtol=rtol, breaks=q.breakpoints() + (q.R,))
    return U, DU


def _orders(q: EffectivePotential, nus) -> np.ndarray:
    """The orders as a complex array; DomainError if any |nu - flux| > NU_MAX."""
    nus = np.asarray(list(nus), dtype=complex)
    for nu in nus:
        _check_order(nu - q.flux_over_2pi)
    return nus


def _jost_from_R(q, sign, nus, r_out, rtol):
    """F+- at descending radii r_out, shape (len(r_out), len(nus)), from one
    Bessel call: the free closed form, back-integrated from max(R, r_out[0])."""
    nus = _orders(q, nus)
    r_out = np.asarray(r_out, dtype=float)
    if q.is_free():
        f, df = _free_pair(sign, nus - q.flux_over_2pi, r_out)
        return f.T, df.T
    start = max(q.R, r_out[0])
    f, df = _free_pair(sign, nus - q.flux_over_2pi, np.array([start]))
    return _propagate(q, nus, start, r_out[-1], f[:, 0], df[:, 0], r_out, rtol)


def jost_solve(q: EffectivePotential, sign: str, nus, grid: RadialGrid,
               rtol: float = DEFAULT_RTOL):
    """Grid values and derivatives of F+- for a list of orders.

    F+- is back-integrated from max(R, grid.R), where it equals the free
    closed form exactly, so no far-field truncation error exists; global
    relative error estimate rtol at every grid radius.  Returns (values,
    derivs) of shape (n_grid, n_nu); orders are batched in fixed blocks of
    BATCH_BLOCK sharing their steps, so a column may move within rtol with
    the peers of its block.
    """
    U, DU = _jost_from_R(q, sign, nus, grid.r_points[::-1], rtol)
    return U[::-1], DU[::-1]


def jost_endpoints(q: EffectivePotential, sign: str, nus,
                   rtol: float = DEFAULT_RTOL, r: float | None = None):
    """F+-(r) and F+-'(r) for a list of orders, batched in fixed blocks.

    r defaults to r0; the free data are imposed at max(R, r).  Within
    rtol of the row at r of jost_solve; at r0 bit-identical to its first
    row on grid_for(q, 2).
    """
    U, DU = _jost_from_R(q, sign, nus, [q.r0 if r is None else r], rtol)
    return U[0], DU[0]


def regular_solve(q: EffectivePotential, nus, grid: RadialGrid,
                  rtol: float = DEFAULT_RTOL):
    """Grid values and derivatives of Phi for a list of orders.

    Phi is integrated forward from (Phi, Phi') = (0, -2) at grid.r0.
    Returns (values, derivs) of shape (n_grid, n_nu); orders are batched
    in fixed blocks of BATCH_BLOCK sharing their steps, so a column may
    move within rtol with the peers of its block.
    """
    nus = _orders(q, nus)
    zeros = np.zeros(len(nus), dtype=complex)
    return _propagate(q, nus, grid.r0, grid.R, zeros, zeros - 2.0,
                      grid.r_points, rtol)


def regular_endpoints(q: EffectivePotential, nus, rtol: float = DEFAULT_RTOL):
    """Phi(R) and Phi'(R) for a list of orders: the last row of regular_solve
    on grid_for(q, 2), which is the single point r0 when R <= r0."""
    U, DU = regular_solve(q, nus, grid_for(q, n=2), rtol)
    return U[-1], DU[-1]


# ---------------------------------------------------------------------------
# Volterra-Picard oracle
# ---------------------------------------------------------------------------

class PanelQuadrature:
    """Gauss-Legendre panels between grid nodes with cubic Hermite node data.

    Each panel is interpolated from the values and derivatives at its own
    two end nodes.  Support breakpoints are grid nodes and both solution
    routes are C1 across a jump of q, so no interpolant reaches across a
    breakpoint and the composite rule keeps its h^4 order.
    """

    def __init__(self, grid: RadialGrid):
        pts = grid.r_points
        self.h = np.diff(pts)
        x, w = gl_rule(PANEL_GL)
        self.x = 0.5 * (x + 1.0)          # Gauss nodes on the unit panel
        mid = 0.5 * (pts[:-1] + pts[1:])
        half = 0.5 * self.h[:, None]
        self.r_gl = mid[:, None] + half * x
        self.w_gl = half * w

    def interpolate(self, f_nodes: np.ndarray, df_nodes: np.ndarray) -> np.ndarray:
        """Grid-node values and derivatives -> values at every panel Gauss node."""
        h = self.h[:, None]
        return hermite(self.x, f_nodes[:-1, None], f_nodes[1:, None],
                       h * df_nodes[:-1, None], h * df_nodes[1:, None])

    def integrate(self, f_gl: np.ndarray) -> complex:
        return complex(np.sum(self.w_gl * f_gl))

    def cumulative_right(self, f_gl: np.ndarray) -> np.ndarray:
        """I_i = integral from node i to the last node."""
        per = np.sum(self.w_gl * f_gl, axis=1)
        out = np.zeros(self.h.size + 1, dtype=per.dtype)
        out[:-1] = np.cumsum(per[::-1])[::-1]
        return out


def jost_solve_volterra(q: EffectivePotential, sign: str, nu: complex,
                        grid: RadialGrid, max_iter: int = 60):
    """Picard iteration of F = F0 + int_r^R N(r,s) q_nu(s) F(s) ds.

    Independent oracle for jost_solve in the half plane Re(nu_R) >= 0
    where the kernel bounds guarantee convergence.  The kernel factorizes,
    N(r,s) = u(r)v(s) - u(s)v(r), so each sweep costs two cumulative
    integrals A, B and forms F = F0 + uA - vB with F' = F0' + u'A - v'B.
    Stops when successive iterates differ by less than PICARD_TOL in the
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
    if grid.degenerate:
        return (*_free_pair(sign, nu_R, grid.r_points), 0)

    pts, n = grid.r_points, grid.r_points.size
    pq = PanelQuadrature(grid)
    r_all = np.concatenate([pts, pq.r_gl.ravel()])   # nodes, then panel points
    root = np.sqrt(0.5 * math.pi * r_all)
    j, _, h1, _, dj, dh1, _ = _hankel_arrays(nu_R, r_all)
    u, v = root * j, -1j * root * h1
    du_n = (root * dj + 0.5 * root / r_all * j)[:n]
    dv_n = -1j * (root * dh1 + 0.5 * root / r_all * h1)[:n]
    u_n, v_n = u[:n], v[:n]
    u_g, v_g, q_g = (a.reshape(pq.r_gl.shape) for a in (u[n:], v[n:], q(nu, r_all[n:])))

    f0, df0 = _free_pair(sign, nu_R, pts)
    F, dF = f0, df0
    for it in range(1, max_iter + 1):
        F_gl = pq.interpolate(F, dF)
        A = pq.cumulative_right(v_g * q_g * F_gl)
        B = pq.cumulative_right(u_g * q_g * F_gl)
        F_new = f0 + u_n * A - v_n * B
        dF = df0 + du_n * A - dv_n * B
        delta = float(np.max(np.abs(F_new - F)))
        scale = float(np.max(np.abs(F_new)))
        F = F_new
        if delta <= PICARD_TOL * max(1.0, scale):
            return F, dF, it
    raise NoConvergence(f"Picard did not converge in {max_iter} sweeps")


# ---------------------------------------------------------------------------
# bounds and asymptotic factors
# ---------------------------------------------------------------------------

def verify_regular_bound(q: EffectivePotential, nu_list, grid: RadialGrid,
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
    values, _ = regular_solve(q, nu_list, fine, rtol=rtol)
    w = np.exp(-nu_R.real * np.log(fine.r_points / fine.r0)[:, None])
    weighted = np.abs(values) * w * (1.0 + np.abs(nu_R))
    return BoundReport(float(np.max(weighted[::2])), float(np.max(weighted)))


def c_r_factor(q: EffectivePotential, r: float) -> float:
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
