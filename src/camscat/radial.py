"""Jost and regular solutions of the radial equation at unit energy.

The stationary equation on (r0, infinity) is

    -u'' + ( (nu_R^2 - 1/4)/r^2 + q_nu(r) ) u = u,      nu_R = nu - gamma(R),

with q_nu compactly supported in [r0, R].  Because the support is compact
the data of the Jost solutions at infinity transfer exactly to r = R:
F+(r, nu) and F-(r, nu) equal their free closed forms at every r >= R,
both for a whole order list from one Bessel call.  The medium, not the
caller's grid, fixes where: rows beyond R are those closed forms, and the
rest are back-integrated from R, so a grid ending inside the support
still reads the true F+- and a grid reaching past R steps only [r0, R].  On a free
medium (q_nu = 0 beyond r0) the closed form holds everywhere and nothing
is integrated; otherwise the solver integrates the ODE with the
fourth-order Magnus stepper of integrate.py in t = ln r, whose step does
not shrink with |nu|, under a global Richardson error bound.

The regular solution solves the same ODE forward from the obstacle with
Dirichlet data Phi(r0) = 0, Phi'(r0) = -2.

Both routes take a list of orders and share one contract of value and
derivative arrays of shape (n_grid, n_nu): regular_solve returns
(Phi, Phi') and jost_solve returns (F+, F+', F-, F-'), since every use of
the Jost solutions needs both at the same orders.  jost_endpoints reads
that 4-tuple at one radius (r0 by default) and regular_endpoints reads
(Phi, Phi') at R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import EffectivePotential
from .integrate import solve_oscillator
from .quadrature import gl_rule, hermite
from .specfun import _check_order, _hankel_arrays

BATCH_BLOCK = 16   # orders per integration, in the caller's order; peers share steps
DEFAULT_RTOL = 1e-12
PANEL_GL = 4        # Gauss-Legendre nodes per PanelQuadrature panel


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

def _free_pair(nu_R, r: np.ndarray):
    """Free Jost solutions (F+, F+', F-, F-') for one order or a 1-D array
    of orders at an array of radii, each of shape np.shape(nu_R) + r.shape,
    from one Bessel call."""
    _, _, h1, h2, _, dh1, dh2 = _hankel_arrays(nu_R, r)
    nu1 = np.asarray(nu_R)[..., None] + 0.5
    root = np.sqrt(0.5 * math.pi * r)
    out = ()
    for i, h, dh in ((1j, h1, dh1), (-1j, h2, dh2)):
        phase = np.exp(i * nu1 * math.pi / 2.0)
        out += (phase * root * h, phase * (root * dh + 0.5 * root / r * h))
    return out


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


def _jost_from_R(q, nus, r_out, rtol):
    """(F+, F+', F-, F-') at descending radii r_out, each of shape
    (len(r_out), len(nus)), from one Bessel call: the free closed forms at
    the radii beyond R and at R, and below R each sign back-integrated
    from there by its own _propagate call."""
    nus = _orders(q, nus)
    r_out = np.asarray(r_out, dtype=float)
    nu_R = nus - q.flux_over_2pi
    n = np.count_nonzero(r_out > q.R)      # r_out descends: rows beyond R lead
    if q.is_free() or n == r_out.size:
        return tuple(f.T for f in _free_pair(nu_R, r_out))
    free = _free_pair(nu_R, np.append(r_out[:n], q.R))
    out = ()
    for f, df in (free[:2], free[2:]):
        U, DU = _propagate(q, nus, q.R, r_out[-1], f[:, n], df[:, n], r_out[n:], rtol)
        out += (np.concatenate([f[:, :n].T, U]), np.concatenate([df[:, :n].T, DU]))
    return out


def jost_solve(q: EffectivePotential, nus, grid: RadialGrid,
               rtol: float = DEFAULT_RTOL):
    """Grid values and derivatives of both Jost solutions for a list of orders.

    F+- equals the free closed form exactly from R on: rows beyond R are
    that closed form, and the rest are back-integrated from R, so no
    far-field truncation error exists; global relative error estimate rtol
    at every grid radius inside R.  Returns (F+, F+', F-, F-'), each of
    shape (n_grid, n_nu); orders are batched in fixed blocks of
    BATCH_BLOCK sharing their steps, so a column may move within rtol
    with the peers of its block.
    """
    return tuple(f[::-1] for f in _jost_from_R(q, nus, grid.r_points[::-1], rtol))


def jost_endpoints(q: EffectivePotential, nus, rtol: float = DEFAULT_RTOL,
                   r: float | None = None):
    """(F+, F+', F-, F-') at one radius for a list of orders, each of shape
    (n_nu,), batched in fixed blocks.

    r defaults to r0; beyond R the row is the free closed form.  Within
    rtol of the row at r of jost_solve; at r0 bit-identical to its first
    row on grid_for(q, 2).
    """
    return tuple(f[0] for f in _jost_from_R(q, nus, [q.r0 if r is None else r], rtol))


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
# panel quadrature on grid nodes
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
