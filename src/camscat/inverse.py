"""Constructive inverse steps: flux recovery and uniqueness discriminators.

Three computational counterparts of the uniqueness theory:

* the magnetic flux is read off the large-l limit of sigma(l), which
  approaches e^{+i pi gamma(R)}: q_nu vanishes beyond R, so by the first
  Born term and |J_m(s)| <= (s/2)^m / Gamma(m+1) (DLMF 10.14.4) the
  distance falls like (eR/2l)^{2l}, and arg sigma(l)/pi at the largest
  order is the mod-2 flux estimate,
* the discriminator F(nu) = 2i (alpha beta~ - alpha~ beta) of two
  same-flux media vanishes iff their Regge functions agree; it equals the
  quadrature int (q_nu - q~_nu) Phi Phi~ dr on cubic Hermite panels fed
  by Phi and Phi' at the nodes of a grid that holds both media's
  breakpoints and both R, and both sides are compared per l,
* the cross-Wronskian F(r, nu) = F+ F~- - F- F~+ of the two media's Jost
  solutions is the local uniqueness witness (identically zero iff the
  exterior data coincide; -2i F(r0, nu) is the discriminator's left side),
  and the affine-in-nu structure of q lets the gauge part and the
  electric part be decoupled from two orders.

Double precision bounds what the Jost-function route can certify: the
products alpha beta~ grow like Gamma(nu_R)^2 (r0/2)^{-2 nu_R} while the
discriminator itself stays (R/r0)^{2 nu_R}-sized, so beyond nu_R ~ 8 the
subtraction noise exceeds the true value.  All residuals are therefore
reported relative to the product scale, which is what a double-precision
run can honestly verify.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import FluxMismatch, IllConditioned, InsufficientTail
from .fields import EffectivePotential
from .radial import (DEFAULT_RTOL, PanelQuadrature, RadialGrid,
                     jost_endpoints, make_grid, regular_solve)
from .scattering import SCHEMA_VERSION, ScatteringData, write_json
from .specfun import R_MAX

_FLUX_TOL = 1e-9
_TAIL_L_MIN, _TAIL_RECORDS = 20, 10   # recover_flux needs 10 records with l >= 20,
FLUX_LMAX_MIN = _TAIL_L_MIN + _TAIL_RECORDS - 1   # so flux_tail(lmax) needs lmax >= 29
_TAIL_SPREAD_TOL = 1e-6   # largest spread of arg sigma(l)/pi over the tail read
_DECOUPLE_TOL = 1e-9   # decouple_potentials: largest deviation that still matches


# ---------------------------------------------------------------------------
# flux recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluxEstimate:
    """Flux/(2 pi) mod 2 extracted from the sigma(l) tail."""

    flux_over_2pi_mod2: float
    residual: float
    l_used: tuple

    def to_dict(self) -> dict:
        return {"flux_over_2pi_mod2": self.flux_over_2pi_mod2,
                "residual": self.residual, "l_used": list(self.l_used)}


def _wrap_mod2(x: float) -> float:
    """Reduce to the representative in [-1, 1)."""
    return (x + 1.0) % 2.0 - 1.0


def flux_tail(lmax: int) -> tuple:
    """The l range (lmax - 9, lmax) of the records recover_flux reads."""
    return (lmax - _TAIL_RECORDS + 1, lmax)


def recover_flux(data: ScatteringData) -> FluxEstimate:
    """Flux estimate arg(sigma(l_top))/pi at the largest order l_top >= 0.

    q_nu vanishes beyond R, so the first Born term of sigma(l) -
    e^{i pi gamma(R)} is an integral of q_l(s) s J_m(s)^2 with
    m = |l - gamma(R)|, and |J_m(s)| <= (s/2)^m / Gamma(m+1) (DLMF
    10.14.4) makes it fall like (eR/2l)^{2l}: past l ~ eR/2 the limit is
    reached to rounding.  The residual is the largest mod-2 distance of
    arg(sigma(l))/pi from the estimate over the last 10 records, which are
    l_used; InsufficientTail is raised with fewer than 10 records at
    l >= 20 or a residual above _TAIL_SPREAD_TOL (sigma not yet at its
    limit).  The estimate is reduced to [-1, 1); the mod-2 ambiguity is
    intrinsic to the data and is reported, not resolved (resolving it is a
    re-indexing convention on which angular momenta are compared).
    """
    ls = sorted(rec.l for rec in data.records if rec.l >= 0)
    if len([l for l in ls if l >= _TAIL_L_MIN]) < _TAIL_RECORDS:
        raise InsufficientTail(
            f"need at least {_TAIL_RECORDS} records with l >= {_TAIL_L_MIN}")
    tail = ls[-_TAIL_RECORDS:]
    theta = [cmath.phase(data.sigma(l)) / math.pi for l in tail]
    residual = max(abs(_wrap_mod2(t - theta[-1])) for t in theta)
    if residual > _TAIL_SPREAD_TOL:
        raise InsufficientTail(
            f"arg sigma(l)/pi spreads by {residual:.3e} over l = {tail[0]}..{tail[-1]}, "
            f"above {_TAIL_SPREAD_TOL:g}: sigma has not reached its limit")
    return FluxEstimate(_wrap_mod2(theta[-1]), residual, tuple(tail))


# ---------------------------------------------------------------------------
# discriminator F(nu)
# ---------------------------------------------------------------------------

def _require_same_flux(qa: EffectivePotential, qb: EffectivePotential) -> None:
    if abs(qa.flux_over_2pi - qb.flux_over_2pi) > _FLUX_TOL:
        raise FluxMismatch(
            f"fluxes differ: {qa.flux_over_2pi:.6g} vs {qb.flux_over_2pi:.6g}")


@dataclass(frozen=True)
class DiscriminatorReport:
    """Both sides of the Jost-function identity per angular momentum.

    lhs[l]   = 2i (alpha alpha~-cross difference) from the Jost functions,
    rhs[l]   = quadrature of (q_nu - q~_nu) Phi Phi~ over [r0, R],
    scale[l] = |alpha beta~| + |alpha~ beta|, the double-precision
               reference scale of the left side.
    """

    l_list: tuple
    lhs: tuple
    rhs: tuple
    scale: tuple
    flux: float

    def agreement(self) -> dict:
        """|lhs - rhs| relative to the product scale (floored at 1)."""
        return {l: abs(a - b) / max(1.0, s)
                for l, a, b, s in zip(self.l_list, self.lhs, self.rhs, self.scale)}

    @property
    def max_abs(self) -> float:
        """max_l |F(l)| relative to the product scale (floored at 1)."""
        return max(abs(a) / max(1.0, s) for a, s in zip(self.lhs, self.scale))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["l", "re_F", "im_F", "rel_disagreement"])
            agree = self.agreement()
            for l, a in zip(self.l_list, self.lhs):
                w.writerow([l, f"{a.real:.17g}", f"{a.imag:.17g}",
                            f"{agree[l]:.17g}"])

    def to_json(self, path) -> None:
        agree = self.agreement()
        doc = {
            "schema_version": SCHEMA_VERSION,
            "flux_over_2pi": self.flux,
            "max_abs_scaled": self.max_abs,
            "records": [
                {"l": l, "re_F": a.real, "im_F": a.imag,
                 "re_rhs": b.real, "im_rhs": b.imag,
                 "product_scale": s, "rel_disagreement": agree[l]}
                for l, a, b, s in zip(self.l_list, self.lhs, self.rhs, self.scale)
            ],
        }
        write_json(path, doc)


def discriminator_F(qa: EffectivePotential, qb: EffectivePotential,
                    l_list, grid: RadialGrid | None = None,
                    rtol: float = DEFAULT_RTOL) -> DiscriminatorReport:
    """F(l) = 2i (alpha(l) beta~(l) - alpha~(l) beta(l)) for two same-flux media.

    The left side is -2i F(grid.r0, l), from the cross-Wronskian's four
    Jost solves; the right side is the independent quadrature of (q - q~)
    Phi Phi~ over the common support, from the values and derivatives
    regular_solve returns.  The default grid has 1024 nodes and holds both
    media's breakpoints and both R, where q - q~ may jump.
    Raises FluxMismatch when the gauges disagree (equal fluxes required).
    """
    _require_same_flux(qa, qb)
    l_list = [int(l) for l in l_list]
    if grid is None:
        grid = make_grid(max(qa.r0, qb.r0), max(qa.R, qb.R), 1024,
                         include=qa.breakpoints() + qb.breakpoints() + (qa.R, qb.R))
    degenerate = grid.degenerate    # both media inside the obstacle: q - q~ = 0
    if not degenerate:
        # solved before the quadrature tables exist, which lowers the peak
        phi_a, dphi_a = regular_solve(qa, l_list, grid, rtol=rtol)
        phi_b, dphi_b = regular_solve(qb, l_list, grid, rtol=rtol)
        pq = PanelQuadrature(grid)
        r_gl = pq.r_gl.ravel()

    lhs, rhs, scale = [], [], []
    for i, (l, fp, fm, gp, gm) in enumerate(zip(
            l_list, *_jost_at(qa, qb, grid.r0, l_list, rtol))):
        # alpha beta~ = (i F-)(-i F~+) = F- F~+ bit for bit; scalar products,
        # since numpy's vectorized complex product can differ in the last bit
        lhs.append(2j * (fm * gp - gm * fp))
        scale.append(abs(fm * gp) + abs(gm * fp))

        if degenerate:
            rhs.append(0j)
            continue
        dq = (qa(l, r_gl) - qb(l, r_gl)).reshape(pq.r_gl.shape)
        prod = (pq.interpolate(phi_a[:, i], dphi_a[:, i])
                * pq.interpolate(phi_b[:, i], dphi_b[:, i]))
        rhs.append(pq.integrate(dq * prod))
    return DiscriminatorReport(tuple(l_list), tuple(lhs), tuple(rhs),
                               tuple(scale), qa.flux_over_2pi)


# ---------------------------------------------------------------------------
# cross-Wronskian of two media
# ---------------------------------------------------------------------------

def borg_marchenko_F(qa: EffectivePotential, qb: EffectivePotential,
                     r: float, nu_list, rtol: float = DEFAULT_RTOL):
    """F(r, nu) = F+(r,nu) F~-(r,nu) - F-(r,nu) F~+(r,nu) for a list of nu.

    Identically zero iff the two media share exterior data; for identical
    media the residual is solver noise relative to |F+ F~-| + |F- F~+|.
    Returns the raw complex values.
    """
    if not (min(qa.r0, qb.r0) <= r <= max(qa.R, qb.R, R_MAX)):
        raise ValueError("r must lie in [r0, R_MAX]")
    return [fp * gm - fm * gp
            for fp, fm, gp, gm in zip(*_jost_at(qa, qb, r, nu_list, rtol))]


def _jost_at(qa: EffectivePotential, qb: EffectivePotential, r: float,
             nus, rtol: float):
    """[F+(r), F-(r), F~+(r), F~-(r)] over the orders: one read per medium."""
    return [f for q in (qa, qb) for f in jost_endpoints(q, nus, rtol=rtol, r=r)[::2]]


# ---------------------------------------------------------------------------
# decoupling of the effective potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoupleReport:
    gamma_match: bool
    V_match: bool
    max_dev_gamma: float
    max_dev_V: float


def decouple_potentials(qa: EffectivePotential, qb: EffectivePotential,
                        grid: RadialGrid, nu_pair=(1.0, 2.0)) -> DecoupleReport:
    """Split q_nu into gauge and electric parts from two orders and compare.

    q is affine in nu, so two distinct orders determine
    gamma(r) - gamma(R) = -r^2 (q_{nu1} - q_{nu2}) / (2 (nu1 - nu2)) and
    the nu-free remainder; the electric potential follows by removing the
    quadratic gauge term using each medium's own flux.  Pointwise maxima
    of the differences are reported over the grid; each part matches when
    its maximum is at most _DECOUPLE_TOL.
    """
    nu1, nu2 = complex(nu_pair[0]), complex(nu_pair[1])
    if abs(nu1 - nu2) < 1e-6:
        raise IllConditioned("decoupling needs two separated orders")
    r = grid.r_points
    parts = {}
    for tag, q in (("a", qa), ("b", qb)):
        s1 = (np.asarray(q(nu1, r)) - np.asarray(q(nu2, r))) / (nu1 - nu2)
        g = -0.5 * r * r * s1                       # gamma(r) - gamma(R)
        q0 = np.asarray(q(nu1, r)) - nu1 * s1
        flux = q.flux_over_2pi
        V = q0 - g * (g + 2.0 * flux) / (r * r)
        parts[tag] = (np.real(g), np.real(V))
    dg = float(np.max(np.abs(parts["a"][0] - parts["b"][0])))
    dV = float(np.max(np.abs(parts["a"][1] - parts["b"][1])))
    return DecoupleReport(dg <= _DECOUPLE_TOL, dV <= _DECOUPLE_TOL, dg, dV)
