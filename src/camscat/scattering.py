"""Jost functions, the Regge interpolation function, and phase shifts.

For each order nu the regular solution expands over the Jost pair,
Phi = alpha F+ + beta F-, with

    alpha(nu) = i F-(r0, nu),        beta(nu) = -i F+(r0, nu),

and the Regge interpolation function

    sigma(nu) = e^{i pi (nu + 1/2)} alpha(nu) / beta(nu)

is unimodular for real nu and interpolates the physical scattering
coefficients sigma(l) = e^{2 i delta_l} at integer angular momenta.
Phase shifts are returned as a continuous-in-l branch anchored at the
largest computed l, where sigma approaches its flux-determined limit
e^{+i pi gamma(R)} (the limits at l -> +-infinity are e^{+-i pi gamma(R)},
matching the closed free form and the classical Aharonov-Bohm shifts).
Each step delta_{l+1} - delta_l is the nearest representative mod pi.  A
step within _TIE_WINDOW of +-pi/2 is a tie that rounding would decide
(sigma(l)/sigma(l+1) = -1 exactly where nu_R goes from -1/2 to +1/2, as
on half-flux Aharonov-Bohm media); the tie is settled by continuing sigma along real
orders between l and l+1.

Negative angular momenta are solved on the medium itself.  Reflecting the
field (b -> -b) negates q1 and the flux and leaves q0 unchanged, so
sigma_{-gamma}(-nu) = e^{-2 i pi nu} sigma_{gamma}(nu): at integer l the
negative half of a table is the reflected medium's positive half.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BetaZero, CamscatError
from .fields import EffectivePotential
from .radial import (DEFAULT_RTOL, _free_pair, jost_endpoints,
                     regular_endpoints, wronskian)
from .specfun import _check_order, _hankel_arrays

SCHEMA_VERSION = 1
BRANCH_ANCHOR = ("principal value at the largest computed l, continued "
                 "downward by nearest-branch steps; interpolated values "
                 "between integers are convention-dependent")

_BETA_FLOOR = 1e-300
# Branch ties: a nearest step within _TIE_WINDOW of +-pi/2 is settled by
# continuing sigma over _TIE_SAMPLES sub-intervals of real order, each
# bisected (at most _TIE_BISECTIONS times) until its step is below pi/4.
# The window sits far above solver noise (two routes agree on sigma to
# ~1e-10) and far below the margins of ordinary media (at least 0.039
# over the benchmark's seeded media 0-29).
_TIE_WINDOW = 1e-6
_TIE_SAMPLES = 8
_TIE_BISECTIONS = 6


def write_json(path, doc) -> None:
    """The one JSON writer of the output files: indent 1, trailing newline."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


# ---------------------------------------------------------------------------
# free closed forms
# ---------------------------------------------------------------------------

def sigma_free(nu: complex, flux: float, r0: float) -> complex:
    """Closed-form free Regge function -e^{i pi gamma} H2_{nu_R}(r0)/H1_{nu_R}(r0)."""
    nu = complex(nu)
    nu_R = _check_order(nu - flux)
    _, _, h1, h2, _, _, _ = _hankel_arrays(nu_R, np.array([float(r0)]))
    if abs(h1[0]) < _BETA_FLOOR:
        raise BetaZero(f"free beta vanishes at nu = {nu:g}")
    return complex(-cmath.exp(1j * math.pi * (nu - nu_R)) * h2[0] / h1[0])


# ---------------------------------------------------------------------------
# Jost functions from the solver
# ---------------------------------------------------------------------------

def _jost_alpha_beta(q: EffectivePotential, nus, rtol: float):
    """(alpha, beta) = (i F-(r0), -i F+(r0)) over a list of orders, from
    one jost_endpoints read."""
    fp, _, fm, _ = jost_endpoints(q, nus, rtol=rtol)
    return 1j * fm, -1j * fp


def _sigma(nu: complex, alpha: complex, beta: complex) -> complex:
    """sigma(nu) = e^{i pi (nu + 1/2)} alpha/beta; BetaZero where beta vanishes."""
    if abs(beta) < _BETA_FLOOR:
        raise BetaZero(f"beta(nu) = 0 at nu = {nu:g}")
    return cmath.exp(1j * math.pi * (nu + 0.5)) * alpha / beta


@dataclass(frozen=True)
class JostFunctions:
    """alpha, beta from the Jost solutions at r0, with the Wronskian cross-check."""

    nu: complex
    alpha: complex
    beta: complex
    alpha_wronskian: complex
    beta_wronskian: complex

    @property
    def agreement(self) -> float:
        """Scaled distance between the endpoint-value and Wronskian routes."""
        ea = abs(self.alpha - self.alpha_wronskian) / max(1.0, abs(self.alpha))
        eb = abs(self.beta - self.beta_wronskian) / max(1.0, abs(self.beta))
        return max(ea, eb)


def jost_functions_many(q: EffectivePotential, nus, rtol: float = DEFAULT_RTOL):
    """alpha(nu), beta(nu) over a list of orders, computed two independent ways.

    (a) values of the Jost solutions at the obstacle,
    (b) Wronskians of the regular solution with F-+ at r = R.
    Both are returned per order; .agreement measures their scaled distance.
    """
    nus = [complex(n) for n in nus]
    alpha, beta = _jost_alpha_beta(q, nus, rtol)
    phi_R, dphi_R = regular_endpoints(q, nus, rtol=rtol)
    nu_R = np.asarray(nus) - q.flux_over_2pi
    r_end = np.array([max(q.r0, q.R)])     # where regular_endpoints reads Phi
    f0p, df0p, f0m, df0m = (v[:, 0] for v in _free_pair(nu_R, r_end))
    alpha_w = 0.5j * wronskian(phi_R, dphi_R, f0m, df0m)
    beta_w = -0.5j * wronskian(phi_R, dphi_R, f0p, df0p)
    return [JostFunctions(*row) for row in zip(nus, alpha, beta, alpha_w, beta_w)]


def sigma_many(q: EffectivePotential, nus, rtol: float = DEFAULT_RTOL,
               collect_errors: bool = False):
    """sigma(nu) over a list of orders.

    The Jost solves batch the orders in radial's fixed blocks, in the
    given sequence, so identical calls give bit-identical results.  With
    collect_errors, BetaZero points come back as None plus an exclusion
    list instead of raising.
    """
    nus = [complex(n) for n in nus]
    alpha, beta = _jost_alpha_beta(q, nus, rtol)
    out, excluded = [], []
    for nu, a, b in zip(nus, alpha, beta):
        try:
            out.append(_sigma(nu, a, b))
        except BetaZero:
            if not collect_errors:
                raise
            out.append(None)
            excluded.append(nu)
    if not collect_errors:
        return out
    return out, excluded


def regge_sigma(q: EffectivePotential, nu: complex,
                rtol: float = DEFAULT_RTOL) -> complex:
    """sigma(nu) = e^{i pi (nu + 1/2)} alpha/beta; unimodular for real nu."""
    nu = complex(nu)
    sigma = sigma_many(q, [nu], rtol=rtol)[0]
    if nu.imag == 0.0 and abs(abs(sigma) - 1.0) > 1e-8:
        raise CamscatError(
            f"|sigma| = {abs(sigma):.12f} off the unit circle at real nu = {nu.real:g}")
    return sigma


# ---------------------------------------------------------------------------
# phase shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseShiftRecord:
    l: int
    sigma: complex
    delta: float


@dataclass(frozen=True)
class ScatteringData:
    """Per-l records {sigma(l), delta_l} plus the flux of the medium."""

    flux_over_2pi: float
    records: tuple

    def sigma(self, l: int) -> complex:
        for rec in self.records:
            if rec.l == l:
                return rec.sigma
        raise KeyError(l)

    def delta(self, l: int) -> float:
        for rec in self.records:
            if rec.l == l:
                return rec.delta
        raise KeyError(l)

    @property
    def l_values(self):
        return [rec.l for rec in self.records]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["l", "re_sigma", "im_sigma", "delta"])
            for rec in self.records:
                w.writerow([rec.l, f"{rec.sigma.real:.17g}",
                            f"{rec.sigma.imag:.17g}", f"{rec.delta:.17g}"])

    def to_json(self, path) -> None:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "flux_over_2pi": self.flux_over_2pi,
            "branch_anchor": BRANCH_ANCHOR,
            "records": [
                {"l": rec.l, "re_sigma": rec.sigma.real,
                 "im_sigma": rec.sigma.imag, "delta": rec.delta}
                for rec in self.records
            ],
        }
        write_json(path, doc)


def unwrap_deltas(sigmas_desc, resolve_tie=None):
    """Continuous delta branch through sigma = e^{2 i delta}, descending in l.

    Starts at the principal value for the first (largest-l) entry and
    continues by the nearest mod-pi representative, so consecutive shifts
    never jump by more than pi/2.  A step within _TIE_WINDOW of +-pi/2 is a
    tie between two representatives of size ~pi/2; without resolve_tie,
    rounding in cmath.phase picks one.  resolve_tie(i) returns the step
    delta_i - delta_{i-1} continued through the data, and the tied
    representative nearer to it is kept.
    """
    deltas = []
    prev = None
    for i, s in enumerate(sigmas_desc):
        if prev is None:
            d = 0.5 * cmath.phase(s)
        else:
            step = 0.5 * cmath.phase(s * cmath.exp(-2j * prev))
            if resolve_tie is not None and abs(abs(step) - 0.5 * math.pi) <= _TIE_WINDOW:
                cont = resolve_tie(i)
                alt = step - math.copysign(math.pi, step)
                if abs(alt - cont) < abs(step - cont):
                    step = alt
            d = prev + step
        deltas.append(d)
        prev = d
    return deltas


def _continued_step(q: EffectivePotential, l: int, s_lo: complex, s_hi: complex,
                    rtol: float) -> float:
    """delta_{l+1} - delta_l continued along real orders l + t, t in [0, 1].

    s_lo = sigma(l) and s_hi = sigma(l+1).  For l < 0 each sample is taken
    times e^{-2 i pi t}, which follows the reflected medium's sigma from -l
    to -l-1; sigma itself winds by 2 pi per unit of negative order.
    Sub-steps of the phase are bisected until each is below pi/4;
    CamscatError if that takes more than _TIE_BISECTIONS rounds.
    """
    ts = [k / _TIE_SAMPLES for k in range(1, _TIE_SAMPLES)]
    vals = {0.0: s_lo, 1.0: s_hi}
    for _ in range(_TIE_BISECTIONS + 1):
        sig = sigma_many(q, [l + t for t in ts], rtol=rtol)
        if l < 0:
            sig = [s * cmath.exp(-2j * math.pi * t) for s, t in zip(sig, ts)]
        vals.update(zip(ts, sig))
        knots = sorted(vals)
        steps = [0.5 * cmath.phase(vals[b] * complex(vals[a]).conjugate())
                 for a, b in zip(knots, knots[1:])]
        ts = [0.5 * (a + b) for a, b, st in zip(knots, knots[1:], steps)
              if abs(st) >= 0.25 * math.pi]
        if not ts:
            return math.fsum(steps)
    raise CamscatError(
        f"phase-shift tie between orders {l} and {l + 1}: "
        f"sigma not resolved after {_TIE_BISECTIONS} bisections")


def phase_shifts(q: EffectivePotential, l_range,
                 rtol: float = DEFAULT_RTOL) -> ScatteringData:
    """sigma(l) and unwrapped delta_l for integer l in [l_min, l_max].

    Both signs of l are solved on q, the nonnegative half ascending and
    the negative half as -1, -2, ..., so each batch block holds orders of
    neighbouring |l|.  delta_l follows unwrap_deltas (nearest steps from
    the largest l down); a step that ties at +-pi/2 within _TIE_WINDOW is
    settled by continuing sigma along real orders on [l, l+1] (see
    _continued_step).  Tables without a tie cost no extra solve.
    """
    l_min, l_max = int(l_range[0]), int(l_range[1])
    if l_max < l_min:
        raise ValueError("empty l range")
    ls = list(range(l_min, l_max + 1))
    ls_desc = ls[::-1]
    sig = {}
    for half in ([l for l in ls if l >= 0], [l for l in ls_desc if l < 0]):
        if half:
            sig.update(zip(half, sigma_many(q, half, rtol=rtol)))

    def resolve_tie(i):
        l = ls_desc[i]
        return -_continued_step(q, l, sig[l], sig[l + 1], rtol)

    deltas_desc = unwrap_deltas([sig[l] for l in ls_desc], resolve_tie)
    records = tuple(
        PhaseShiftRecord(l, sig[l], d)
        for l, d in zip(ls_desc, deltas_desc)
    )[::-1]
    return ScatteringData(q.flux_over_2pi, records)


# ---------------------------------------------------------------------------
# complex angular momentum scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CamScan:
    """sigma sampled over a complex-order grid, with beta-zero exclusions."""

    nu_grid: tuple
    sigma: tuple             # None where excluded
    excluded: tuple

    def to_json(self, path) -> None:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "points": [
                {"re_nu": nu.real, "im_nu": nu.imag,
                 "re_sigma": None if s is None else s.real,
                 "im_sigma": None if s is None else s.imag}
                for nu, s in zip(self.nu_grid, self.sigma)
            ],
            "excluded": [[nu.real, nu.imag] for nu in self.excluded],
        }
        write_json(path, doc)


def cam_scan(q: EffectivePotential, nu_grid, rtol: float = DEFAULT_RTOL) -> CamScan:
    """sigma(nu) over an arbitrary complex-order grid.

    Points where beta vanishes are reported in .excluded rather than
    aborting the scan.
    """
    nus = [complex(n) for n in nu_grid]
    sig, excluded = sigma_many(q, nus, rtol=rtol, collect_errors=True)
    return CamScan(tuple(nus), tuple(sig), tuple(excluded))
