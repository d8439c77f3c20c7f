"""Admissible media, the gauge function gamma(r), and the effective potential.

A medium is a pair of radial profiles: an electric potential V (piecewise
continuous, energy units) and a scalar magnetic field profile b (smooth,
field units), both compactly supported inside the ball of radius R, around
an excluded obstacle of radius r0.  The magnetic field enters the radial
dynamics only through the gauge function

    gamma(r) = integral_0^r b(tau) tau dtau,

which is constant equal to flux/(2 pi) beyond the support radius R, and
through the effective potential

    q_nu(r) = -2 nu (gamma(r) - gamma(R))/r^2
              + (gamma(r)^2 - gamma(R)^2)/r^2 + V(r),

which vanishes identically for r >= R.  That exact vanishing is load
bearing: the scattering data at infinity transfer exactly to r = R, so the
code returns a hard zero there rather than trusting cancellation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .quadrature import GL_NODES, adaptive_gl, gl_rule, hermite
from .specfun import R_MAX

PROFILE_KINDS = ("bump", "step", "poly_spline", "zero")

_TAB_N = 4097  # gauge table nodes for smooth field profiles


@dataclass(frozen=True)
class RadialProfile:
    """Compactly supported real profile on [a, b), zero elsewhere.

    kind selects the functional family:
      bump        params=[amp]      amp * exp(-1/(1-t^2)), t in (-1, 1), C-infinity
      step        params=[h]        constant h on [a, b)
      poly_spline params=[c0,c1,..] sum c_i t^i with t = (r-a)/(b-a) on [a, b)
      zero        params=[]         identically zero
    """

    kind: str
    params: tuple = ()
    support: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        a, b = self.support
        if self.kind != "zero" and not (0.0 <= a < b):
            raise ValueError("support must satisfy 0 <= a < b")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "support", (float(a), float(b)))

    def __call__(self, r):
        if np.ndim(r) == 0:
            return float(self(np.array([r], dtype=float))[0])
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        if self.kind == "zero":
            return out
        a, b = self.support
        if self.kind == "step":
            inside = (r >= a) & (r < b)
            out[inside] = self.params[0]
        elif self.kind == "bump":
            t = (2.0 * r - (a + b)) / (b - a)
            inside = np.abs(t) < 1.0
            tt = t[inside]
            with np.errstate(over="ignore", under="ignore"):
                out[inside] = self.params[0] * np.exp(-1.0 / (1.0 - tt * tt))
        else:  # poly_spline
            inside = (r >= a) & (r < b)
            t = (r[inside] - a) / (b - a)
            acc = np.zeros_like(t)
            for c in reversed(self.params):
                acc = acc * t + c
            out[inside] = acc
        return out

    def is_zero(self) -> bool:
        return self.kind == "zero" or all(p == 0.0 for p in self.params)


def zero_profile() -> RadialProfile:
    return RadialProfile("zero")


def step_profile(height: float, a: float, b: float) -> RadialProfile:
    return RadialProfile("step", (height,), (a, b))


def bump_profile(amplitude: float, a: float, b: float) -> RadialProfile:
    return RadialProfile("bump", (amplitude,), (a, b))


def poly_profile(coeffs, a: float, b: float) -> RadialProfile:
    return RadialProfile("poly_spline", tuple(coeffs), (a, b))


def bump_field(flux_over_2pi: float, a: float, b: float) -> RadialProfile:
    """Bump field profile scaled so that integral_a^b tau b(tau) dtau hits
    the requested flux/(2 pi)."""
    unit = bump_profile(1.0, a, b)
    base = adaptive_gl(lambda t: t * unit(t), a, b, tol=1e-14)
    return bump_profile(flux_over_2pi / base, a, b)


@dataclass(frozen=True)
class Medium:
    """Electric potential V and field profile b around an obstacle of radius r0.

    Supports of both profiles must lie inside [0, R].  R <= r0 is allowed
    and describes a medium entirely inside the obstacle (pure
    Aharonov-Bohm configuration: only the flux acts outside).  r0 and R
    must not exceed R_MAX, the radius window of the Bessel series.
    """

    V: RadialProfile
    b: RadialProfile
    r0: float
    R: float

    def __post_init__(self):
        if not (self.r0 > 0.0 and self.R > 0.0):
            raise ValueError("r0 and R must be positive")
        if max(self.r0, self.R) > R_MAX:
            raise ValueError(f"r0 and R must not exceed R_MAX = {R_MAX:g}")
        for name, prof in (("V", self.V), ("b", self.b)):
            if prof.kind != "zero" and prof.support[1] > self.R + 1e-12:
                raise ValueError(f"{name} support must lie inside [0, R]")

    def breakpoints(self):
        """Support endpoints inside (r0, R): the only smoothness breaks of q."""
        pts = []
        for prof in (self.V, self.b):
            if prof.kind != "zero":
                pts.extend(prof.support)
        return tuple(sorted({p for p in pts if self.r0 < p < self.R}))


def mirror(medium: Medium) -> Medium:
    """The medium with the field profile negated (gauge gamma -> -gamma)."""
    b = medium.b
    if b.kind == "zero":
        return medium
    return Medium(
        V=medium.V,
        b=RadialProfile(b.kind, tuple(-p for p in b.params), b.support),
        r0=medium.r0,
        R=medium.R,
    )


# ---------------------------------------------------------------------------
# gauge function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeData:
    """gamma(r) and its flux value flux_over_2pi.

    gamma is _inside(r) below r_flat, the end of the field's support
    (capped at R; 0 for a zero field), and exactly flux_over_2pi from
    r_flat on, so a field confined to the obstacle leaves q_nu a hard zero
    outside it.  build_gauge chooses _inside per field kind.  Scalar radii
    go through the array path and come back as Python floats.
    """

    flux_over_2pi: float
    r_flat: float
    _inside: Callable = field(repr=False)

    def gamma(self, r):
        """gamma(r); exactly flux_over_2pi for every r >= r_flat."""
        return self._masked(r, 0.0)

    def gamma_minus_flux(self, r):
        """gamma(r) - flux_over_2pi; a hard zero for every r >= r_flat."""
        return self._masked(r, self.flux_over_2pi)

    def _masked(self, r, shift):
        if np.ndim(r) == 0:
            return float(self._masked(np.array([r], dtype=float), shift)[0])
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, self.flux_over_2pi - shift)
        low = r < self.r_flat
        if np.any(low):
            out[low] = self._inside(r[low]) - shift
        return out


def build_gauge(medium: Medium) -> GaugeData:
    """gamma(r) = integral_0^r tau b(tau) dtau for the medium's field profile.

    The one place that dispatches on the field kind.  Step and polynomial
    profiles use exact antiderivatives.  Smooth bump profiles are
    tabulated at _TAB_N uniform nodes on their support [a, min(b, R)], so
    the spacing shrinks with the width.  Each cell is integrated by one
    GL_NODES-point Gauss-Legendre rule in a single array pass and summed
    cumulatively; the total is checked against adaptive_gl (QuadratureError
    beyond 1e-12), and values between nodes come from cubic Hermite
    interpolation with the exact nodal derivatives gamma'(r) = r b(r).
    """
    b = medium.b
    if b.is_zero():
        return GaugeData(0.0, 0.0, np.zeros_like)

    a, bb = b.support
    if b.kind == "step":
        h = b.params[0]
        flux = 0.5 * h * (bb * bb - a * a)

        def inside(r):
            top = np.clip(r, a, bb)
            return np.where(r <= a, 0.0, 0.5 * h * (top * top - a * a))
    elif b.kind == "poly_spline":
        # integral_a^r tau p(t) dtau with tau = a + (b-a) t:
        #   (b-a) * integral_0^t (a + (b-a) s) p(s) ds
        w = bb - a
        c = np.asarray(b.params)
        poly_t = np.zeros(len(c) + 2)
        poly_t[:len(c)] += a * c                 # a * p(s)
        poly_t[1:len(c) + 1] += w * c            # (b-a) s * p(s)
        anti = w * poly_t / np.arange(1, len(poly_t) + 1)   # coeffs of t^(i+1) / t

        def inside(r):
            t = np.clip((r - a) / w, 0.0, 1.0)
            acc = np.zeros_like(t)
            for ck in anti[::-1]:
                acc = acc * t + ck
            return acc * t

        flux = float(inside(np.array([bb]))[0])
    else:
        inside, flux = _bump_table(b, medium.R)
    return GaugeData(flux, min(bb, medium.R), inside)


def _bump_table(b: RadialProfile, R: float):
    """Hermite evaluator of gamma on the field's support [a, min(b, R)] and
    the flux, from _TAB_N nodes."""
    n = _TAB_N
    a, bb = b.support
    e = min(bb, R)
    h = (e - a) / (n - 1)    # not nodes[1] - nodes[0], whose rounding costs ~1e-12
    nodes = np.linspace(a, e, n)
    x, wq = gl_rule(GL_NODES)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    half = 0.5 * np.diff(nodes)
    tau = mid[:, None] + half[:, None] * x
    vals = np.concatenate([[0.0], np.cumsum(half * ((tau * b(tau)) @ wq))])
    flux = float(vals[-1])
    spread = abs(flux - adaptive_gl(lambda t: t * b(t), a, bb, tol=1e-14))
    if spread > 1e-12:
        raise QuadratureError(f"gauge tabulation drifted by {spread:.2e}")
    ders = h * nodes * b(nodes)                  # h * gamma'(node), exact

    def inside(r):
        u = (np.clip(r, a, e) - a) / h
        i = np.minimum(u.astype(int), n - 2)
        return hermite(u - i, vals[i], vals[i + 1], ders[i], ders[i + 1])

    return inside, flux


# ---------------------------------------------------------------------------
# effective potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectivePotential:
    """q_nu(r), affine in nu:  q_nu(r) = q0(r) + nu * q1(r).

    q1(r) = -2 (gamma(r) - gamma(R)) / r^2 collects the order-coupled
    magnetic term; q0 the rest.  Both are hard zeros for r >= R.
    """

    medium: Medium
    gauge: GaugeData

    @property
    def flux_over_2pi(self) -> float:
        return self.gauge.flux_over_2pi

    @property
    def r0(self) -> float:
        return self.medium.r0

    @property
    def R(self) -> float:
        return self.medium.R

    def parts(self, r):
        """(q0(r), q1(r)) from one gauge evaluation."""
        r = np.asarray(r, dtype=float)
        gmf = self.gauge.gamma_minus_flux(r)
        g = gmf + self.flux_over_2pi
        rr = r * r
        return (gmf * (g + self.flux_over_2pi) / rr + self.medium.V(r),
                -2.0 * gmf / rr)

    def q1(self, r):
        return self.parts(r)[1]

    def __call__(self, nu: complex, r):
        q0, q1 = self.parts(r)
        return q0 + nu * q1

    def is_free(self) -> bool:
        """True when q_nu vanishes identically on [r0, infinity)."""
        m = self.medium
        v_out = m.V.is_zero() or m.V.support[1] <= m.r0
        b_out = m.b.is_zero() or m.b.support[1] <= m.r0
        return v_out and b_out

    def breakpoints(self):
        return self.medium.breakpoints()


def effective_potential(medium: Medium) -> EffectivePotential:
    return EffectivePotential(medium, build_gauge(medium))


# ---------------------------------------------------------------------------
# class-C validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassCCheck:
    name: str
    passed: bool
    reason: str


@dataclass(frozen=True)
class ClassCReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_class_C(medium: Medium) -> ClassCReport:
    """Report whether the medium is admissible.

    Admissible means: both profiles radial, compactly supported inside
    [0, R], V at worst piecewise continuous, b smooth.  Every Medium is
    radial with supports inside [0, R] (Medium raises otherwise) and every
    profile kind is piecewise continuous, so only b_smooth can fail.
    """
    b_ok = medium.b.kind in ("bump", "zero")
    why = "field profile is smooth" if b_ok else f"kind {medium.b.kind!r} is not smooth"
    return ClassCReport((ClassCCheck("b_smooth", b_ok, why),))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _profile_from_dict(d: dict, role: str) -> RadialProfile:
    kind = d.get("kind", "zero")
    if kind == "zero":
        return zero_profile()
    support = tuple(d["support"])
    if kind == "bump" and "flux_over_2pi" in d:
        if role != "B":
            raise ValueError("flux_over_2pi shorthand only applies to B")
        return bump_field(float(d["flux_over_2pi"]), *support)
    return RadialProfile(kind, tuple(d.get("params", ())), support)


def medium_from_dict(d: dict) -> Medium:
    return Medium(
        V=_profile_from_dict(d.get("V", {"kind": "zero"}), "V"),
        b=_profile_from_dict(d.get("B", {"kind": "zero"}), "B"),
        r0=float(d["r0"]),
        R=float(d["R"]),
    )


def medium_from_json(path) -> Medium:
    with open(path) as f:
        return medium_from_dict(json.load(f))


def medium_to_dict(medium: Medium) -> dict:
    def prof(p):
        if p.kind == "zero":
            return {"kind": "zero"}
        return {"kind": p.kind, "params": list(p.params), "support": list(p.support)}
    return {"r0": medium.r0, "R": medium.R,
            "V": prof(medium.V), "B": prof(medium.b)}
