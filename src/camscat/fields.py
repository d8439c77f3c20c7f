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

import numpy as np

from .errors import QuadratureError
from .quadrature import adaptive_gl

PROFILE_KINDS = ("bump", "step", "poly_spline", "zero")
SMOOTH = "smooth"
PIECEWISE = "piecewise_continuous"

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
    smoothness: str = SMOOTH

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        a, b = self.support
        if self.kind != "zero" and not (0.0 <= a < b):
            raise ValueError("support must satisfy 0 <= a < b")
        if self.kind == "bump" and self.smoothness != SMOOTH:
            raise ValueError("bump profiles are C-infinity by construction")
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
    return RadialProfile("step", (height,), (a, b), PIECEWISE)


def bump_profile(amplitude: float, a: float, b: float) -> RadialProfile:
    return RadialProfile("bump", (amplitude,), (a, b), SMOOTH)


def poly_profile(coeffs, a: float, b: float) -> RadialProfile:
    return RadialProfile("poly_spline", tuple(coeffs), (a, b), PIECEWISE)


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
    Aharonov-Bohm configuration: only the flux acts outside).
    """

    V: RadialProfile
    b: RadialProfile
    r0: float
    R: float

    def __post_init__(self):
        if not (self.r0 > 0.0 and self.R > 0.0):
            raise ValueError("r0 and R must be positive")
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
        b=RadialProfile(b.kind, tuple(-p for p in b.params), b.support, b.smoothness),
        r0=medium.r0,
        R=medium.R,
    )


# ---------------------------------------------------------------------------
# gauge function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeData:
    """gamma(r) on [0, R] plus the flux value gamma(R).

    Step/polynomial/zero field profiles carry exact antiderivatives; the
    smooth bump family is tabulated on a dense uniform grid and evaluated
    by cubic Hermite interpolation with the exact nodal derivatives
    gamma'(r) = r b(r) (interpolation error ~1e-13).  Scalar radii go
    through the array path and come back as Python floats.
    """

    flux_over_2pi: float
    R: float
    _kind: str = "zero"
    _params: tuple = ()
    _support: tuple = (0.0, 0.0)
    _tab_v: np.ndarray = field(default=None, repr=False)
    _tab_d: np.ndarray = field(default=None, repr=False)   # h * gamma' at nodes

    def gamma(self, r):
        """gamma(r); exactly flux_over_2pi for every r >= R."""
        if np.ndim(r) == 0:
            return float(self.gamma(np.array([r], dtype=float))[0])
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, self.flux_over_2pi)
        low = r < self.R
        if np.any(low):
            out[low] = self._eval_inside(r[low])
        return out

    def gamma_minus_flux(self, r):
        """gamma(r) - gamma(R); a hard zero for every r >= R."""
        if np.ndim(r) == 0:
            return float(self.gamma_minus_flux(np.array([r], dtype=float))[0])
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        low = r < self.R
        if np.any(low):
            out[low] = self._eval_inside(r[low]) - self.flux_over_2pi
        return out

    def _eval_inside(self, r):
        if self._kind == "zero":
            return np.zeros_like(r)
        a, b = self._support
        if self._kind == "step":
            h = self._params[0]
            top = np.clip(r, a, b)
            return np.where(r <= a, 0.0, 0.5 * h * (top * top - a * a))
        if self._kind == "poly_spline":
            c = np.asarray(self._params)         # integrated coefficients in t
            t = np.clip((r - a) / (b - a), 0.0, 1.0)
            acc = np.zeros_like(t)
            for ck in c[::-1]:
                acc = acc * t + ck
            return acc * t
        v, d = self._tab_v, self._tab_d
        h = self.R / (len(v) - 1)
        u = np.clip(r, 0.0, self.R) / h
        i = np.minimum(u.astype(int), len(v) - 2)
        x = u - i
        x2 = x * x
        x3 = x2 * x
        return (v[i] * (2.0 * x3 - 3.0 * x2 + 1.0) + v[i + 1] * (3.0 * x2 - 2.0 * x3)
                + d[i] * (x3 - 2.0 * x2 + x) + d[i + 1] * (x3 - x2))


def build_gauge(medium: Medium) -> GaugeData:
    """Integrate tau*b(tau) from 0 to r for the medium's field profile.

    Step, polynomial and zero profiles use exact antiderivatives; smooth
    bump profiles are tabulated at _TAB_N uniform nodes on [0, R] by
    adaptive Gauss-Legendre (absolute error <= 1e-12) and then evaluated
    by cubic Hermite interpolation with the exact nodal derivatives.
    """
    b = medium.b
    R = medium.R

    if b.is_zero():
        return GaugeData(0.0, R, "zero")

    a, bb = b.support
    if b.kind == "step":
        h = b.params[0]
        flux = 0.5 * h * (bb * bb - a * a)
        return GaugeData(flux, R, "step", b.params, b.support)

    if b.kind == "poly_spline":
        # integral_a^r tau p(t) dtau with tau = a + (b-a) t:
        #   (b-a) * integral_0^t (a + (b-a) s) p(s) ds
        w = bb - a
        c = np.asarray(b.params)
        poly_t = np.zeros(len(c) + 2)
        poly_t[:len(c)] += a * c                 # a * p(s)
        poly_t[1:len(c) + 1] += w * c            # (b-a) s * p(s)
        anti = w * poly_t / np.arange(1, len(poly_t) + 1)   # coeffs of t^(i+1) / t
        gd = GaugeData(0.0, R, "poly_spline", tuple(anti), b.support)
        flux = float(gd._eval_inside(np.array([bb]))[0])
        return GaugeData(flux, R, "poly_spline", tuple(anti), b.support)

    # bump: cumulative adaptive GL between consecutive table nodes
    n = _TAB_N
    nodes = np.linspace(0.0, R, n)
    h = nodes[1] - nodes[0]
    integrand = lambda t: t * b(t)
    vals = np.empty(n)
    vals[0] = 0.0
    acc = 0.0
    per_panel_tol = 1e-12 / n
    for i in range(1, n):
        lo, hi = nodes[i - 1], nodes[i]
        if hi <= a or lo >= bb:
            inc = 0.0                            # outside the support: exact zero
        else:
            inc = adaptive_gl(integrand, lo, hi, tol=per_panel_tol)
        acc += inc
        vals[i] = acc
    flux = acc
    spread = abs(flux - adaptive_gl(integrand, a, bb, tol=1e-14))
    if spread > 1e-12:
        raise QuadratureError(f"gauge tabulation drifted by {spread:.2e}")
    ders = h * nodes * b(nodes)                  # h * gamma'(node), exact
    return GaugeData(flux, R, "bump", b.params, b.support, vals, ders)


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


def effective_potential(medium: Medium, gauge: GaugeData | None = None) -> EffectivePotential:
    if gauge is None:
        gauge = build_gauge(medium)
    if abs(gauge.R - medium.R) > 0.0:
        raise ValueError("gauge was built for a different support radius")
    return EffectivePotential(medium, gauge)


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

    def failures(self):
        return [c for c in self.checks if not c.passed]


def validate_class_C(medium: Medium) -> ClassCReport:
    """Report whether the medium is admissible.

    Admissible means: both profiles radial (structural), compactly
    supported inside [0, R], V at worst piecewise continuous, b smooth.
    """
    checks = [ClassCCheck("radial", True, "profiles are radial by construction")]
    for name, prof in (("V", medium.V), ("b", medium.b)):
        ok = prof.kind == "zero" or prof.support[1] <= medium.R + 1e-12
        checks.append(ClassCCheck(
            f"{name}_compact_support", ok,
            "support inside [0, R]" if ok else "support exceeds R",
        ))
    checks.append(ClassCCheck(
        "V_piecewise_continuous", True,
        f"kind {medium.V.kind!r} is piecewise continuous",
    ))
    b_ok = medium.b.kind in ("bump", "zero")
    checks.append(ClassCCheck(
        "b_smooth", b_ok,
        "field profile is smooth" if b_ok
        else f"kind {medium.b.kind!r} is not smooth",
    ))
    return ClassCReport(tuple(checks))


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
    smooth = SMOOTH if kind == "bump" else PIECEWISE
    return RadialProfile(kind, tuple(d.get("params", ())), support, smooth)


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
