"""Gamma and Bessel/Hankel functions of complex order at real positive argument.

Everything here is evaluated by power series: the solvers only ever need
orders with |nu| <= NU_MAX at radii inside a fixed compact window
(0, R_MAX], which is exactly the regime where the ascending series
converge fast and double precision holds up.  No asymptotic expansions
are used.  Each evaluation runs one series loop: J_{+nu} and J_{-nu} are
summed as a pair, the r-derivatives termwise beside them (DLMF 10.2.2,
10.8.1), and at integer orders Y_n's psi series beside J_n.

Conventions (real r > 0 throughout):

    J_nu(r)  = sum_k (-1)^k (r/2)^(nu+2k) / (k! Gamma(nu+k+1))
    H1_nu(r) = (J_{-nu}(r) - e^{-i pi nu} J_nu(r)) / (i sin(pi nu))
    H2_nu(r) = (e^{+i pi nu} J_nu(r) - J_{-nu}(r)) / (i sin(pi nu))
    Y_nu(r)  = (H1 - H2) / 2i

The pair shares one Gamma: g = Gamma(1+t) at whichever of t = +-nu has
Re t >= 0, and 1/Gamma(1-t) = g sin(pi t)/(pi t) by reflection.  Exact
integer orders take the integer-order limit of Y.  Within INTEGER_WINDOW
of an integer the J_{+-nu} combination loses about |nu - n|^-1 digits, so
there the result is interpolated quadratically in nu through n - w, n and
n + w (w = INTEGER_WINDOW).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

NU_MAX = 60.0          # order cap for series accuracy guarantees
R_MAX = 20.0           # argument cap
K_MAX = 400            # series term budget
TERM_CUTOFF = 1e-18    # stop when |term| <= TERM_CUTOFF * running max
INTEGER_WINDOW = 1e-4  # interpolate through the integer order inside this

_EULER_GAMMA = 0.5772156649015328606065120900824024

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_complex(z: complex) -> complex:
    """Gamma(z) for complex z, relative error ~1e-13 for moderate |z|.

    Uses the Lanczos sum on Re(z) >= 0.5 and the reflection formula
    elsewhere.  Raises PoleError at nonpositive integers.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z))
    w = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * cmath.exp((w + 0.5) * cmath.log(t) - t) * acc


def _check_order(nu: complex) -> complex:
    nu = complex(nu)
    if not (math.isfinite(nu.real) and math.isfinite(nu.imag)):
        raise DomainError("order must be finite")
    if abs(nu) > NU_MAX:
        raise DomainError(f"|nu| = {abs(nu):.3g} exceeds NU_MAX = {NU_MAX:g}")
    return nu


def _check_radius(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r > R_MAX):
        raise DomainError(f"radius must lie in (0, {R_MAX:g}]")
    return r


def _j_series(nu, r: np.ndarray, lead, c=None):
    """J_nu and J_nu' over r from one series with lead = 1/Gamma(nu+1).

    nu and lead broadcast against r, so a (2, 1) column sums J_{+-nu}
    together; r J_nu' = sum_k (nu + 2k) term_k accumulates beside J.  Given
    c = c_0 at an integer order nu = m, the loop also returns Y_m's psi sums
    P = sum_k c_k term_k and P', with c_k = c_{k-1} + 1/k + 1/(m+k).
    """
    x = r / 2.0
    ratio = -(x * x)  # term_{k+1} = term_k * ratio / ((k+1)(nu+k+1))
    term = lead * np.exp(nu * np.log(x))
    j, dj = term.copy(), nu * term
    if c is not None:
        p, dp = c * term, c * dj
    runmax = np.abs(term)
    for k in range(1, K_MAX + 1):
        term = term * ratio / (k * (nu + k))
        dterm = (nu + 2 * k) * term
        j += term
        dj += dterm
        if c is not None:
            c += 1.0 / k + 1.0 / (nu + k)
            p += c * term
            dp += c * dterm
        mag = np.abs(term)
        np.maximum(runmax, mag, out=runmax)
        if k >= 2 and np.all(mag <= TERM_CUTOFF * runmax):
            return (j, dj / r) if c is None else (j, dj / r, p, dp / r)
    raise ConvergenceError(f"J series did not truncate within {K_MAX} terms "
                           f"(nu={nu})")


def _y_integer_series(m: int, r: np.ndarray, j, dj, p, dp):
    """Y_m and Y_m' for integer m >= 0 from J_m, its psi sums P and the log limit."""
    x = r / 2.0
    logx = np.log(x)
    out = (2.0 / math.pi) * logx * j - p / math.pi
    dout = (2.0 / math.pi) * (j / r + logx * dj) - dp / math.pi
    if m > 0:
        # finite part: -(1/pi) sum_{k=0}^{m-1} (m-k-1)!/k! x^(2k-m)
        f = math.factorial(m - 1) * np.exp(float(-m) * logx)
        acc, dacc = f.copy(), -m * f
        for k in range(1, m):
            f = f * (x * x) / (k * (m - k))
            acc += f
            dacc += (2 * k - m) * f
        out -= acc / math.pi
        dout -= dacc / (math.pi * r)
    return out, dout


@dataclass(frozen=True)
class BesselValue:
    """J, Y and both Hankel functions with argument derivatives at one point."""

    J: complex
    Y: complex
    H1: complex
    H2: complex
    dJ: complex
    dH1: complex
    dH2: complex


def _hankel_pair(nu: complex, r: np.ndarray):
    """(J, Y, H1, H2, dJ, dH1, dH2) at a non-integer order from one J_{+-nu} loop."""
    n = round(nu.real)
    d = nu - n
    sign = (-1) ** n
    s = sign * cmath.sin(math.pi * d)          # sin(pi nu), argument reduced
    em = sign * cmath.exp(-1j * math.pi * d)   # e^{-i pi nu}
    ep = sign * cmath.exp(1j * math.pi * d)    # e^{+i pi nu}
    flip = (nu.real, nu.imag) < (0.0, 0.0)     # t = -nu has Re t >= 0
    g = gamma_complex(1.0 + (-nu if flip else nu))
    reflected = g * s / (math.pi * nu)         # 1/Gamma(1-t) by reflection
    lead = (reflected, 1.0 / g) if flip else (1.0 / g, reflected)
    j, dj = _j_series(np.array([[nu], [-nu]]), r, np.array(lead)[:, None])
    h1, dh1 = ((zm - em * zp) / (1j * s) for zp, zm in (j, dj))
    h2, dh2 = ((ep * zp - zm) / (1j * s) for zp, zm in (j, dj))
    return j[0], (h1 - h2) / 2j, h1, h2, dj[0], dh1, dh2


def _hankel_arrays(nu: complex, r: np.ndarray):
    """All of (J, Y, H1, H2, dJ, dH1, dH2) as arrays over r, shared order nu."""
    n = round(nu.real)
    d = nu - n
    if abs(d) >= INTEGER_WINDOW:
        return _hankel_pair(nu, r)
    # integer order m = |n|: c_0 = psi(1) + psi(m+1), Z_{-m} = (-1)^m Z_m
    m = abs(n)
    c0 = -2.0 * _EULER_GAMMA + sum(1.0 / i for i in range(1, m + 1))
    j, dj, p, dp = _j_series(float(m), r, 1.0 / math.factorial(m), c0)
    y, dy = _y_integer_series(m, r, j, dj, p, dp)
    if n < 0 and m % 2 == 1:
        j, dj, y, dy = -j, -dj, -y, -dy
    out = (j, y, j + 1j * y, j - 1j * y, dj, dj + 1j * dy, dj - 1j * dy)
    if d == 0:
        return out
    # 0 < |d| < w: quadratic in nu through n - w, n and n + w
    w = INTEGER_WINDOW
    mid = np.array(out)
    lo, hi = np.array(_hankel_pair(n - w, r)), np.array(_hankel_pair(n + w, r))
    u = d / w
    return tuple(mid + u * (hi - lo) / 2 + u * u * (hi + lo - 2 * mid) / 2)


def bessel_j(nu: complex, r: float) -> complex:
    """J_nu(r) for complex order and real positive argument."""
    return bessel_h(nu, r).J


def bessel_h(nu: complex, r: float) -> BesselValue:
    """J, Y, H1, H2 and their r-derivatives at a point.

    One series loop per evaluation.  Non-integer orders sum J_{+-nu} as a
    pair with one shared Gamma; exact integer orders add Y_n's limiting
    series to the loop; orders within INTEGER_WINDOW of an integer n are
    interpolated quadratically through n - w, n and n + w.
    """
    nu = _check_order(nu)
    rr = _check_radius(np.array([float(r)]))
    j, y, h1, h2, dj, dh1, dh2 = _hankel_arrays(nu, rr)
    return BesselValue(
        J=complex(j[0]), Y=complex(y[0]), H1=complex(h1[0]), H2=complex(h2[0]),
        dJ=complex(dj[0]), dH1=complex(dh1[0]), dH2=complex(dh2[0]),
    )
