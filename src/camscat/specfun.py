"""Gamma and Bessel/Hankel functions of complex order at real positive argument.

Everything here is evaluated by power series: the solvers only ever need
orders with |nu| <= NU_MAX at radii inside a fixed compact window
(0, R_MAX], which is exactly the regime where the ascending series
converge fast and double precision holds up.  No asymptotic expansions
are used.  The r-derivatives are the termwise derivatives of the same
series (DLMF 10.2.2, 10.8.1), so each evaluation sums two series.

Conventions (real r > 0 throughout):

    J_nu(r)  = sum_k (-1)^k (r/2)^(nu+2k) / (k! Gamma(nu+k+1))
    H1_nu(r) = (J_{-nu}(r) - e^{-i pi nu} J_nu(r)) / (i sin(pi nu))
    H2_nu(r) = (e^{+i pi nu} J_nu(r) - J_{-nu}(r)) / (i sin(pi nu))
    Y_nu(r)  = (H1 - H2) / 2i

with the integer-order limit of Y taken explicitly when nu sits within
INTEGER_WINDOW of an integer (the J_{+-nu} combination loses about
|nu - n|^-1 digits there).
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
INTEGER_WINDOW = 1e-4  # switch to the integer-order Y_n limit inside this

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


def _kahan(total, comp, term):
    """One compensated-summation step: returns the new (total, comp)."""
    y = term - comp
    t = total + y
    return t, (t - total) - y


def _j_series(nu: complex, r: np.ndarray):
    """J_nu and J_nu' at an array of radii from one Kahan-compensated series.

    r J_nu' = sum_k (nu + 2k) term_k accumulates beside J.  nu must not be
    a negative integer (the caller reflects those).
    """
    x = r / 2.0
    ratio = -(x * x)  # term_{k+1} = term_k * ratio / ((k+1)(nu+k+1))
    term = np.exp(nu * np.log(x)) / gamma_complex(nu + 1.0)
    total, comp = term.copy(), np.zeros_like(term)
    dtotal, dcomp = nu * term, np.zeros_like(term)
    runmax = np.abs(term)
    for k in range(1, K_MAX + 1):
        term = term * ratio / (k * (nu + k))
        total, comp = _kahan(total, comp, term)
        dtotal, dcomp = _kahan(dtotal, dcomp, (nu + 2 * k) * term)
        mag = np.abs(term)
        np.maximum(runmax, mag, out=runmax)
        if k >= 2 and np.all(mag <= TERM_CUTOFF * runmax):
            return total, dtotal / r
    raise ConvergenceError(f"J series did not truncate within {K_MAX} terms "
                           f"(nu={nu:g})")


def _y_integer_series(n: int, r: np.ndarray, j_n: np.ndarray, dj_n: np.ndarray):
    """Y_n and Y_n' for integer n >= 0 via the logarithmic limiting series."""
    x = r / 2.0
    logx = np.log(x)
    out = (2.0 / math.pi) * logx * j_n
    dout = (2.0 / math.pi) * (j_n / r + logx * dj_n)

    if n > 0:
        # finite part: -(1/pi) sum_{k=0}^{n-1} (n-k-1)!/k! x^(2k-n)
        f = math.factorial(n - 1) * np.exp(float(-n) * logx)
        acc, dacc = f.copy(), -n * f
        for k in range(1, n):
            f = f * (x * x) / (k * (n - k))
            acc += f
            dacc += (2 * k - n) * f
        out -= acc / math.pi
        dout -= dacc / (math.pi * r)

    # psi part: -(1/pi) sum_k (-1)^k (psi(k+1)+psi(n+k+1)) x^(n+2k)/(k!(n+k)!)
    psi_a = -_EULER_GAMMA
    psi_b = -_EULER_GAMMA + sum(1.0 / m for m in range(1, n + 1))
    p = np.exp(float(n) * logx) / math.factorial(n)
    term = (psi_a + psi_b) * p
    total, comp = term.copy(), np.zeros_like(term)
    dtotal, dcomp = n * term, np.zeros_like(term)
    runmax = np.abs(term)
    for k in range(1, K_MAX + 1):
        p = -p * (x * x) / (k * (n + k))
        psi_a += 1.0 / k
        psi_b += 1.0 / (n + k)
        term = (psi_a + psi_b) * p
        total, comp = _kahan(total, comp, term)
        dtotal, dcomp = _kahan(dtotal, dcomp, (n + 2 * k) * term)
        mag = np.abs(term)
        np.maximum(runmax, mag, out=runmax)
        if k >= 2 and np.all(mag <= TERM_CUTOFF * runmax):
            break
    else:
        raise ConvergenceError(f"Y_{n} psi-series did not truncate")
    return out - total / math.pi, dout - dtotal / (math.pi * r)


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


def _hankel_arrays(nu: complex, r: np.ndarray):
    """All of (J, Y, H1, H2, dJ, dH1, dH2) as arrays over r, shared order nu."""
    n = round(nu.real)
    if abs(nu - n) < INTEGER_WINDOW:
        # integer-order branch: limiting series for Y, order snapped to n,
        # Z_{-m} = (-1)^m Z_m for Z = J, Y
        m = abs(n)
        j, dj = _j_series(complex(m), r)
        y, dy = _y_integer_series(m, r, j, dj)
        if n < 0 and m % 2 == 1:
            j, dj, y, dy = -j, -dj, -y, -dy
        return (j, y, j + 1j * y, j - 1j * y,
                dj, dj + 1j * dy, dj - 1j * dy)

    s = cmath.sin(math.pi * nu)
    em = cmath.exp(-1j * math.pi * nu)
    ep = cmath.exp(1j * math.pi * nu)
    jp, djp = _j_series(nu, r)
    jm, djm = _j_series(-nu, r)
    h1 = (jm - em * jp) / (1j * s)
    h2 = (ep * jp - jm) / (1j * s)
    dh1 = (djm - em * djp) / (1j * s)
    dh2 = (ep * djp - djm) / (1j * s)
    y = (h1 - h2) / 2j
    return jp, y, h1, h2, djp, dh1, dh2


def bessel_j(nu: complex, r: float) -> complex:
    """J_nu(r) by power series for complex order and real positive argument."""
    nu = _check_order(nu)
    rr = _check_radius(np.array([float(r)]))
    n = round(nu.real)
    if nu.imag == 0.0 and nu.real == n and n < 0:
        return (-1) ** n * complex(_j_series(complex(-n), rr)[0][0])
    return complex(_j_series(nu, rr)[0][0])


def bessel_h(nu: complex, r: float) -> BesselValue:
    """J, Y, H1, H2 and their r-derivatives at a point.

    Non-integer orders use the J_{+-nu} combination; orders within
    INTEGER_WINDOW of an integer switch to the integer-order limiting
    series for Y_n.
    """
    nu = _check_order(nu)
    rr = _check_radius(np.array([float(r)]))
    j, y, h1, h2, dj, dh1, dh2 = _hankel_arrays(nu, rr)
    return BesselValue(
        J=complex(j[0]), Y=complex(y[0]), H1=complex(h1[0]), H2=complex(h2[0]),
        dJ=complex(dj[0]), dH1=complex(dh1[0]), dH2=complex(dh2[0]),
    )
