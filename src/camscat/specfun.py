"""Gamma and Bessel/Hankel functions of complex order at real positive argument.

Everything here is evaluated by power series: the solvers only ever need
orders with |nu| <= NU_MAX at radii inside a fixed compact window
(0, R_MAX], which is exactly the regime where the ascending series
converge fast and double precision holds up.  No asymptotic expansions
are used.  One call takes many orders over many radii in one series loop
over J_{+nu} and J_{-nu} of every order as one block, the r-derivatives
termwise beside them (DLMF 10.2.2, 10.8.1).  No value depends on its
batch peers.

Conventions (real r > 0 throughout):

    J_nu(r)  = sum_k (-1)^k (r/2)^(nu+2k) / (k! Gamma(nu+k+1))
    H1_nu(r) = (J_{-nu}(r) - e^{-i pi nu} J_nu(r)) / (i sin(pi nu))
    H2_nu(r) = (e^{+i pi nu} J_nu(r) - J_{-nu}(r)) / (i sin(pi nu))
    Y_nu(r)  = (H1 - H2) / 2i

The pair shares one Gamma: g = Gamma(1+t) at whichever of t = +-nu has
Re t >= 0, and 1/Gamma(1-t) = g sin(pi t)/(pi t) by reflection.  Dividing
by sin(pi nu) loses about |nu - n|^-1 digits near an integer n, so an order
within _RING_RADIUS of n is interpolated, by the barycentric formula on
roots of unity, from the ring of orders |n| + _RING (at n itself: the mean
over the ring).  Below zero the result is reflected from mu = -nu, since
J_{-m+d} ~ sin(pi d) Y_m dwarfs J_{-m} on a ring centred at -m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

NU_MAX = 60.0          # order cap for series accuracy guarantees
R_MAX = 20.0           # argument cap
K_MAX = 400            # series term budget
TERM_CUTOFF = 1e-18    # stop when |term| <= TERM_CUTOFF * running max
_RING_RADIUS = 0.02    # orders this close to an integer are read off a ring
_RING_NODES = 16       # ring orders m + _RING_RADIUS e^{2 pi i k / _RING_NODES}
_RING = _RING_RADIUS * np.exp(2j * math.pi * np.arange(_RING_NODES) / _RING_NODES)

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


def _gamma(z: np.ndarray) -> np.ndarray:
    """Gamma over a complex array: Lanczos on Re(z) >= 0.5, reflection elsewhere."""
    left = z.real < 0.5
    w = np.where(left, -z, z - 1.0)
    acc = np.full(z.shape, _LANCZOS_C[0], dtype=complex)
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    g = math.sqrt(2.0 * math.pi) * np.exp((w + 0.5) * np.log(t) - t) * acc
    # Gamma(z) Gamma(1-z) = pi / sin(pi z)
    return np.where(left, math.pi / (np.sin(math.pi * z) * g), g)


def gamma_complex(z: complex) -> complex:
    """Gamma(z) for complex z, relative error ~1e-13 for moderate |z|.

    Uses the Lanczos sum on Re(z) >= 0.5 and the reflection formula
    elsewhere.  Raises PoleError at nonpositive integers.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    return complex(_gamma(np.array(z)))


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


def _j_series(nu, r: np.ndarray, lead):
    """J_nu and J_nu' over r from one series with lead = 1/Gamma(nu+1).

    nu and lead are order columns that broadcast against r; r J_nu' =
    sum_k (nu + 2k) term_k accumulates beside J.  Each element stops on its
    own test.
    """
    x = r / 2.0
    ratio = -(x * x)  # term_{k+1} = term_k * ratio / ((k+1)(nu+k+1))
    term = lead * np.exp(nu * np.log(x))
    j, dj = term.copy(), nu * term
    runmax = np.abs(term)
    for k in range(1, K_MAX + 1):
        term = term * ratio / (k * (nu + k))
        j += term
        dj += (nu + 2 * k) * term
        mag = np.abs(term)
        np.maximum(runmax, mag, out=runmax)
        if k >= 2:
            done = mag <= TERM_CUTOFF * runmax
            if done.all():
                return j, dj / r
            term[done] = 0.0
    raise ConvergenceError(f"J series did not truncate within {K_MAX} terms "
                           f"(nu={nu.ravel()})")


def _hankel_pair(nu: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(J, H1, H2, dJ, dH1, dH2) at non-integer orders, shape (6, len(nu),
    len(r)), from one loop over the (2, len(nu)) block of J_{+-nu}."""
    nu = nu[:, None]                           # order column against r
    n = np.round(nu.real)
    d = nu - n
    sign = 1.0 - 2.0 * (n % 2.0)
    s = sign * np.sin(math.pi * d)             # sin(pi nu), argument reduced
    em = sign * np.exp(-1j * math.pi * d)      # e^{-i pi nu}
    ep = sign * np.exp(1j * math.pi * d)       # e^{+i pi nu}
    flip = (nu.real < 0.0) | ((nu.real == 0.0) & (nu.imag < 0.0))  # t = -nu
    g = _gamma(1.0 + np.where(flip, -nu, nu))
    reflected = g * s / (math.pi * nu)         # 1/Gamma(1-t) by reflection
    lead = np.where(flip, [reflected, 1.0 / g], [1.0 / g, reflected])
    j, dj = _j_series(np.stack([nu, -nu]), r, lead)
    h1, dh1 = ((zm - em * zp) / (1j * s) for zp, zm in (j, dj))
    h2, dh2 = ((ep * zp - zm) / (1j * s) for zp, zm in (j, dj))
    return np.array([j[0], h1, h2, dj[0], dh1, dh2])


def _from_ring(ring: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """(J, H1, H2, dJ, dH1, dH2) at orders nu inside the ring around an
    integer n, shape (6, len(nu), len(r)), from ring = the six rows at
    |n| + _RING, shape (6, len(nu), _RING_NODES, len(r))."""
    n = np.round(nu.real)
    m, neg = np.abs(n), n < 0
    e = np.where(neg, -nu, nu) - m             # mu = m + e; nu = -mu where neg
    wts = _RING / (e[:, None] - _RING)         # barycentric, roots of unity
    j, h1, h2, dj, dh1, dh2 = np.einsum(
        "ik,sikr->sir", wts / wts.sum(axis=1, keepdims=True), ring)
    # H1_{-mu} = e^{i pi mu} H1_mu, H2_{-mu} = e^{-i pi mu} H2_mu and
    # J_{-mu} = cos(pi mu) J_mu - sin(pi mu) Y_mu, pi mu reduced by m so that
    # sin vanishes exactly at the integer; t = 0 leaves mu = nu as it is
    t = np.where(neg, math.pi * e, 0.0)[:, None]
    sign = np.where(neg & (m % 2.0 == 1.0), -1.0, 1.0)[:, None]
    c, s = sign * np.cos(t), sign * np.sin(t)
    ep, em = sign * np.exp(1j * t), sign * np.exp(-1j * t)
    j, dj = c * j - s * (h1 - h2) / 2j, c * dj - s * (dh1 - dh2) / 2j
    h1, h2, dh1, dh2 = ep * h1, em * h2, ep * dh1, em * dh2
    # the nodes pair off by conjugation but sum in different orders:
    # a real order keeps real J and Y exactly, H2 = conj H1
    real = (nu.imag == 0.0)[:, None]
    return np.array([np.where(real, j.real, j), h1, np.where(real, h1.conj(), h2),
                     np.where(real, dj.real, dj), dh1, np.where(real, dh1.conj(), dh2)])


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


def _hankel_arrays(nu, r: np.ndarray):
    """(J, Y, H1, H2, dJ, dH1, dH2) for one order or a 1-D array of orders
    over a 1-D array of radii, each of shape np.shape(nu) + r.shape."""
    nu = np.asarray(nu, dtype=complex)
    flat = nu.reshape(-1)
    n = np.round(flat.real)
    near = np.abs(flat - n) < _RING_RADIUS
    centres, ring_of = np.unique(np.abs(n[near]), return_inverse=True)
    rings = (centres[:, None] + _RING).ravel()         # one ring per |n|
    pair = _hankel_pair(np.concatenate([flat[~near], rings]), r)
    out = np.empty((6, flat.size, r.size), dtype=complex)
    cut = flat.size - ring_of.size
    out[:, ~near] = pair[:, :cut]
    if ring_of.size:
        ring = pair[:, cut:].reshape(6, centres.size, _RING_NODES, r.size)[:, ring_of]
        out[:, near] = _from_ring(ring, flat[near])
    j, h1, h2, dj, dh1, dh2 = out.reshape((6,) + nu.shape + r.shape)
    return j, (h1 - h2) / 2j, h1, h2, dj, dh1, dh2


def bessel_h(nu: complex, r: float) -> BesselValue:
    """J, Y, H1, H2 and their r-derivatives at a point (method: module docstring)."""
    nu = _check_order(nu)
    rr = _check_radius(np.array([float(r)]))
    return BesselValue(*(complex(v[0]) for v in _hankel_arrays(nu, rr)))
