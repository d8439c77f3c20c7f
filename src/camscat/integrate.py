"""Adaptive Dormand-Prince 5(4) integration of u'' = c(r) u, batched over orders.

The radial equation at fixed unit energy is a second-order linear ODE
whose coefficient c(r) = (nu_R^2 - 1/4)/r^2 + q_nu(r) - 1 depends on the
complex order nu.  Solves for many nu share the same r-dependence, so the
stepper advances the whole batch with a common adaptive step; the error
norm is the worst member, which keeps every member inside the local
tolerance.  Shared steps also make results deterministic for a fixed
batch composition, so identical runs give bit-identical results.

Steps are clamped to land exactly on requested output radii, so sampled
values carry no interpolation error.  Integration direction follows the
sign of (r_end - r_start); backward runs are used to impose scattering
data at the support radius R and carry them down to the obstacle.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationError

# Dormand-Prince 5(4) tableau (FSAL)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = _B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                     -92097 / 339200, 187 / 2100, 1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 2_000_000


def solve_oscillator(c_fn, r_start: float, r_end: float,
                     u0: np.ndarray, du0: np.ndarray,
                     r_out=None, rtol: float = 1e-12):
    """Integrate u'' = c(r) u from r_start to r_end for a batch of orders.

    c_fn(r) must return the complex coefficient array for the batch at a
    scalar radius.  u0, du0 are the batch initial values.  Values are
    recorded at every radius in r_out (which must be ordered in the
    integration direction and lie inside the span; r_start itself may be
    included).  Returns (U, DU) of shape (len(r_out), batch).
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=complex))
    du0 = np.atleast_1d(np.asarray(du0, dtype=complex))
    nb = u0.shape[0]
    if r_out is None:
        r_out = [r_end]
    r_out = np.asarray(r_out, dtype=float)
    direction = 1.0 if r_end >= r_start else -1.0
    span = abs(r_end - r_start)

    U = np.empty((len(r_out), nb), dtype=complex)
    DU = np.empty_like(U)
    i_out = 0
    while i_out < len(r_out) and r_out[i_out] == r_start:
        U[i_out], DU[i_out] = u0, du0
        i_out += 1
    if i_out == len(r_out):
        return U, DU
    if span == 0.0:
        raise IntegrationError("zero span with pending output points")

    def rhs(r, y):
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = c_fn(r) * y[0]
        return out

    y = np.vstack([u0, du0])
    r = r_start
    k = np.empty((7, 2, nb), dtype=complex)
    k[0] = rhs(r, y)
    h_abs = span / 256.0

    steps = 0
    while i_out < len(r_out):
        if steps >= _MAX_STEPS:
            raise IntegrationError("step budget exhausted")
        steps += 1
        target = r_out[i_out]
        clamped = h_abs >= abs(target - r)
        h = direction * min(h_abs, abs(target - r))
        if abs(h) < 1e-14 * max(1.0, abs(r)):
            raise IntegrationError(f"step underflow near r = {r:.6g}")

        for s in range(1, 7):
            acc = np.tensordot(_A[s], k[:s], axes=(0, 0))
            k[s] = rhs(r + _C[s] * h, y + h * acc)
        y_new = y + h * np.tensordot(_B5, k, axes=(0, 0))

        err = h * np.tensordot(_E, k, axes=(0, 0))
        scale = rtol * np.maximum(np.abs(y), np.abs(y_new))
        scale = np.maximum(scale, 1e-300)
        enorm = float(np.max(np.abs(err) / scale))
        if enorm > 1.0:
            h_abs = abs(h) * max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)
            continue
        factor = _MAX_FACTOR if enorm == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm ** -0.2))
        if not clamped:
            h_abs = abs(h) * factor
        elif factor > 1.0:
            h_abs = max(h_abs, abs(h) * factor)

        r = target if clamped else r + h
        y = y_new
        k[0] = k[6]        # FSAL: last stage of the accepted step
        while i_out < len(r_out) and r_out[i_out] == r:
            U[i_out], DU[i_out] = y[0], y[1]
            i_out += 1

    return U, DU
