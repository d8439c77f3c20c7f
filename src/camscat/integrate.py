"""Fourth-order Magnus integration of u'' = c(r) u in t = ln r, batched over orders.

The radial equation at fixed unit energy is a second-order linear ODE
whose coefficient c(r) = (nu_R^2 - 1/4)/r^2 + q_nu(r) - 1 depends on the
complex order nu.  The Langer substitution u = r^{1/2} w, t = ln r turns
it into

    w_tt = C(t) w,    C = r^2 c(r) + 1/4 = nu_R^2 + r^2 (q_nu(r) - 1),

where the centrifugal term is the constant nu_R^2.  The step a given
accuracy needs therefore does not shrink with |nu|, and the cost of a
small obstacle grows only with ln(R/r0).

One step of length h takes C at the two Gauss nodes t + h(1/2 -+ sqrt(3)/6)
and multiplies (w, w_t) by exp(Omega), Omega = [[a, h], [c, -a]] with
a = (sqrt(3)/12) h^2 (C1 - C2) and c = (h/2)(C1 + C2).  Omega is traceless,
so exp(Omega) = cosh(d) I + (sinh(d)/d) Omega with d^2 = a^2 + h c, all
elementwise over the batch.  Every step has determinant 1, so Wronskians
are conserved to rounding.

Steps are uniform in t on each panel between ln r_start, the logarithms of
the breakpoints of c and ln r_end, and every requested output radius is a
step end, so sampled values carry no interpolation error.  Error control
is global: the stepper sweeps the span, then sweeps it again with every
step halved, and keeps halving until the Richardson estimate
|y_n - y_2n| / 15 is at most rtol relative to |w| + |w_t| at every output
point and for every order (w and w_t of a nontrivial solution never
vanish together).  The finer sweep is returned.  The whole batch shares
the steps, so results are deterministic for a fixed batch composition.
Integration direction follows the sign of (r_end - r_start); backward runs
carry scattering data from the support radius R down to the obstacle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationError

_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_COMMUTATOR = math.sqrt(3.0) / 12.0
_FIRST_STEPS = 32      # steps of the first sweep, shared out over the panels
_MAX_DOUBLINGS = 12    # halvings after the first sweep before giving up
_CHUNK = 128           # steps whose matrices are built at once (bounds memory)


def solve_oscillator(c_fn, r_start: float, r_end: float,
                     u0: np.ndarray, du0: np.ndarray, r_out, rtol: float,
                     breaks):
    """Integrate u'' = c(r) u from r_start to r_end for a batch of orders.

    c_fn(r) takes a 1-D array of radii and returns the complex coefficient
    array of shape (len(r), batch).  u0, du0 are the batch initial values.
    Values are recorded at every radius in r_out (which must be ordered in
    the integration direction and lie inside the span; r_start itself may
    be included).  breaks are radii where c may jump; panels end there.
    Returns (U, DU) of shape (len(r_out), batch).  Raises ValueError
    unless rtol is finite and positive, and IntegrationError when
    _MAX_DOUBLINGS halvings do not meet it.
    """
    if not (math.isfinite(rtol) and rtol > 0.0):
        raise ValueError(f"rtol must be finite and positive, got {rtol!r}")
    u0 = np.atleast_1d(np.asarray(u0, dtype=complex))
    du0 = np.atleast_1d(np.asarray(du0, dtype=complex))
    r_out = np.asarray(r_out, dtype=float)
    if r_start == r_end:
        if np.any(r_out != r_start):
            raise IntegrationError("zero span with pending output points")
        return np.tile(u0, (r_out.size, 1)), np.tile(du0, (r_out.size, 1))

    knots, out = _first_knots(r_start, r_end, breaks, r_out)
    root = math.sqrt(r_start)
    y0 = np.stack([u0 / root, root * du0 - 0.5 * u0 / root], axis=1)[..., None]
    coarse = _sweep(c_fn, knots, y0, out)
    for _ in range(_MAX_DOUBLINGS):
        fine_knots = np.empty(2 * knots.size - 1)
        fine_knots[::2] = knots
        fine_knots[1::2] = 0.5 * (knots[:-1] + knots[1:])
        knots, out = fine_knots, 2 * out
        fine = _sweep(c_fn, knots, y0, out)
        # the difference overwrites the coarse sweep, which is then released
        err = np.abs(np.subtract(fine, coarse, out=coarse)).sum(axis=-1)
        err /= np.abs(fine).sum(axis=-1)
        coarse = fine
        if np.max(err) / 15.0 <= rtol:     # a NaN compares False
            break
    else:
        raise IntegrationError(
            f"no convergence to rtol {rtol:g} with {knots.size - 1} steps")

    root = np.sqrt(r_out)[:, None]
    w, wt = fine[..., 0], fine[..., 1]
    wt += 0.5 * w
    return np.multiply(root, w, out=w), np.divide(wt, root, out=wt)


def _first_knots(r_start, r_end, breaks, r_out):
    """Step ends of the first sweep in integration order, and the knot
    index of every output radius.

    _FIRST_STEPS uniform steps in t are shared out over the panels in
    proportion to their length; the output radii join them as extra knots.
    """
    r_lo, r_hi = sorted((r_start, r_end))
    lo, hi = math.log(r_lo), math.log(r_hi)
    edges = sorted({lo, hi} | {math.log(b) for b in breaks if r_lo < b < r_hi})
    t_out = np.log(r_out)
    pieces = [t_out]
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(1, math.ceil(_FIRST_STEPS * (b - a) / (hi - lo)))
        pieces.append(np.linspace(a, b, n + 1))
    knots = np.sort(np.concatenate(pieces))
    # drop repeats by hand: np.unique would import numpy.ma (about 1 MB)
    knots = knots[np.append(True, np.diff(knots) > 0.0)]
    out = np.searchsorted(knots, t_out)
    if r_end < r_start:
        knots, out = knots[::-1], knots.size - 1 - out
    return knots, out


def _sweep(c_fn, knots, y0, out):
    """(w, w_t) at the knots listed in out, shape (len(out), batch, 2),
    after stepping from y0 (batch, 2, 1) through every knot."""
    Y = np.empty((out.size,) + y0.shape[:2], dtype=complex)
    y = y0
    n_rec = np.searchsorted(out, 0, side="right")
    Y[:n_rec] = y[..., 0]
    for lo in range(0, knots.size - 1, _CHUNK):
        k = knots[lo:lo + _CHUNK + 1]
        for j, M in enumerate(_step_matrices(c_fn, k), start=lo + 1):
            y = M @ y
            while n_rec < out.size and out[n_rec] == j:
                Y[n_rec] = y[..., 0]
                n_rec += 1
    return Y


def _step_matrices(c_fn, knots):
    """exp(Omega) of every step between consecutive knots, as a list of
    (batch, 2, 2) arrays; one c_fn call covers all Gauss nodes."""
    h = np.diff(knots)
    t = knots[:-1, None] + h[:, None] * _NODES
    r = np.exp(t.T.ravel())
    C = (r * r)[:, None] * c_fn(r) + 0.25
    C1, C2 = C[:h.size], C[h.size:]
    h = h[:, None]
    a = _COMMUTATOR * h * h * (C1 - C2)
    c = 0.5 * h * (C1 + C2)
    d = np.sqrt(a * a + h * c, dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinhc = np.sinh(d) / d
    sinhc[d == 0.0] = 1.0
    cosh = np.cosh(d)
    M = np.empty(C1.shape + (2, 2), dtype=complex)
    M[..., 0, 0] = cosh + sinhc * a
    M[..., 0, 1] = sinhc * h
    M[..., 1, 0] = sinhc * c
    M[..., 1, 1] = cosh - sinhc * a
    return list(M)
