"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own evaluation paths:
the extended-precision series run in mpmath arithmetic, and the
two-region matching oracle is closed-form linear algebra on free
solutions of the shifted-wavenumber interior equation.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def mp_bessel_j(nu, r, kmax=1000):
    """J_nu(r) summed to kmax terms in 50-digit arithmetic."""
    nu = mp.mpc(nu)
    if nu.imag == 0 and nu.real == int(nu.real) and nu.real < 0:
        n = int(-nu.real)
        return (-1) ** n * mp_bessel_j(n, r, kmax)
    r = mp.mpf(r)
    x = r / 2
    term = mp.power(x, nu) / mp.gamma(nu + 1)
    total = term
    for k in range(1, kmax + 1):
        term = term * (-(x * x)) / (k * (nu + k))
        total += term
        if abs(term) < mp.mpf("1e-60") * abs(total):
            break
    return complex(total)


def mp_bessel_h1(nu, r, kmax=1000):
    """H1_nu(r) for non-integer nu from the J_{+-nu} combination, 50 digits."""
    nu_m = mp.mpc(nu)
    jp = mp.mpc(mp_bessel_j(nu, r, kmax))
    jm = mp.mpc(mp_bessel_j(-nu_m, r, kmax))
    s = mp.sin(mp.pi * nu_m)
    return complex((jm - mp.exp(-1j * mp.pi * nu_m) * jp) / (1j * s))


def mp_bessel_y_int(n, r, kmax=1000):
    """Y_n(r) at integer order by the logarithmic limiting series, 50 digits."""
    n = int(n)
    r = mp.mpf(r)
    x = r / 2
    jn = mp.mpc(mp_bessel_j(n, r, kmax))
    out = (2 / mp.pi) * mp.log(x) * jn
    if n > 0:
        f = mp.factorial(n - 1) * mp.power(x, -n)
        acc = f
        for k in range(1, n):
            f = f * (x * x) / (k * (n - k))
            acc += f
        out -= acc / mp.pi
    psi_a = -mp.euler
    psi_b = -mp.euler + mp.fsum([mp.mpf(1) / m for m in range(1, n + 1)])
    p = mp.power(x, n) / mp.factorial(n)
    term = (psi_a + psi_b) * p
    tot = term
    for k in range(1, kmax + 1):
        p = -p * (x * x) / (k * (n + k))
        psi_a += mp.mpf(1) / k
        psi_b += mp.mpf(1) / (n + k)
        term = (psi_a + psi_b) * p
        tot += term
        if abs(term) < mp.mpf("1e-60") * max(abs(tot), mp.mpf("1e-50")):
            break
    return complex(out - tot / mp.pi)


# ---------------------------------------------------------------------------
# analytic two-region matching oracle for the step potential
# ---------------------------------------------------------------------------

def _hankel_pair_mp(nu, z):
    nu = mp.mpc(nu)
    h1 = mp.hankel1(nu, z)
    h2 = mp.hankel2(nu, z)
    dh1 = mp.diff(lambda t: mp.hankel1(nu, t), z)
    dh2 = mp.diff(lambda t: mp.hankel2(nu, t), z)
    return h1, h2, dh1, dh2


def step_oracle(nu, v0, r0, R):
    """alpha, beta, sigma for V = v0 on [r0, R), b = 0, by wave matching.

    Interior solutions of -u'' + ((nu^2 - 1/4)/r^2) u = (1 - v0) u are
    w+-(r) = sqrt(pi k r / 2) H^{(1,2)}_nu(k r) with k = sqrt(1 - v0); the
    exterior Jost solution is the free closed form.  Matching value and
    derivative at R is a 2x2 solve with Wronskian W(w+, w-) = -2ik, after
    which alpha = i F-(r0), beta = -i F+(r0).  The whole chain runs in
    50-digit arithmetic: the H^{(1,2)} interior basis is nearly parallel
    at large order, and double precision would lose ~|Y/J| digits in the
    reconstruction at r0.
    """
    k = mp.sqrt(1 - mp.mpf(v0))
    r0 = mp.mpf(r0)
    R = mp.mpf(R)

    def w_pair(r):
        h1, h2, dh1, dh2 = _hankel_pair_mp(nu, k * r)
        root = mp.sqrt(mp.pi * k * r / 2)
        wp = root * h1
        wm = root * h2
        dwp = root * k * dh1 + wp / (2 * r)
        dwm = root * k * dh2 + wm / (2 * r)
        return wp, wm, dwp, dwm

    def free(sign, r):
        h1, h2, dh1, dh2 = _hankel_pair_mp(nu, r)
        root = mp.sqrt(mp.pi * r / 2)
        phase = mp.exp(sign * 1j * (mp.mpc(nu) + mp.mpf(1) / 2) * mp.pi / 2)
        h, dh = (h1, dh1) if sign > 0 else (h2, dh2)
        f = phase * root * h
        df = phase * (root * dh + root / (2 * r) * h)
        return f, df

    wpR, wmR, dwpR, dwmR = w_pair(R)
    wp0, wm0, _, _ = w_pair(r0)

    def interior_value(sign):
        fR, dfR = free(sign, R)
        a = (fR * dwmR - dfR * wmR) / (-2j * k)
        b = -(fR * dwpR - dfR * wpR) / (-2j * k)
        return a * wp0 + b * wm0

    alpha = 1j * interior_value(-1)
    beta = -1j * interior_value(+1)
    sigma = mp.exp(1j * mp.pi * (mp.mpc(nu) + mp.mpf(1) / 2)) * alpha / beta
    return complex(alpha), complex(beta), complex(sigma)


def trapezoid_gauge(b_profile, r, n=1_000_001):
    """gamma(r) by brute-force trapezoid on [0, r]."""
    tau = np.linspace(0.0, r, n)
    return float(np.trapezoid(tau * b_profile(tau), tau))


# ---------------------------------------------------------------------------
# Taylor-series ODE oracle for the Jost solutions
# ---------------------------------------------------------------------------

def _mp_pieces(profile, r_mid):
    """The analytic pieces of a step, poly_spline or zero profile p that
    hold at r_mid: p(r) and its moment int_0^r tau p(tau) dtau in closed
    form (gamma(r) when p is the field), plus the moment's final value."""
    zero = lambda r: mp.mpf(0)
    if profile.kind == "zero":
        return zero, zero, mp.mpf(0)
    a, b = (mp.mpf(x) for x in profile.support)
    w = b - a
    coeffs = [mp.mpf(c) for c in profile.params]
    assert profile.kind in ("step", "poly_spline"), profile.kind
    if profile.kind == "step":
        coeffs = coeffs[:1]

    def moment(r):
        # (b - a) int_0^t (a + (b - a) s) p(s) ds with t = (r - a)/(b - a)
        t = (r - a) / w
        return w * mp.fsum(c * (a * t ** (i + 1) / (i + 1) + w * t ** (i + 2) / (i + 2))
                           for i, c in enumerate(coeffs))

    total = moment(b)
    if r_mid < a:
        return zero, zero, total
    if r_mid >= b:
        return zero, (lambda r: total), total
    return (lambda r: mp.polyval(coeffs[::-1], (r - a) / w)), moment, total


def mp_jost_at_r0(medium, sign, nu, dps=30):
    """F+-(r0) and F+-'(r0) from mpmath's Taylor-series ODE solver.

    Shares no evaluation path with the package: the gauge of a step,
    poly_spline or zero field is integrated here in closed form, the free
    data at R come from mpmath's Hankel functions, and

        u'' = ((nu_R^2 - 1/4)/r^2 + q_nu(r) - 1) u,   nu_R = nu - gamma(R),

    is carried from R down to r0 in s = -r, because mpmath's odefun only
    steps forward.  The solve restarts at every support end, and each
    panel uses the analytic pieces of V and b that hold inside it.
    """
    with mp.workdps(dps):
        r0, R = mp.mpf(medium.r0), mp.mpf(medium.R)
        nu = mp.mpc(nu)
        flux = _mp_pieces(medium.b, R)[2]
        nu_R = nu - flux
        cent = nu_R ** 2 - mp.mpf(1) / 4
        hankel = mp.hankel1 if sign == "plus" else mp.hankel2
        phase = mp.exp((1 if sign == "plus" else -1) * 1j * (nu_R + 0.5) * mp.pi / 2)
        root = mp.sqrt(mp.pi * R / 2)
        h = hankel(nu_R, R)
        dh = (hankel(nu_R - 1, R) - hankel(nu_R + 1, R)) / 2
        u = phase * root * h
        du = phase * (root * dh + root / (2 * R) * h)

        cuts = sorted({mp.mpf(x) for prof in (medium.V, medium.b)
                       if prof.kind != "zero" for x in prof.support
                       if medium.r0 < x < medium.R}, reverse=True)
        for hi, lo in zip([R] + cuts, cuts + [r0]):
            mid = (hi + lo) / 2
            V = _mp_pieces(medium.V, mid)[0]
            gamma = _mp_pieces(medium.b, mid)[1]

            def rhs(s, y, V=V, gamma=gamma):
                r = -s
                g = gamma(r)
                q = (-2 * nu * (g - flux) + g * g - flux * flux) / (r * r) + V(r)
                return [y[1], (cent / (r * r) + q - 1) * y[0]]

            u, dus = mp.odefun(rhs, -hi, [u, -du])(-lo)
            du = -dus
        return complex(u), complex(du)
