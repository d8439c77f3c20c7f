import cmath
import math

import numpy as np
import pytest

from camscat import specfun as sf
from camscat.errors import ConvergenceError, DomainError, PoleError

from oracles import mp_bessel_h1, mp_bessel_j, mp_bessel_y_int

# frozen values from the 50-digit series oracle (oracles.py)
J_3P2J_AT_2 = complex(-0.18833458996957380707, -0.13907700709427485646)
J0_AT_1 = 0.76519768655796655145
Y0_AT_1 = 0.088256964215676957983


class TestGamma:
    def test_one(self):
        assert sf.gamma_complex(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_half(self):
        assert sf.gamma_complex(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("y", [1.0, 2.0, 5.0])
    def test_imaginary_axis_modulus(self, y):
        # |Gamma(iy)|^2 = pi / (y sinh(pi y))
        g = sf.gamma_complex(1j * y)
        assert abs(g) ** 2 == pytest.approx(math.pi / (y * math.sinh(math.pi * y)),
                                            rel=1e-12)

    def test_pole(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                sf.gamma_complex(z)

    def test_reflection_region(self):
        import mpmath as mp
        z = complex(-4.5, 1.0)
        want = complex(mp.gamma(mp.mpc(-4.5, 1.0)))
        assert sf.gamma_complex(z) == pytest.approx(want, rel=1e-12)


class TestBesselJ:
    def test_j0_origin_limit(self):
        assert sf.bessel_h(0.0, 1e-8).J == pytest.approx(1.0, abs=1e-12)

    def test_half_order_closed_form(self):
        want = math.sqrt(2.0 / math.pi) * math.sin(1.0)
        assert sf.bessel_h(0.5, 1.0).J == pytest.approx(want, rel=1e-13)

    def test_complex_order_frozen_oracle(self):
        assert sf.bessel_h(3 + 2j, 2.0).J == pytest.approx(J_3P2J_AT_2, abs=1e-10)

    @pytest.mark.parametrize("nu,r", [
        (-39.7, 1.0), (39.7, 0.5), (40j, 1.0), (-3.0, 2.0), (12.25, 3.0),
    ])
    def test_against_series_oracle(self, nu, r):
        want = mp_bessel_j(nu, r)
        got = sf.bessel_h(nu, r).J
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sf.bessel_h(61.0, 1.0)
        with pytest.raises(DomainError):
            sf.bessel_h(1.0, 25.0)
        with pytest.raises(DomainError):
            sf.bessel_h(1.0, 0.0)

    def test_leading_term_overflow_names_order_and_radius(self):
        # J_{-59.5}(1e-8) starts at (5e-9)^-59.5: no double holds it
        with pytest.raises(DomainError, match=r"order -59\.5.*radius 1e-08"):
            sf.bessel_h(59.5, 1e-8)
        assert all(np.isfinite(complex(v)) for v in vars(sf.bessel_h(30.0, 1e-8)).values())

    def test_truncation_budget(self):
        # artificially tiny budget must trip the convergence guard
        old = sf.K_MAX
        sf.K_MAX = 3
        try:
            with pytest.raises(ConvergenceError):
                sf.bessel_h(0.0, 10.0)
        finally:
            sf.K_MAX = old


class TestBesselH:
    def test_half_order_closed_form(self):
        r0 = 0.7
        want = -1j * math.sqrt(2.0 / (math.pi * r0)) * np.exp(1j * r0)
        assert sf.bessel_h(0.5, r0).H1 == pytest.approx(want, rel=1e-13)

    def test_reflection_identity(self):
        # H1_{-nu} = e^{i pi nu} H1_nu
        nu, r = 0.7 + 0.3j, 1.5
        a = sf.bessel_h(-nu, r).H1
        b = np.exp(1j * np.pi * nu) * sf.bessel_h(nu, r).H1
        assert abs(a - b) <= 1e-10 * abs(b)

    def test_order_zero_frozen_oracle(self):
        bv = sf.bessel_h(0.0, 1.0)
        assert bv.H1.real == pytest.approx(J0_AT_1, abs=1e-10)
        assert bv.H1.imag == pytest.approx(Y0_AT_1, abs=1e-10)

    @pytest.mark.parametrize("nu,r", [
        (5.5, 2.0), (0.25 + 4j, 1.0), (-2.3, 0.6), (17.7, 0.5),
    ])
    def test_h1_against_series_oracle(self, nu, r):
        want = mp_bessel_h1(nu, r)
        got = sf.bessel_h(nu, r).H1
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("n", [0, 1, 4, 13])
    def test_integer_branch_against_y_series_oracle(self, n):
        bv = sf.bessel_h(float(n), 1.3)
        assert bv.Y == pytest.approx(mp_bessel_y_int(n, 1.3), rel=1e-12)

    @pytest.mark.parametrize("nu", [-13, -4, -1, 0, 1, 4, 13, 40,
                                    5.5, 0.25 + 4j, -2.3, 17.7, 3 - 2j])
    def test_derivatives_against_mpmath(self, nu):
        import mpmath as mp
        for r in (0.5, 1.3, 5.0):
            bv = sf.bessel_h(nu, r)
            got = (bv.dJ, (bv.dH1 - bv.dH2) / 2j, bv.dH1, bv.dH2)
            with mp.workdps(30):
                want = [complex(mp.diff(lambda x: f(nu, x), r))
                        for f in (mp.besselj, mp.bessely, mp.hankel1, mp.hankel2)]
            scale = max(abs(bv.dH1), abs(bv.dH2))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * scale

    def test_h1_h2_compose_j_and_y(self):
        for nu in (0.3, 2.0, 1.1 - 0.7j):
            bv = sf.bessel_h(nu, 0.9)
            assert bv.H1 == pytest.approx(bv.J + 1j * bv.Y, rel=1e-12)
            assert bv.H2 == pytest.approx(bv.J - 1j * bv.Y, rel=1e-12)


class TestInvariants:
    def test_hankel_wronskian(self):
        # H1 dH2 - dH1 H2 = -4i/(pi r)
        rng = np.random.default_rng(11)
        for _ in range(60):
            nu = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
            r = float(rng.uniform(0.3, 5.0))
            bv = sf.bessel_h(nu, r)
            w = bv.H1 * bv.dH2 - bv.dH1 * bv.H2 + 4j / (math.pi * r)
            assert abs(w) <= 1e-9 * max(1.0, abs(bv.H1 * bv.dH2))

    @pytest.mark.parametrize("nu,r", [
        (35.7j, 2.0), (-35.7j, 2.0), (40j, 0.5), (5 - 38j, 3.0), (-20 + 30j, 1.0),
    ])
    def test_hankel_wronskian_large_imaginary_order(self, nu, r):
        # the Gamma error of the Lanczos sum near |z| = 35 must cancel
        bv = sf.bessel_h(nu, r)
        w = bv.H1 * bv.dH2 - bv.dH1 * bv.H2 + 4j / (math.pi * r)
        assert abs(w) <= 1e-14 * max(1.0, abs(bv.H1 * bv.dH2))

    def test_conjugation(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            nu = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            r = float(rng.uniform(0.3, 4.0))
            a = sf.bessel_h(nu, r).J
            b = sf.bessel_h(np.conj(nu), r).J
            assert abs(np.conj(a) - b) <= 1e-12 * max(1.0, abs(a))
            assert abs(np.conj(sf.bessel_h(nu, r).H1) - sf.bessel_h(np.conj(nu), r).H2) \
                <= 1e-12 * max(1.0, abs(a))

    def test_h2_reflection(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            nu = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            r = float(rng.uniform(0.4, 3.0))
            a = sf.bessel_h(-nu, r).H2
            b = np.exp(-1j * np.pi * nu) * sf.bessel_h(nu, r).H2
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_derivative_vs_finite_difference(self):
        h = 1e-6
        for nu in (0.0, 2.5, 3 + 1j, -4.2):
            r = 1.2
            bv = sf.bessel_h(nu, r)
            fd = (sf.bessel_h(nu, r + h).J - sf.bessel_h(nu, r - h).J) / (2 * h)
            assert abs(bv.dJ - fd) <= 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("n", [-7, 0, 3, 10, 25, 40, 59])
    def test_near_integer_continuity(self, n):
        # integers, orders inside the ring around them and just outside it
        import mpmath as mp
        ds = [0.0] + [z * s for s in (5e-5, 1.01e-4, 2e-4, 1e-3, 1e-2, 3e-2)
                      for z in (1, -1, 1j, -1j)]
        nus = np.array([n + d for d in ds], dtype=complex)
        for r in (0.5, 2.0, 5.0):
            rows = np.array(sf._hankel_arrays(nus, np.array([r])))[..., 0]
            _, _, h1, h2, _, dh1, dh2 = rows
            for i, nu in enumerate(nus):
                with mp.workdps(40):
                    z = mp.mpc(nu.real, nu.imag)
                    want = [complex(f(z, r)) for f in (mp.hankel1, mp.hankel2)]
                    want += [complex((f(z - 1, r) - f(z + 1, r)) / 2)
                             for f in (mp.hankel1, mp.hankel2)]
                scale = [max(1.0, abs(want[0]), abs(want[1]))] * 2 \
                    + [max(1.0, abs(want[2]), abs(want[3]))] * 2
                for g, w, sc in zip((h1[i], h2[i], dh1[i], dh2[i]), want, scale):
                    assert abs(g - w) <= 1e-13 * sc, (nu, r)

    @pytest.mark.parametrize("n", [-25, -7])
    def test_j_near_negative_integer(self, n):
        # J_{-m+d} ~ sin(pi d) Y_m dwarfs J_{-m}: relative to |J| itself, at
        # the rounded order n + d that the call receives
        import mpmath as mp
        for d in (0.0, 5e-5, -5e-5):
            for r in (0.5, 2.0, 5.0):
                got = sf.bessel_h(n + d, r).J
                with mp.workdps(40):
                    want = complex(mp.besselj(mp.mpf(n + d), r))
                assert abs(got - want) <= 1e-13 * abs(want), (n, d, r)

    @pytest.mark.parametrize("nu", [0, 3, -7, 25, 3 + 1e-3, -7 + 5e-5, 0.5, -2.3])
    def test_real_order_is_real(self, nu):
        for r in (0.5, 2.0):
            bv = sf.bessel_h(nu, r)
            assert bv.J.imag == 0.0 and bv.Y.imag == 0.0
            assert bv.dJ.imag == 0.0 and bv.H2 == bv.H1.conjugate()


class TestOrderArrays:
    # one call over many orders: exact integers of both signs, orders inside
    # the ring around an integer, real non-integers and complex orders
    NUS = np.array([0, 1, 4, 13, 40, -1, -4, -13, 3 + 5e-5, 3 - 5e-5, -7 + 5e-5,
                    40 - 5e-5, 0.5, -2.3, 5.5, 17.7, -39.7, 0.25 + 4j, 3 - 2j,
                    35.7j, -35.7j, 5 - 38j, -20 + 30j], dtype=complex)

    @pytest.mark.parametrize("r", [0.5, 2.0, 5.0])
    def test_mixed_orders_match_one_order_calls_and_mpmath(self, r):
        import mpmath as mp
        rr = np.array([r])
        batch = np.array(sf._hankel_arrays(self.NUS, rr))[..., 0]
        assert batch.shape == (7, self.NUS.size)
        for i, nu in enumerate(self.NUS):
            one = np.array(sf._hankel_arrays(nu, rr))[:, 0]
            assert np.all(np.abs(batch[:, i] - one) <= 1e-14 * np.abs(one))
            with mp.workdps(40):
                z = mp.mpc(nu.real, nu.imag)
                want = [complex(f(z, r)) for f in (mp.besselj, mp.hankel1, mp.hankel2)]
                want += [complex((f(z - 1, r) - f(z + 1, r)) / 2)
                         for f in (mp.hankel1, mp.hankel2)]
            # near an integer J is small beside Y: scale by the Hankel pair
            j, _, h1, h2, _, dh1, dh2 = batch[:, i]
            scale = [max(1.0, abs(want[1]), abs(want[2]))] * 3 \
                + [max(1.0, abs(want[3]), abs(want[4]))] * 2
            for g, w, sc in zip((j, h1, h2, dh1, dh2), want, scale):
                assert abs(g - w) <= 1e-10 * sc


def hankel_asymptotic_large_nu(nu: complex, r: float) -> complex:
    """Leading large-order term -(i/pi) Gamma(nu) (r/2)^(-nu) of H1_nu(r).

    Cross-check reference only; valid in the sector |Arg nu| <= pi/2 - 0.1
    with |nu| >= 5, where the relative error is O(1/nu).
    """
    nu = complex(nu)
    if abs(nu) < 5.0:
        raise DomainError("asymptotic form requires |nu| >= 5")
    if abs(cmath.phase(nu)) > math.pi / 2.0 - 0.1:
        raise DomainError("asymptotic form requires |Arg(nu)| <= pi/2 - 0.1")
    r = float(r)
    if r <= 0.0 or r > sf.R_MAX:
        raise DomainError(f"radius must lie in (0, {sf.R_MAX:g}]")
    return (-1j / math.pi) * sf.gamma_complex(nu) * cmath.exp(-nu * math.log(r / 2.0))


def hankel_imaginary_axis_check(y: float, r: float) -> tuple[float, float]:
    """Moduli of H1_{iy}, H2_{iy} against their imaginary-axis envelopes.

    Returns (|H1_{iy}(r)| / (sqrt(2/(pi |y|)) e^{pi y/2}),
             |H2_{iy}(r)| / (sqrt(2/(pi |y|)) e^{-pi y/2})); both ratios
    tend to 1 as |y| grows.
    """
    y = float(y)
    if abs(y) < 5.0:
        raise DomainError("envelope check requires |y| >= 5")
    bv = sf.bessel_h(1j * y, r)
    base = math.sqrt(2.0 / (math.pi * abs(y)))
    return (
        abs(bv.H1) / (base * math.exp(0.5 * math.pi * y)),
        abs(bv.H2) / (base * math.exp(-0.5 * math.pi * y)),
    )


class TestAsymptotics:
    def test_large_order_ratio(self):
        # leading term -(i/pi) Gamma(nu) (r/2)^{-nu}, O(1/nu) accurate
        r = 1.0
        dev20 = abs(sf.bessel_h(20.0, r).H1 / hankel_asymptotic_large_nu(20.0, r) - 1)
        dev40 = abs(sf.bessel_h(40.0, r).H1 / hankel_asymptotic_large_nu(40.0, r) - 1)
        assert dev20 <= 0.1
        assert dev40 < dev20

    def test_leading_term_algebra(self):
        # ratio of asymptotic values at two radii is (r/r0)^{-nu}
        nu = 30.0
        a = hankel_asymptotic_large_nu(nu, 0.5)
        b = hankel_asymptotic_large_nu(nu, 1.0)
        assert b / a == pytest.approx((2.0 / 1.0) ** nu / (2.0 / 0.5) ** nu, rel=1e-12)

    def test_sector_guard(self):
        with pytest.raises(DomainError):
            hankel_asymptotic_large_nu(3.0, 1.0)       # |nu| too small
        with pytest.raises(DomainError):
            hankel_asymptotic_large_nu(20j, 1.0)       # outside the sector

    def test_imaginary_axis_envelopes(self):
        r1_20, r2_20 = hankel_imaginary_axis_check(20.0, 1.0)
        assert 0.8 <= r1_20 <= 1.25 and 0.8 <= r2_20 <= 1.25
        r1_40, r2_40 = hankel_imaginary_axis_check(40.0, 1.0)
        assert abs(r1_40 - 1) < abs(r1_20 - 1)
        assert abs(r2_40 - 1) < abs(r2_20 - 1)
        for y in range(5, 45, 5):
            a, b = hankel_imaginary_axis_check(float(y), 1.0)
            assert 0.5 <= a <= 2.0 and 0.5 <= b <= 2.0

    def test_imaginary_axis_mirror(self):
        # conjugation symmetry swaps the two envelopes at -y
        a_pos, b_pos = hankel_imaginary_axis_check(20.0, 1.0)
        a_neg, b_neg = hankel_imaginary_axis_check(-20.0, 1.0)
        assert a_neg == pytest.approx(b_pos, rel=1e-10)
        assert b_neg == pytest.approx(a_pos, rel=1e-10)
        with pytest.raises(DomainError):
            hankel_imaginary_axis_check(2.0, 1.0)
