import numpy as np
import pytest

from camscat import verification as vf

import reference as ref
from reference import DivisionByNearZero

def mp_kernel_N(r, s, nu_R):
    # full-precision oracle: the two product forms of N cancel by up to
    # e^{pi |Im nu_R|} against each other, so every intermediate stays mp
    import mpmath as mp
    nu = mp.mpc(nu_R)
    u = lambda t: mp.sqrt(mp.pi * t / 2) * mp.besselj(nu, t)
    v = lambda t: -1j * mp.sqrt(mp.pi * t / 2) * mp.hankel1(nu, t)
    r, s = mp.mpf(r), mp.mpf(s)
    return complex(u(r) * v(s) - u(s) * v(r))


class TestClosedForms:
    def test_diagonal_zero(self):
        assert ref.kernel_N(0.7, 0.7, 3 + 2j, 0.3) == 0j
        assert ref.kernel_M(0.7, 0.7, 3 + 2j, 0.3) == 0j
        assert ref.kernel_K(0.7, 0.7, 3 + 2j, 0.3) == 0j

    def test_half_order_N(self):
        # nu_R = 1/2: N(r, s) = sin(s - r)
        got = ref.kernel_N(0.5, 1.0, 0.5)
        assert got == pytest.approx(np.sin(0.5), abs=1e-13)

    def test_half_order_M(self):
        got = ref.kernel_M(0.5, 1.0, 0.5)
        assert got == pytest.approx(np.sqrt(0.5) * np.sin(0.5), abs=1e-13)

    def test_half_order_K(self):
        got = ref.kernel_K(0.5, 1.0, 0.5)
        assert got == pytest.approx(np.exp(0.5j) * np.sin(0.5), abs=1e-13)

    @pytest.mark.parametrize("nu_R", [3 + 3j, 0.5 + 28j, 20 - 20j, 7.3])
    def test_against_highprec_oracle(self, nu_R):
        got = ref.kernel_N(0.7, 1.3, nu_R)
        want = mp_kernel_N(0.7, 1.3, nu_R)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


class TestAsymptotics:
    def test_N_large_real_order(self):
        # N ~ (1/2)(sqrt(rs)/nu_R)(s/r)^{nu_R}
        nu_R, r, s = 30.0, 0.6, 0.9
        ratio = ref.kernel_N(r, s, nu_R) * 2 * nu_R / (np.sqrt(r * s) * (s / r) ** nu_R)
        assert abs(ratio - 1) <= 0.1

    def test_K_large_real_order(self):
        nu_R, r, s = 30.0, 0.6, 0.9
        ratio = ref.kernel_K(r, s, nu_R) * (2 * nu_R + 1) / s
        assert abs(ratio - 1) <= 0.15

    def test_M_bounded_in_order(self):
        # |M| (|nu_R|+1) stays in a narrow band as the order grows
        grid = np.linspace(0.5, 2.0, 9)
        sups = []
        for nu_R in (5.0, 10.0, 20.0, 40.0):
            worst = 0.0
            for i, r in enumerate(grid):
                for s in grid[i + 1:]:
                    worst = max(worst, abs(ref.kernel_M(r, s, nu_R)) * (nu_R + 1))
            sups.append(worst)
        assert all(s <= 1.5 for s in sups)
        # flat beyond nu_R = 10: no growth past a few percent
        assert sups[-1] <= 1.05 * sups[1]

    def test_imaginary_axis_decay(self):
        # |N(r, s, iy)| <= C/|y| along the imaginary axis
        vals = [abs(ref.kernel_N(0.6, 0.9, 1j * y)) * y for y in range(5, 45, 5)]
        assert max(vals) <= 2.0


class TestStructure:
    def test_antisymmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            r, s = sorted(rng.uniform(0.5, 2.0, 2))
            if r == s:
                continue
            nu = complex(rng.uniform(0, 10), rng.uniform(-5, 5))
            a = ref.kernel_N(r, s, nu, 0.1)
            b = ref.kernel_N(s, r, nu, 0.1)
            assert abs(a + b) <= 1e-12 * max(1.0, abs(a))

    def test_satisfies_free_equation(self):
        # r -> N(r, s) solves -w'' + ((nu^2 - 1/4)/r^2) w = w
        nu, s0, h = 3.3, 1.4, 1e-4
        for r in (0.8, 1.1):
            f = lambda x: ref.kernel_N(x, s0, nu)
            w2 = (f(r + h) - 2 * f(r) + f(r - h)) / h**2
            resid = -w2 + ((nu**2 - 0.25) / r**2) * f(r) - f(r)
            assert abs(resid) <= 1e-4 * max(1.0, abs(f(r)))

    def test_reproducing_jump(self):
        # dN/dr at r = s equals -1
        h = 1e-6
        for nu in (0.5, 4.0, 2 + 1j):
            for s0 in (0.8, 1.5):
                d = (ref.kernel_N(s0 + h, s0, nu) - ref.kernel_N(s0 - h, s0, nu)) / (2 * h)
                assert abs(d + 1.0) <= 1e-6

    def test_free_regular_solution_proportionality(self):
        # Phi0(r, nu) = c * N(r, r0, nu) with one constant for all (r, nu);
        # measured c = 2 under these conventions (from Phi0'(r0) = -2 and
        # dN/dr|_{r=s} = -1)
        r0 = 0.5
        consts = []
        for nu in (0.7, 2.3, 1 + 1j):
            for r in (0.8, 1.2, 1.9):
                fp, _ = ref.free_jost("plus", nu, np.array([r0, r]), 0.0)
                fm, _ = ref.free_jost("minus", nu, np.array([r0, r]), 0.0)
                phi0 = 1j * (fm[0] * fp[1] - fp[0] * fm[1])
                n = ref.kernel_N(r, r0, nu)
                consts.append(phi0 / n)
        consts = np.asarray(consts)
        assert np.max(np.abs(consts - 2.0)) <= 1e-9

    def test_K_denominator_guard(self):
        # manufactured: H1 never vanishes for real order, so inject a huge
        # imaginary order where H1 underflows toward zero is not reachable
        # within NU_MAX; instead check the guard path directly
        with pytest.raises(DivisionByNearZero):
            ref._DENOM_FLOOR_BACKUP = ref._DENOM_FLOOR
            try:
                ref._DENOM_FLOOR = 1e300
                ref.kernel_K(0.6, 0.9, 3.0)
            finally:
                ref._DENOM_FLOOR = ref._DENOM_FLOOR_BACKUP


class TestBoundReports:
    def test_full_ray_scan_stable(self):
        rep = vf.verify_kernel_bounds(0.5, 2.0, vf.default_nu_rays(0.0), 0.0, 33)
        assert rep.drift <= 2.0
        assert np.isfinite(rep.c_emp)
        assert rep.c_emp <= 10.0

    def test_imaginary_axis_scan(self):
        rep = vf.verify_kernel_bounds(0.5, 2.0, [1j * y for y in range(5, 41, 5)],
                                      0.0, 33)
        assert rep.drift <= 2.0

    def test_real_axis_scan(self):
        rep = vf.verify_kernel_bounds(0.5, 2.0, [float(k) for k in range(1, 41)],
                                      0.0, 33)
        assert rep.drift <= 2.0

    def test_zero_field_half_order_value(self):
        # closed form: weighted |N| = |sin(s-r)| (3/2) (r/s)^{1/2}
        rep = vf.verify_kernel_bounds(0.5, 1.0, [0.5], 0.0, n_grid=2)
        want = abs(np.sin(0.5)) * 1.5 * np.sqrt(0.5)
        assert rep.c_emp == pytest.approx(want, rel=1e-12)

    def test_halfplane_precondition(self):
        with pytest.raises(ValueError):
            vf.verify_kernel_bounds(0.5, 2.0, [-1.0], 0.0)

    def test_one_n_matrix_per_order(self, monkeypatch):
        calls = []
        n_outer = vf._n_outer
        monkeypatch.setattr(vf, "_n_outer",
                            lambda nu_R, r: calls.append(nu_R) or n_outer(nu_R, r))
        nus = [1.0, 7.0, 3 + 3j]
        vf.verify_kernel_bounds(0.5, 2.0, nus, 0.0, 17)
        assert calls == nus

    @pytest.mark.parametrize("n_grid", [17, 33])
    def test_half_constant_is_the_every_other_node_scan(self, n_grid):
        # independent scan on grid[::2], strictly r < s, as a separate N matrix
        flux = 0.3
        nus = [flux + 1.0, flux + 12.0, flux + 20j, flux + 5 - 5j]
        half = np.linspace(0.5, 2.0, n_grid)[::2]
        logr = np.log(half)
        want = 0.0
        for nu in nus:
            nu_R = nu - flux
            w = np.exp(nu_R.real * (logr[:, None] - logr[None, :]))
            q = np.abs(vf._n_outer(nu_R, half)) * w * (abs(nu_R) + 1.0)
            want = max(want, float(np.max(q[np.triu_indices(half.size, k=1)])))
        rep = vf.verify_kernel_bounds(0.5, 2.0, nus, flux, n_grid)
        assert rep.c_emp_alt == want
        assert rep.c_emp >= rep.c_emp_alt

    def test_two_node_grid_has_one_constant(self):
        rep = vf.verify_kernel_bounds(0.5, 1.0, [0.5, 3.0], 0.0, n_grid=2)
        assert rep.c_emp_alt == rep.c_emp
        assert rep.drift == 1.0

    def test_drift_of_unusable_constants_is_inf(self):
        assert vf.BoundReport(1.0, 3.0).drift == 3.0
        assert vf.BoundReport(3.0, 1.0).drift == 3.0
        for c in (0.0, np.inf, np.nan):
            rep = vf.BoundReport(1.0, c)
            assert rep.drift == np.inf
