import numpy as np
import pytest

from camscat import fields as fl
from camscat import radial as rd
from camscat import verification as vf
from camscat.errors import DomainError, IntegrationError

import reference as ref
from oracles import mp_jost_at_r0, step_oracle
from reference import NoConvergence


@pytest.fixture(scope="module")
def grid_zero(q_zero):
    return rd.grid_for(q_zero, 1024)


@pytest.fixture(scope="module")
def grid_bs(q_bump_step):
    return rd.grid_for(q_bump_step, 1024)


def scaled_max(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


class TestGrid:
    def test_endpoints_and_monotone(self, grid_bs):
        p = grid_bs.r_points
        assert p[0] == 0.5 and p[-1] == 2.0
        assert np.all(np.diff(p) > 0)

    def test_breakpoints_are_nodes(self, q_bump_step, grid_bs):
        for b in q_bump_step.breakpoints():
            assert b in grid_bs.r_points

    def test_close_breakpoints_both_nodes(self):
        # 1.0 and 1.001 share their nearest node on this grid
        g = rd.make_grid(0.5, 2.0, 256, include=(1.0, 1.001))
        assert 1.0 in g.r_points and 1.001 in g.r_points
        assert g.r_points.size == 256 and np.all(np.diff(g.r_points) > 0)

    def test_degenerate(self):
        g = rd.make_grid(0.5, 0.45)
        assert g.degenerate and g.r_points[0] == 0.5

    @pytest.mark.parametrize("n", [1, 0])
    def test_needs_two_nodes_when_R_exceeds_r0(self, n):
        with pytest.raises(ValueError):
            rd.make_grid(0.5, 2.0, n)

    def test_refined_doubles(self, grid_bs):
        assert grid_bs.refined().r_points.size == 2 * grid_bs.r_points.size - 1


class TestFreeJost:
    def test_half_order_plus_is_plane_wave(self):
        for r in (0.5, 1.0, 2.0):
            f, df = ref.free_jost("plus", 0.5, r)
            assert abs(f - np.exp(1j * r)) <= 1e-13
            assert abs(df - 1j * np.exp(1j * r)) <= 1e-13

    def test_half_order_minus(self):
        f, df = ref.free_jost("minus", 0.5, 1.0)
        assert abs(f - np.exp(-1j)) <= 1e-13

    def test_free_wronskian(self):
        for nu in (2.3 + 1.1j, 0.5, 7.0):
            fp, dfp = ref.free_jost("plus", nu, 1.0)
            fm, dfm = ref.free_jost("minus", nu, 1.0)
            w = rd.wronskian(fp, dfp, fm, dfm)
            assert abs(w + 2j) <= 1e-12 * max(1.0, abs(fp * dfm))

    def test_flux_shifts_order(self):
        # F0 depends on nu only through nu_R
        f1, _ = ref.free_jost("plus", 3.3, 1.0, flux=0.3)
        f2, _ = ref.free_jost("plus", 3.0, 1.0, flux=0.0)
        assert abs(f1 - f2) <= 1e-13 * abs(f2)


class TestJostSolve:
    def test_zero_perturbation_is_free(self, q_zero, grid_zero):
        for nu in (0.5, 3.0, 11.0):
            for sign in ("plus", "minus"):
                k = ref.SIGN[sign]
                values, derivs = rd.jost_solve(q_zero, [nu], grid_zero)[k:k + 2]
                f0, df0 = ref.free_jost(sign, nu, grid_zero.r_points)
                assert scaled_max(values[:, 0], f0) <= 1e-10
                assert scaled_max(derivs[:, 0], df0) <= 1e-10

    def test_half_order_free_is_plane_wave(self, q_zero, grid_zero):
        values = rd.jost_solve(q_zero, [0.5], grid_zero)[0]
        want = np.exp(1j * grid_zero.r_points)
        assert np.max(np.abs(values[:, 0] - want)) <= 1e-10

    def test_step_interior_shifted_wavenumber(self, q_step):
        # inside the step the solution is a combination of e^{+-i k r},
        # k = sqrt(1 - V0): fit on two points, predict a third
        grid = rd.grid_for(q_step, 512)
        f = rd.jost_solve(q_step, [0.5], grid)[0][:, 0]
        k = np.sqrt(1.0 - 0.3)
        r = grid.r_points
        i1, i2, i3 = 10, 250, 430
        M = np.array([[np.exp(1j * k * r[i1]), np.exp(-1j * k * r[i1])],
                      [np.exp(1j * k * r[i2]), np.exp(-1j * k * r[i2])]])
        A, B = np.linalg.solve(M, [f[i1], f[i2]])
        pred = A * np.exp(1j * k * r[i3]) + B * np.exp(-1j * k * r[i3])
        assert abs(pred - f[i3]) <= 1e-9

    def test_step_oracle_at_obstacle(self, q_step):
        # beta = -i F+(r0) against the independent matching oracle
        for nu in (0.5, 3.0):
            f = rd.jost_solve(q_step, [nu], rd.grid_for(q_step, 512))[0]
            _, beta_o, _ = step_oracle(nu, 0.3, 0.5, 2.0)
            assert abs(-1j * f[0, 0] - beta_o) <= 1e-8 * max(1.0, abs(beta_o))

    def test_field_reflection_symmetry(self, q_bump_step, grid_bs):
        # F_gamma(r, nu) = F_{-gamma}(r, -nu)
        q_neg = fl.effective_potential(fl.mirror(q_bump_step.medium))
        for nu in (3.2, -3.2):
            a = rd.jost_solve(q_bump_step, [nu], grid_bs)
            b = rd.jost_solve(q_neg, [-nu], grid_bs)
            for k in (0, 2):
                assert scaled_max(a[k], b[k]) <= 1e-9

    def test_wronskian_conservation(self, q_bump_step, grid_bs):
        nus = [0.5, 7.0, 25.0, 0.3 + 12j, 5 + 5j]
        assert rd.wronskian_residual(*rd.jost_solve(q_bump_step, nus, grid_bs)) <= 1e-8

    def test_conjugation_symmetry(self, q_bump_step, grid_bs):
        for nu in (2 + 3j, 0.7 - 1.2j):
            a = rd.jost_solve(q_bump_step, [nu], grid_bs)[0]
            b = rd.jost_solve(q_bump_step, [np.conj(nu)], grid_bs)[2]
            assert scaled_max(np.conj(a), b) <= 1e-9

    def test_nonvanishing_on_real_axis(self, q_bump_step, grid_bs):
        for nu in (0.0, 1.0, 4.0, 17.0):
            values = rd.jost_solve(q_bump_step, [nu], grid_bs)[0]
            assert float(np.min(np.abs(values))) > 0.0

    def test_degenerate_medium_returns_free(self, q_ab):
        grid = rd.grid_for(q_ab)
        values = rd.jost_solve(q_ab, [3.0], grid)[0]
        f0, _ = ref.free_jost("plus", 3.0, 0.5, q_ab.flux_over_2pi)
        assert values[0, 0] == f0

    def test_imaginary_axis_bounded(self, q_bump_step):
        # F(r, iy + gamma_R) stays bounded, envelope decaying in |y|
        flux = q_bump_step.flux_over_2pi
        ys = [-40.0, -20.0, -5.0, 5.0, 20.0, 40.0]
        f = rd.jost_endpoints(q_bump_step, [flux + 1j * y for y in ys])[0]
        mags = np.abs(f)
        assert np.all(np.isfinite(mags))
        small = rd.jost_endpoints(q_bump_step, [flux + 0.5j])[0]
        assert np.max(mags) <= 1.5 * max(1.0, abs(small[0]))


class TestPairRead:
    """One Jost read returns (F+, F+', F-, F-') from one Hankel evaluation."""

    @pytest.mark.parametrize("medium", ["q_zero", "q_bump_step"])
    @pytest.mark.parametrize("read", [
        lambda q, nus: rd.jost_endpoints(q, nus),
        lambda q, nus: rd.jost_solve(q, nus, rd.grid_for(q, 64)),
    ], ids=["jost_endpoints", "jost_solve"])
    def test_one_hankel_call_and_wronskian(self, medium, read, request, monkeypatch):
        q = request.getfixturevalue(medium)
        calls = []
        hankel = rd._hankel_arrays
        monkeypatch.setattr(rd, "_hankel_arrays", lambda *a: calls.append(a) or hankel(*a))
        pair = read(q, [0.5, 3.0, 2.0 + 1.0j])
        assert len(calls) == 1
        # W(F+, F-) = -2i: swapped signs would give +2i
        assert rd.wronskian_residual(*pair) <= 1e-10


class TestGridInsideSupport:
    """The medium fixes where the free data are imposed, not the grid."""

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("nu", [1.0, 3.0, 2.0 + 1.0j])
    def test_jost_solve_reads_the_true_solution(self, q_bump_step, sign, nu):
        grid = rd.make_grid(0.5, 1.5, 256, include=q_bump_step.breakpoints())
        k = ref.SIGN[sign]
        values = rd.jost_solve(q_bump_step, [nu], grid)[k]
        f = rd.jost_endpoints(q_bump_step, [nu])[k]
        assert abs(values[0, 0] - f[0]) <= 1e-10 * abs(f[0])

    def test_picard_oracle_needs_the_whole_support(self, q_bump_step):
        with pytest.raises(ValueError):
            ref.jost_solve_volterra(q_bump_step, "plus", 3.0, rd.make_grid(0.5, 1.5, 512))


class TestRowsBeyondSupport:
    """A jost_solve grid that reaches past R reads the free closed form
    there and steps only from R inward."""

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("nu", [3.0, 3.0 + 2.0j])
    def test_closed_form_beyond_R_and_solve_from_R(self, q_bump_step, sign, nu,
                                                    monkeypatch):
        q = q_bump_step
        starts = []
        solve = rd.solve_oscillator
        monkeypatch.setattr(rd, "solve_oscillator", lambda c_fn, r_start, *a, **k:
                            starts.append(r_start) or solve(c_fn, r_start, *a, **k))
        grid = rd.make_grid(0.5, 6.0, 256, include=q.breakpoints())
        k = ref.SIGN[sign]
        values, derivs = rd.jost_solve(q, [nu], grid)[k:k + 2]
        assert starts == [q.R, q.R]
        beyond = grid.r_points > q.R
        f0, df0 = rd._free_pair(nu - q.flux_over_2pi, grid.r_points[beyond])[k:k + 2]
        assert np.max(np.abs(values[beyond, 0] - f0) / np.abs(f0)) <= 1e-15
        assert np.max(np.abs(derivs[beyond, 0] - df0) / np.abs(df0)) <= 1e-15
        f = rd.jost_endpoints(q, [nu])[k]
        assert abs(values[0, 0] - f[0]) <= 1e-11 * abs(f[0])


class TestTaylorOdeOracle:
    """F+-(r0) against mpmath's Taylor-series ODE solver at 30 digits, on a
    medium whose gauge the oracle integrates exactly (poly_spline field and
    potential), within 2 rtol: README's ODE tolerance row.  For real orders
    F- is the conjugate of F+, so only the complex order is also run with
    the minus sign."""

    MEDIUM = fl.Medium(fl.poly_profile([0.3, 0.2, -0.4], 0.6, 1.8),
                       fl.poly_profile([1.0, -0.5, 0.25], 0.8, 1.6), 0.5, 2.0)
    RTOL = 1e-12

    @pytest.mark.parametrize("sign, nu", [("plus", 0), ("plus", 10), ("plus", 20),
                                          ("plus", 3 + 2j), ("minus", 3 + 2j)])
    def test_endpoints(self, sign, nu):
        q = fl.effective_potential(self.MEDIUM)
        k = ref.SIGN[sign]
        f, df = rd.jost_endpoints(q, [nu], rtol=self.RTOL)[k:k + 2]
        f_o, df_o = mp_jost_at_r0(self.MEDIUM, sign, nu)
        assert abs(f[0] - f_o) <= 2 * self.RTOL * abs(f_o)
        assert abs(df[0] - df_o) <= 2 * self.RTOL * abs(df_o)


class TestSolverTermination:
    def test_unreachable_tolerance_raises(self, q_bump_step):
        # below the rounding floor the step doublings run out and raise
        with pytest.raises(IntegrationError):
            rd.jost_endpoints(q_bump_step, [40], rtol=1e-17)

    @pytest.mark.parametrize("rtol", [0.0, -1e-12, float("nan"), float("inf")])
    def test_rtol_must_be_finite_and_positive(self, q_bump_step, rtol):
        with pytest.raises(ValueError):
            rd.jost_endpoints(q_bump_step, [40], rtol=rtol)


class TestOrderCap:
    @pytest.mark.parametrize("solve", [
        lambda q, g: rd.jost_solve(q, [75], g),
        lambda q, g: rd.jost_endpoints(q, [1, 75], r=g.r0),
        lambda q, g: rd.regular_solve(q, [75], g),
        lambda q, g: rd.regular_endpoints(q, [75]),
    ], ids=["jost_solve", "jost_endpoints", "regular_solve", "regular_endpoints"])
    def test_every_entry_point_rejects_orders_beyond_nu_max(self, q_bump_step,
                                                            grid_bs, solve):
        with pytest.raises(DomainError):
            solve(q_bump_step, grid_bs)


class TestJostToFreeRatio:
    def test_ratio_tends_to_c_r(self, q_bump_step):
        # F+/F0+ -> C_r = exp(int (gamma - gamma_R)/s ds), faster at larger nu
        flux = q_bump_step.flux_over_2pi
        for r in (0.5, 1.25):
            cr = ref.c_r_factor(q_bump_step, r)
            devs = []
            for nu_R in (20.0, 40.0):
                f = rd.jost_endpoints(q_bump_step, [flux + nu_R], r=r)[0]
                f0, _ = ref.free_jost("plus", flux + nu_R, r, flux)
                devs.append(abs(f[0] / f0 - cr) / cr)
            assert devs[-1] <= 0.05
            assert devs[-1] < devs[0]

    def test_c_r_is_one_beyond_support(self, q_bump_step):
        assert ref.c_r_factor(q_bump_step, 2.0) == 1.0
        assert ref.c_r_factor(q_bump_step, 3.0) == 1.0


class TestVolterra:
    def test_zero_medium_single_sweep(self, q_zero, grid_zero):
        values, _, iterations = ref.jost_solve_volterra(q_zero, "plus", 3.0, grid_zero)
        f0, _ = ref.free_jost("plus", 3.0, grid_zero.r_points)
        assert iterations == 1
        assert np.max(np.abs(values - f0)) == 0.0

    def test_one_node_grid_beyond_support_is_free(self, q_bump_step, monkeypatch):
        # the oracle returns the closed form there, never the ODE it checks
        def no_ode(*args, **kwargs):
            raise AssertionError("the Picard oracle called the ODE solver")

        monkeypatch.setattr(rd, "solve_oscillator", no_ode)
        values, derivs, iterations = ref.jost_solve_volterra(
            q_bump_step, "plus", 3.0, rd.RadialGrid([2.5]))
        f0, df0 = ref.free_jost("plus", 3.0, 2.5, q_bump_step.flux_over_2pi)
        assert iterations == 0
        assert values[0] == f0 and derivs[0] == df0

    def test_cross_validation_with_ode(self, q_bump_step, grid_bs):
        # flux 0.3: nu = nu_R + 0.3
        for nu_R in (1.0, 3.0, 5.0):
            sv, dsv, _ = ref.jost_solve_volterra(q_bump_step, "plus", nu_R + 0.3, grid_bs)
            so, dso = rd.jost_solve(q_bump_step, [nu_R + 0.3], grid_bs)[:2]
            assert scaled_max(sv, so[:, 0]) <= 1e-7
            assert scaled_max(dsv, dso[:, 0]) <= 1e-7

    def test_iterations_decrease_with_order(self, q_step):
        # electric-only medium: contraction factor ~ 1/(|nu_R|+1)
        grid = rd.grid_for(q_step, 512)
        its = [ref.jost_solve_volterra(q_step, "plus", nu, grid)[2]
               for nu in (1.0, 8.0, 25.0)]
        assert its[0] >= its[1] >= its[2]

    def test_halfplane_precondition(self, q_bump_step, grid_bs):
        with pytest.raises(DomainError):
            ref.jost_solve_volterra(q_bump_step, "plus", -3.0, grid_bs)

    def test_iteration_budget(self, q_bump_step, grid_bs):
        with pytest.raises(NoConvergence):
            ref.jost_solve_volterra(q_bump_step, "plus", 1.3, grid_bs, max_iter=2)


class TestPanelQuadrature:
    @staticmethod
    def c1_errors(q, grid):
        # (r - b)|r - b| is C1 with slope 2|r - b| and quadratic on each side
        # of b, so Hermite panels reproduce it unless a panel straddles b
        pq = rd.PanelQuadrature(grid)
        r = grid.r_points
        errs = []
        for b in q.breakpoints():
            exact = ((q.R - b) ** 3 - (b - q.r0) ** 3) / 3.0
            got = pq.integrate(pq.interpolate((r - b) * np.abs(r - b), 2.0 * np.abs(r - b)))
            errs.append(abs(got - exact) / abs(exact))
        return errs

    def test_c1_breaks_at_nodes_integrate_exactly(self, q_bump_step):
        assert len(q_bump_step.breakpoints()) == 2
        assert max(self.c1_errors(q_bump_step, rd.grid_for(q_bump_step, 64))) <= 1e-15
        assert min(self.c1_errors(q_bump_step, rd.make_grid(0.5, 2.0, 64))) >= 1e-7

    def test_two_nodes_integrate_cubic_exactly(self):
        grid = rd.make_grid(0.5, 2.0, 2)
        pq = rd.PanelQuadrature(grid)
        r = grid.r_points
        got = pq.integrate(pq.interpolate(r ** 3, 3.0 * r ** 2))
        assert got == (2.0 ** 4 - 0.5 ** 4) / 4.0


class TestRegularSolution:
    def test_dirichlet_data(self, q_bump_step, grid_bs):
        values, derivs = rd.regular_solve(q_bump_step, [4.0], grid_bs)
        assert values[0, 0] == 0.0
        assert derivs[0, 0] == -2.0

    def test_zero_medium_half_order_closed_form(self, q_zero, grid_zero):
        # u'' + u = 0 with u(r0) = 0, u'(r0) = -2: u = -2 sin(r - r0)
        values = rd.regular_solve(q_zero, [0.5], grid_zero)[0][:, 0]
        want = -2.0 * np.sin(grid_zero.r_points - 0.5)
        assert np.max(np.abs(values - want)) <= 1e-10

    def test_matches_jost_combination(self, q_bump_step, grid_bs):
        nu = 4.0
        fp, _, fm, _ = (f[:, 0] for f in rd.jost_solve(q_bump_step, [nu], grid_bs))
        so = rd.regular_solve(q_bump_step, [nu], grid_bs)[0][:, 0]
        combo = 1j * (fm[0] * fp - fp[0] * fm)
        assert scaled_max(so, combo) <= 1e-8

    def test_conjugation(self, q_bump_step, grid_bs):
        a = rd.regular_solve(q_bump_step, [2 + 1j], grid_bs)[0][:, 0]
        b = rd.regular_solve(q_bump_step, [2 - 1j], grid_bs)[0][:, 0]
        assert scaled_max(np.conj(a), b) <= 1e-9

    def test_batch_peers_do_not_change_results(self, q_bump_step):
        # blocks of 16 share their steps; l = 15, 16 straddle the boundary
        grid = rd.grid_for(q_bump_step, 256)
        values, derivs = rd.regular_solve(q_bump_step, range(21), grid)
        assert values.shape == derivs.shape == (256, 21)
        for l in (0, 15, 16, 20):
            v, d = rd.regular_solve(q_bump_step, [l], grid)
            assert scaled_max(values[:, l], v[:, 0]) <= 1e-9
            assert scaled_max(derivs[:, l], d[:, 0]) <= 1e-9


class TestRegularBound:
    def test_free_case_reduces_to_phi0(self, q_zero):
        grid = rd.grid_for(q_zero, 256)
        rep = vf.verify_regular_bound(q_zero, [1.0, 5.0, 20.0, 40.0], grid)
        assert rep.drift <= 2.0
        assert rep.c_emp <= 10.0

    def test_real_axis_scan_stable(self, q_bump_step):
        grid = rd.grid_for(q_bump_step, 256)
        nus = [q_bump_step.flux_over_2pi + k for k in (1.0, 10.0, 25.0, 40.0)]
        rep = vf.verify_regular_bound(q_bump_step, nus, grid)
        assert rep.drift <= 2.0

    def test_imaginary_axis_bounded(self, q_bump_step):
        grid = rd.grid_for(q_bump_step, 256)
        flux = q_bump_step.flux_over_2pi
        rep = vf.verify_regular_bound(q_bump_step, [flux + 1j * y for y in (5, 20, 40)],
                                      grid)
        assert np.isfinite(rep.c_emp)

    def test_halfplane_precondition(self, q_bump_step):
        grid = rd.grid_for(q_bump_step, 256)
        with pytest.raises(ValueError):
            vf.verify_regular_bound(q_bump_step, [-2.0], grid)

    def test_one_regular_solve(self, q_bump_step, monkeypatch):
        grids = []
        solve = rd.regular_solve
        monkeypatch.setattr(rd, "regular_solve",
                            lambda q, nus, grid, rtol: grids.append(grid)
                            or solve(q, nus, grid, rtol=rtol))
        grid = rd.grid_for(q_bump_step, 128)
        vf.verify_regular_bound(q_bump_step, [1.0, 10.0], grid)
        assert len(grids) == 1
        assert np.array_equal(grids[0].r_points[::2], grid.r_points)

    def test_given_grid_constant_matches_a_separate_solve(self, q_bump_step):
        grid = rd.grid_for(q_bump_step, 128)
        flux = q_bump_step.flux_over_2pi
        nus = [flux + x for x in (1.0, 8.0, 25.0)] + [flux + 10j]
        rep = vf.verify_regular_bound(q_bump_step, nus, grid, rtol=1e-9)
        nu_R = np.asarray(nus) - flux
        values, _ = rd.regular_solve(q_bump_step, nus, grid, rtol=1e-9)
        w = np.exp(-nu_R.real * np.log(grid.r_points / grid.r0)[:, None])
        want = float(np.max(np.abs(values) * w * (1.0 + np.abs(nu_R))))
        assert rep.c_emp == pytest.approx(want, rel=1e-9, abs=0)
