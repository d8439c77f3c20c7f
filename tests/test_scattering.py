import cmath
import csv
import json
import math

import numpy as np
import pytest

from camscat import fields as fl
from camscat import scattering as sc
from camscat.errors import CamscatError

import reference as ref
from oracles import step_oracle


class TestFreeClosedForms:
    def test_alpha0_closed_form(self):
        # alpha0 = i e^{-i(nu_R + 1/2) pi/2} sqrt(pi r0/2) H2_{nu_R}(r0)
        from camscat.specfun import bessel_h
        nu, flux, r0 = 2.7, 0.0, 0.5
        a0, b0 = ref.jost_functions_free(nu, flux, r0)
        h = bessel_h(nu, r0)
        want = 1j * cmath.exp(-1j * (nu + 0.5) * math.pi / 2) \
            * math.sqrt(math.pi * r0 / 2) * h.H2
        assert abs(a0 - want) <= 1e-13 * abs(want)

    def test_half_order_values(self):
        # F0+- = e^{+-ir}: alpha0 = i e^{-i r0}, beta0 = -i e^{i r0}
        r0 = 0.5
        a0, b0 = ref.jost_functions_free(0.5, 0.0, r0)
        assert abs(a0 - 1j * cmath.exp(-1j * r0)) <= 1e-13
        assert abs(b0 + 1j * cmath.exp(1j * r0)) <= 1e-13

    def test_sigma_free_integer_form(self):
        # sigma0(l) = -H2_l(r0)/H1_l(r0) at zero flux
        from camscat.specfun import bessel_h
        for l in (0, 1, 3):
            h = bessel_h(float(l), 0.5)
            assert sc.sigma_free(l, 0.0, 0.5) == pytest.approx(-h.H2 / h.H1, rel=1e-12)

    def test_sigma_free_half_order(self):
        assert sc.sigma_free(0.5, 0.0, 0.5) == pytest.approx(cmath.exp(-1j), rel=1e-13)


class TestJostFunctions:
    def test_two_routes_agree_random_complex(self, q_bump_step):
        rng = np.random.default_rng(31)
        nus = [complex(rng.uniform(-6, 8), rng.uniform(-6, 6)) for _ in range(100)]
        for jf in sc.jost_functions_many(q_bump_step, nus, rtol=1e-11):
            assert jf.agreement <= 1e-8

    def test_conjugation_alpha_beta(self, q_bump_step):
        # conj(alpha(nu)) = beta(conj(nu))
        for nu in (1.5 + 0.8j, 3.0 - 2j):
            a = sc.jost_functions_many(q_bump_step, [nu])[0]
            b = sc.jost_functions_many(q_bump_step, [np.conj(nu)])[0]
            assert abs(np.conj(a.alpha) - b.beta) <= 1e-9 * max(1.0, abs(a.alpha))

    def test_modulus_equality_real_axis(self, q_bump_step):
        for nu in (0.0, 2.0, 6.0):
            jf = sc.jost_functions_many(q_bump_step, [nu])[0]
            assert abs(abs(jf.alpha) - abs(jf.beta)) <= 1e-9 * abs(jf.beta)

    def test_two_routes_agree_inside_obstacle(self):
        # R < r0: both routes must pair Phi and F0+- at r0
        q = fl.effective_potential(fl.Medium(
            fl.zero_profile(), fl.bump_field(0.3, 0.1, 0.4), 0.5, 0.45))
        for jf in sc.jost_functions_many(q, [0, 1, 2.5, 1 + 1j]):
            assert jf.agreement <= 1e-12

    def test_step_medium_against_matching_oracle(self, q_step):
        for l in (0, 2, 7):
            jf = sc.jost_functions_many(q_step, [l])[0]
            a_o, b_o, _ = step_oracle(l, 0.3, 0.5, 2.0)
            assert abs(jf.alpha - a_o) <= 1e-7 * max(1.0, abs(a_o))
            assert abs(jf.beta - b_o) <= 1e-7 * max(1.0, abs(b_o))


class TestSigma:
    def test_matches_free_closed_form_on_zero_medium(self, q_zero):
        for nu in (0.5, 1.0, 5.0):
            got = sc.regge_sigma(q_zero, nu)
            assert abs(got - sc.sigma_free(nu, 0.0, 0.5)) <= 1e-8

    def test_unimodular_on_real_axis(self, q_bump_step):
        for nu in (0.0, 1.0, 3.5, 11.0):
            s = sc.regge_sigma(q_bump_step, nu)
            assert abs(abs(s) - 1.0) <= 1e-8

    def test_ab_medium_is_shifted_free(self, q_ab):
        got = sc.regge_sigma(q_ab, 3.0)
        want = sc.sigma_free(3.0, q_ab.flux_over_2pi, 0.5)
        assert abs(got - want) <= 1e-10

    def test_positive_tail_limit(self, q_bump_field):
        # sigma(l) -> e^{+i pi gamma(R)} as l -> +infinity
        lim = cmath.exp(1j * math.pi * 0.3)
        sig = sc.sigma_many(q_bump_field, [30, 40], rtol=1e-10)
        assert abs(sig[-1] - lim) <= 0.05
        assert abs(sig[-1] - lim) <= abs(sig[0] - lim) + 1e-12

    def test_negative_tail_limit(self, q_bump_field):
        lim = cmath.exp(-1j * math.pi * 0.3)
        sig = sc.sigma_many(q_bump_field, [-40, -30], rtol=1e-10)
        assert abs(sig[0] - lim) <= 0.05

    def test_flux_shift_covariance(self):
        # sigma_{gamma+2}(nu) = sigma_gamma(nu - 2) on a flux-only medium
        ab1 = fl.effective_potential(
            fl.Medium(fl.zero_profile(), fl.bump_field(0.5, 0.1, 0.4), 0.5, 0.45))
        ab2 = fl.effective_potential(
            fl.Medium(fl.zero_profile(), fl.bump_field(2.5, 0.1, 0.4), 0.5, 0.45))
        for nu in (3.0, 5.5, 4 + 1j):
            assert abs(sc.regge_sigma(ab2, nu) - sc.regge_sigma(ab1, nu - 2)) <= 1e-8

    def test_conjugate_pair_flux_only(self, q_ab):
        # sigma(-l) ~ conj(sigma(l)), asymptotically in l
        devs = []
        for l in (4, 8):
            s_pos = sc.regge_sigma(q_ab, float(l))
            s_neg = sc.sigma_many(q_ab, [-l])[0]
            devs.append(abs(s_neg - np.conj(s_pos)))
        assert devs[0] <= 1e-3
        assert devs[1] < devs[0]

    def test_aharonov_bohm_invariance(self):
        # equal flux inside the obstacle: identical scattering data
        m1 = fl.effective_potential(
            fl.Medium(fl.zero_profile(), fl.bump_field(0.5, 0.1, 0.4), 0.5, 0.45))
        m2 = fl.effective_potential(
            fl.Medium(fl.zero_profile(), fl.bump_field(0.5, 0.05, 0.45), 0.5, 0.45))
        d1 = sc.phase_shifts(m1, (0, 10))
        d2 = sc.phase_shifts(m2, (0, 10))
        for r1, r2 in zip(d1.records, d2.records):
            assert abs(r1.sigma - r2.sigma) <= 1e-9
            assert abs(r1.delta - r2.delta) <= 1e-9

    def test_batch_peers_do_not_change_results(self, q_bump_step):
        # Orders share adaptive steps with their block peers (blocks of 16),
        # so a result may move only within solver tolerance with the batch
        # it rides in; l = 15, 16 straddle the block boundary.
        from camscat import radial as rd
        nus = list(range(21))
        batched = sc.sigma_many(q_bump_step, nus)
        for l in (0, 15, 16, 20):
            assert abs(batched[l] - sc.sigma_many(q_bump_step, [l])[0]) <= 1e-9
        # jost_endpoints is the r0 row of the grid solve, bit for bit
        grid = rd.grid_for(q_bump_step, 2)
        row = rd.jost_endpoints(q_bump_step, nus, rtol=1e-10)
        for f, vals in zip(row, rd.jost_solve(q_bump_step, nus, grid, rtol=1e-10)):
            assert np.array_equal(f, vals[0])

    def test_beta_asymptotics(self, q_bump_step):
        # |beta(nu)| ~ C |beta0(nu)|: the ratio settles
        flux = q_bump_step.flux_over_2pi
        ratios = []
        for nu_R in (30.0, 35.0, 40.0):
            jf = sc.jost_functions_many(q_bump_step, [flux + nu_R])[0]
            _, b0 = ref.jost_functions_free(flux + nu_R, flux, 0.5)
            ratios.append(abs(jf.beta) / abs(b0))
        extrap = ratios[1] + (ratios[1] - ratios[0])
        assert abs(ratios[2] - extrap) <= 0.05 * ratios[2]


class TestFreeMedia:
    # q_nu vanishes on [r0, infinity) on these media, so F+- are the free
    # closed forms and no solve runs
    MEDIA = {
        "zero": fl.Medium(fl.zero_profile(), fl.zero_profile(), 0.5, 2.0),
        "ab_half_flux": fl.Medium(fl.zero_profile(), fl.bump_field(0.5, 0.1, 0.4),
                                  0.5, 2.0),
        "inside_obstacle": fl.Medium(fl.step_profile(0.3, 0.1, 0.4),
                                     fl.bump_field(0.3, 0.1, 0.4), 0.5, 0.45),
    }

    @pytest.mark.parametrize("name", sorted(MEDIA))
    def test_closed_forms_run_no_solve(self, name, monkeypatch):
        from camscat import radial as rd
        q = fl.effective_potential(self.MEDIA[name])
        assert q.is_free()
        ls = [-3, -1, 0, 1, 2, 3]
        nus = np.array(ls + [2.5, 1 + 1j, 7 - 2j])
        # reference: the solver carries the free data at R down to r0
        grid = rd.grid_for(q, 2)
        free = rd._free_pair(nus - q.flux_over_2pi, np.array([grid.R]))
        fp, fm = (rd._propagate(q, nus, grid.R, grid.r0, f[:, 0], df[:, 0],
                                [grid.r0], 1e-12)[0][0]
                  for f, df in (free[:2], free[2:]))
        want = [sc._sigma(nu, 1j * m, -1j * p) for nu, p, m in zip(nus, fp, fm)]

        def no_solve(*args, **kwargs):
            raise AssertionError("a free medium must not be integrated")

        monkeypatch.setattr(rd, "solve_oscillator", no_solve)
        got = sc.sigma_many(q, nus)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w))
        data = sc.phase_shifts(q, (-3, 3))
        for l, w in zip(ls, want):
            assert abs(data.sigma(l) - w) <= 1e-10


class TestPhaseShifts:
    def test_free_hard_disk_value_at_l0(self, q_zero):
        # delta_0 against direct Hankel evaluation of sigma0
        from camscat.specfun import bessel_h
        data = sc.phase_shifts(q_zero, (0, 10))
        h = bessel_h(0.0, 0.5)
        want = cmath.phase(-h.H2 / h.H1) / 2.0
        got = data.delta(0)
        assert abs((got - want + math.pi / 2) % math.pi - math.pi / 2) <= 1e-8

    def test_interpolation_point_half_order(self, q_zero):
        # at nu_R = 1/2 the shift is -r0 mod pi
        s = sc.regge_sigma(q_zero, 0.5)
        delta = cmath.phase(s) / 2.0
        assert abs((delta + 0.5 + math.pi / 2) % math.pi - math.pi / 2) <= 1e-10

    def test_tail_anchor_and_continuity(self, q_bump_field):
        data = sc.phase_shifts(q_bump_field, (-12, 12), rtol=1e-10)
        # 2 delta -> pi gamma mod 2pi at the anchor end
        assert abs(2 * data.delta(12) - math.pi * 0.3) % (2 * math.pi) <= 0.05
        ls = data.l_values
        deltas = [data.delta(l) for l in ls]
        jumps = np.abs(np.diff(deltas))
        i5 = ls.index(5)
        assert np.all(jumps[i5:] <= math.pi / 2 + 1e-12)

    def test_ties_resolve_only_inside_window(self, q_bump_field):
        # no step of this table lies near +-pi/2: nothing but plain unwrapping
        data = sc.phase_shifts(q_bump_field, (-12, 12), rtol=1e-10)
        desc = data.records[::-1]
        plain = sc.unwrap_deltas([r.sigma for r in desc])
        assert [r.delta for r in desc] == plain

    def test_zero_medium_negative_positive_symmetry(self, q_zero):
        data = sc.phase_shifts(q_zero, (-8, 8))
        for l in range(1, 9):
            assert abs(data.sigma(l) - data.sigma(-l)) <= 1e-9


def _ab_pair(flux, r0):
    """Two flux-only media, equal flux inside the obstacle, different supports."""
    return [fl.effective_potential(
        fl.Medium(fl.zero_profile(), fl.bump_field(flux, a * r0, b * r0), r0, R * r0))
        for a, b, R in ((0.1, 0.8, 0.9), (0.05, 0.95, 1.0))]


def _classical_ab_delta(l, gamma):
    # Aharonov-Bohm shifts (pi/2)(|l| - |l - gamma|), independent of r0
    return 0.5 * math.pi * (abs(l) - abs(l - gamma))


class TestNegativeOrders:
    """l < 0 is solved on the medium itself; no reflected medium is built."""

    def test_matches_reflected_medium(self, bump_field_medium):
        # sigma_gamma(-l) = sigma_{-gamma}(l) at integer l
        ab = fl.Medium(fl.zero_profile(), fl.bump_field(-0.5, 0.1, 0.4), 0.5, 0.45)
        ls = list(range(1, 13))
        for medium in (bump_field_medium, ab):
            data = sc.phase_shifts(fl.effective_potential(medium), (-12, -1))
            want = sc.sigma_many(fl.effective_potential(fl.mirror(medium)), ls)
            for l, s in zip(ls, want):
                assert abs(data.sigma(-l) - s) <= 1e-13 * abs(s)

    def test_builds_no_gauge(self, q_bump_field, monkeypatch):
        def refuse(medium):
            raise AssertionError("phase_shifts built a gauge table")
        monkeypatch.setattr(fl, "build_gauge", refuse)
        data = sc.phase_shifts(q_bump_field, (-3, 3))
        assert data.l_values == list(range(-3, 4))


class TestBranchTies:
    # nu_R = l - gamma = -1/2 and +1/2 give plane waves, so
    # sigma(l)/sigma(l+1) = -1 exactly at l = gamma - 1/2: a +-pi/2 tie
    @pytest.mark.parametrize("flux, l_range", [(0.5, (-4, 10)), (-0.5, (-10, 0)),
                                               (1.5, (-3, 6))])
    @pytest.mark.parametrize("r0", [0.2, 0.5, 1.0])
    def test_equal_flux_gives_equal_deltas(self, flux, l_range, r0):
        d1, d2 = (sc.phase_shifts(q, l_range) for q in _ab_pair(flux, r0))
        for r1, r2 in zip(d1.records, d2.records):
            assert abs(r1.delta - r2.delta) <= 1e-9
        l_tie = round(flux - 0.5)
        step = d1.delta(l_tie + 1) - d1.delta(l_tie)
        want = _classical_ab_delta(l_tie + 1, flux) - _classical_ab_delta(l_tie, flux)
        assert abs(step - want) <= 1e-9
        for data in (d1, d2):
            deltas = [r.delta for r in data.records]
            assert np.max(np.abs(np.diff(deltas))) <= math.pi / 2 + sc._TIE_WINDOW

    def test_coarse_path_is_bisected(self, q_ab, monkeypatch):
        want = sc.phase_shifts(q_ab, (0, 3))
        monkeypatch.setattr(sc, "_TIE_SAMPLES", 1)
        got = sc.phase_shifts(q_ab, (0, 3))
        for rw, rg in zip(want.records, got.records):
            assert abs(rw.delta - rg.delta) <= 1e-9

    def test_unresolved_tie_raises(self, q_ab, monkeypatch):
        monkeypatch.setattr(sc, "_TIE_SAMPLES", 1)
        monkeypatch.setattr(sc, "_TIE_BISECTIONS", 0)
        with pytest.raises(CamscatError):
            sc.phase_shifts(q_ab, (0, 3))


class TestCamScan:
    def test_real_axis_consistency(self, q_bump_step):
        scan = sc.cam_scan(q_bump_step, [1.0, 2.0, 3.0])
        data = sc.phase_shifts(q_bump_step, (1, 3))
        for nu, s in zip(scan.nu_grid, scan.sigma):
            assert abs(s - data.sigma(int(nu.real))) <= 1e-10

    def test_critical_line_finite(self, q_bump_step):
        flux = q_bump_step.flux_over_2pi
        scan = sc.cam_scan(q_bump_step, [flux + 1j * y for y in (-10, -3, 3, 10)])
        assert not scan.excluded
        assert all(np.isfinite(abs(s)) for s in scan.sigma)

    def test_free_case_matches_closed_form(self, q_zero):
        nus = [0.7, 1.3 + 0.4j, 2.0 - 1j]
        scan = sc.cam_scan(q_zero, nus)
        for nu, s in zip(scan.nu_grid, scan.sigma):
            assert abs(s - sc.sigma_free(nu, 0.0, 0.5)) <= 1e-8

    def test_json_round_trip(self, q_zero, tmp_path):
        scan = sc.cam_scan(q_zero, [1.0, 1j])
        path = tmp_path / "scan.json"
        scan.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["points"]) == 2
        assert doc["excluded"] == []


class TestSerialization:
    def test_csv_schema(self, q_zero, tmp_path):
        data = sc.phase_shifts(q_zero, (-2, 2))
        path = tmp_path / "table.csv"
        data.to_csv(path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["l", "re_sigma", "im_sigma", "delta"]
        assert len(rows) == 6
        assert [int(r[0]) for r in rows[1:]] == [-2, -1, 0, 1, 2]

    def test_json_schema(self, q_zero, tmp_path):
        data = sc.phase_shifts(q_zero, (0, 2))
        path = tmp_path / "table.json"
        data.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["flux_over_2pi"] == 0.0
        assert "branch_anchor" in doc


class TestErrors:
    def test_zero_beta_raises(self, q_zero, monkeypatch):
        # beta = -i F+(r0) has never been found to vanish; were it exactly
        # zero, sigma_many raises instead of dividing by it
        def zero_beta(q, nus, rtol):
            n = len(nus)
            return np.ones(n, dtype=complex), np.zeros(n, dtype=complex)

        monkeypatch.setattr(sc, "_jost_alpha_beta", zero_beta)
        with pytest.raises(CamscatError, match="beta"):
            sc.cam_scan(q_zero, [1.0, 2.0])
