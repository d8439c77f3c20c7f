import json

import numpy as np
import pytest

from camscat import fields as fl
from camscat.quadrature import adaptive_gl

from oracles import trapezoid_gauge


class TestProfiles:
    def test_zero(self):
        p = fl.zero_profile()
        assert p(1.0) == 0.0
        assert np.all(p(np.linspace(0, 3, 7)) == 0.0)

    def test_step_half_open(self):
        p = fl.step_profile(0.7, 0.5, 2.0)
        assert p(0.5) == 0.7
        assert p(1.999) == 0.7
        assert p(2.0) == 0.0          # support is [a, b)
        assert p(0.499) == 0.0

    def test_bump_smooth_and_compact(self):
        p = fl.bump_profile(1.0, 0.5, 1.5)
        assert p(0.5) == 0.0 and p(1.5) == 0.0
        assert p(1.0) == pytest.approx(np.exp(-1.0), rel=1e-14)
        r = np.linspace(0.4, 1.6, 101)
        assert np.all(p(r) >= 0.0)

    def test_poly(self):
        p = fl.poly_profile([1.0, -2.0, 1.0], 1.0, 2.0)   # (1-t)^2
        assert p(1.0) == pytest.approx(1.0)
        assert p(1.5) == pytest.approx(0.25)

    def test_scalar_vector_agree(self):
        # np.exp and math.exp may differ in the last ulp on the bump
        for p in (fl.step_profile(0.3, 0.5, 2.0), fl.bump_profile(2.0, 0.7, 1.1),
                  fl.poly_profile([0.5, 1.5], 0.6, 1.9)):
            r = np.linspace(0.0, 2.5, 257)
            vec = p(r)
            sc = np.array([p(float(x)) for x in r])
            assert np.allclose(vec, sc, rtol=1e-15, atol=0.0)


class TestGauge:
    def test_zero_field(self, zero_medium):
        g = fl.build_gauge(zero_medium)
        assert g.flux_over_2pi == 0.0
        assert g.gamma(1.3) == 0.0

    def test_step_closed_form(self):
        m = fl.Medium(fl.zero_profile(), fl.step_profile(0.7, 0.0, 1.2), 0.5, 2.0)
        g = fl.build_gauge(m)
        r = np.array([0.3, 0.9, 1.2, 1.7, 3.0])
        want = 0.7 * np.minimum(r, 1.2) ** 2 / 2
        assert np.max(np.abs(g.gamma(r) - want)) == 0.0
        assert g.flux_over_2pi == pytest.approx(0.7 * 1.44 / 2, rel=1e-15)

    def test_bump_against_trapezoid_oracle(self):
        m = fl.Medium(fl.zero_profile(), fl.bump_profile(1.0, 0.5, 1.5), 0.5, 2.0)
        g = fl.build_gauge(m)
        assert abs(g.gamma(2.0) - trapezoid_gauge(m.b, 2.0)) <= 1e-9

    @pytest.mark.parametrize("b", [
        fl.bump_profile(1.0, 0.5, 1.5),
        # narrow flux-normalized bumps: the table spans the support, so its
        # spacing shrinks with the width
        fl.bump_field(0.7, 0.55, 0.95),
        fl.bump_field(0.7, 1.0, 1.1),
        fl.bump_field(0.7, 1.5, 1.55),
    ], ids=["width_1", "width_0.4", "width_0.1", "width_0.05"])
    def test_interior_against_adaptive_oracle(self, b):
        m = fl.Medium(fl.zero_profile(), b, 0.5, 2.0)
        g = fl.build_gauge(m)
        a, e = b.support
        for r in a + (e - a) * np.array([0.1, 0.45, 0.8, 0.99]):
            want = adaptive_gl(lambda t: t * m.b(t), a, r, tol=1e-15)
            assert abs(g.gamma(r) - want) <= 1e-12

    def test_gamma_zero_at_origin_and_flat_beyond_R(self):
        m = fl.Medium(fl.zero_profile(), fl.bump_field(0.3, 0.8, 1.6), 0.5, 2.0)
        g = fl.build_gauge(m)
        assert abs(g.gamma(0.0)) <= 1e-15
        assert g.gamma(2.0) == g.flux_over_2pi
        assert g.gamma_minus_flux(2.0) == 0.0
        assert g.gamma_minus_flux(5.0) == 0.0

    def test_derivative_matches_r_b(self):
        m = fl.Medium(fl.zero_profile(), fl.bump_profile(1.0, 0.5, 1.5), 0.5, 2.0)
        g = fl.build_gauge(m)
        h = 1e-6
        for r in (0.8, 1.0, 1.3):
            d = (g.gamma(r + h) - g.gamma(r - h)) / (2 * h)
            assert abs(d - r * m.b(r)) <= 1e-5

    def test_monotone_for_positive_field(self):
        m = fl.Medium(fl.zero_profile(), fl.bump_profile(1.0, 0.5, 1.5), 0.5, 2.0)
        g = fl.build_gauge(m)
        vals = g.gamma(np.linspace(0.0, 2.0, 300))
        assert np.all(np.diff(vals) >= -1e-15)

    def test_flux_targeting(self):
        b = fl.bump_field(0.3, 0.8, 1.6)
        g = fl.build_gauge(fl.Medium(fl.zero_profile(), b, 0.5, 2.0))
        assert g.flux_over_2pi == pytest.approx(0.3, abs=1e-12)


class TestEffectivePotential:
    def test_zero_medium_everywhere_zero(self, q_zero):
        r = np.linspace(0.5, 3.0, 50)
        assert np.all(q_zero(2.3 + 1.1j, r) == 0.0)

    def test_exact_zero_beyond_R(self, q_bump_step):
        rng = np.random.default_rng(5)
        r = np.array([2.0, 2.2, 4.0, 10.0])
        for _ in range(100):
            nu = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
            assert np.all(q_bump_step(nu, r) == 0.0)

    def test_aharonov_bohm_configuration(self, q_ab):
        # field inside the obstacle: zero q outside yet nonzero flux
        r = np.linspace(0.5, 3.0, 40)
        assert np.all(q_ab(4.0, r) == 0.0)
        assert q_ab.flux_over_2pi == pytest.approx(0.5, abs=1e-12)
        assert q_ab.is_free()

    def test_affine_decomposition(self, q_bump_step):
        rng = np.random.default_rng(6)
        for _ in range(30):
            nu = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            mu = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            r = rng.uniform(0.5, 1.99, 8)
            lhs = q_bump_step(nu, r) - q_bump_step(mu, r)
            rhs = (nu - mu) * q_bump_step.q1(r)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1.0, np.max(np.abs(lhs)))

    def test_formula(self, q_bump_step):
        # q_nu = -2 nu (gamma - gamma_R)/r^2 + (gamma^2 - gamma_R^2)/r^2 + V
        g = q_bump_step.gauge
        V = q_bump_step.medium.V
        r = np.linspace(0.55, 1.95, 23)
        nu = 1.7 - 0.4j
        gm = g.gamma(r)
        gR = g.flux_over_2pi
        want = -2 * nu * (gm - gR) / r**2 + (gm**2 - gR**2) / r**2 + V(r)
        got = q_bump_step(nu, r)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_exactly_flat_beyond_field_support(self, q_bump_step):
        # gamma is the flux itself from the end of the field's support on,
        # not a Hermite value that rounds to it
        r = np.linspace(1.6, 2.0, 200)
        assert np.all(q_bump_step.gauge.gamma_minus_flux(r) == 0.0)
        assert np.all(q_bump_step.q1(r) == 0.0)

    def test_field_inside_obstacle_leaves_zero_potential(self):
        m = fl.Medium(fl.zero_profile(), fl.bump_field(0.4, 0.1, 0.4), 0.5, 2.0)
        q = fl.effective_potential(m)
        assert q.is_free()
        r = np.linspace(0.5, 3.0, 64)
        for nu in (0.3, 5.0, 2 - 3j):
            assert np.all(q(nu, r) == 0.0)

    def test_flux_invariance_inside_obstacle(self):
        # equal flux, different interior profiles: identical q on [r0, inf)
        m1 = fl.Medium(fl.zero_profile(), fl.bump_field(0.4, 0.1, 0.4), 0.5, 2.0)
        m2 = fl.Medium(fl.zero_profile(), fl.bump_field(0.4, 0.05, 0.45), 0.5, 2.0)
        q1, q2 = fl.effective_potential(m1), fl.effective_potential(m2)
        r = np.linspace(0.5, 2.5, 64)
        for nu in (0.3, 5.0, 2 - 3j):
            assert np.max(np.abs(q1(nu, r) - q2(nu, r))) == 0.0


class TestClassC:
    def test_zero_medium_passes(self, zero_medium):
        assert fl.validate_class_C(zero_medium).passed

    def test_step_potential_allowed(self, step_medium):
        assert fl.validate_class_C(step_medium).passed

    def test_step_field_rejected(self):
        m = fl.Medium(fl.zero_profile(), fl.step_profile(0.3, 0.5, 1.0), 0.5, 2.0)
        rep = fl.validate_class_C(m)
        assert not rep.passed
        assert [c.name for c in rep.checks if not c.passed] == ["b_smooth"]


class TestJson:
    def test_round_trip(self, bump_step_medium, tmp_path):
        d = fl.medium_to_dict(bump_step_medium)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        m2 = fl.medium_from_json(path)
        assert m2.r0 == bump_step_medium.r0
        assert m2.V.params == bump_step_medium.V.params
        g1 = fl.build_gauge(bump_step_medium)
        g2 = fl.build_gauge(m2)
        assert g1.flux_over_2pi == pytest.approx(g2.flux_over_2pi, abs=1e-15)

    def test_flux_shorthand(self):
        m = fl.medium_from_dict({
            "r0": 0.5, "R": 2.0,
            "B": {"kind": "bump", "flux_over_2pi": 0.25, "support": [0.8, 1.6]},
        })
        assert fl.build_gauge(m).flux_over_2pi == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("r0, R", [(0.5, 20.5), (21.0, 1.0)])
    def test_radii_beyond_bessel_window_rejected(self, r0, R):
        # the Bessel series lose digits beyond R_MAX = 20
        with pytest.raises(ValueError, match="R_MAX"):
            fl.Medium(fl.zero_profile(), fl.zero_profile(), r0, R)

    def test_radius_at_bessel_window_builds(self):
        m = fl.Medium(fl.step_profile(0.3, 0.5, 20.0), fl.zero_profile(), 0.5, 20.0)
        assert m.R == 20.0

    def test_support_validation(self):
        with pytest.raises(ValueError):
            fl.medium_from_dict({
                "r0": 0.5, "R": 1.0,
                "V": {"kind": "step", "params": [1.0], "support": [0.5, 1.5]},
            })
