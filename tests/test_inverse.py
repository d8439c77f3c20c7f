import numpy as np
import pytest

from camscat import fields as fl
from camscat import inverse as iv
from camscat import radial as rd
from camscat import scattering as sc
from camscat.errors import FluxMismatch, IllConditioned, InsufficientTail

import reference as ref


@pytest.fixture(scope="module")
def q_step_05():
    return fl.effective_potential(
        fl.Medium(fl.step_profile(0.5, 0.5, 2.0), fl.zero_profile(), 0.5, 2.0))


class TestFluxRecovery:
    def test_zero_medium(self, q_zero):
        data = sc.phase_shifts(q_zero, (0, 40), rtol=1e-10)
        est = iv.recover_flux(data)
        assert abs(est.flux_over_2pi_mod2) <= 1e-6

    def test_bump_step_medium(self, q_bump_step):
        data = sc.phase_shifts(q_bump_step, (0, 40), rtol=1e-10)
        est = iv.recover_flux(data)
        assert abs(est.flux_over_2pi_mod2 - 0.3) <= 1e-3
        assert est.residual >= 0.0

    def test_pure_aharonov_bohm(self, q_ab):
        data = sc.phase_shifts(q_ab, (0, 40), rtol=1e-10)
        est = iv.recover_flux(data)
        assert abs(est.flux_over_2pi_mod2 - 0.5) <= 1e-3

    def test_insufficient_tail(self, q_zero):
        data = sc.phase_shifts(q_zero, (0, 15))
        with pytest.raises(InsufficientTail):
            iv.recover_flux(data)

    def test_mod2_reduction(self):
        assert iv._wrap_mod2(2.3) == pytest.approx(0.3)
        assert iv._wrap_mod2(-1.7) == pytest.approx(0.3)
        assert iv._wrap_mod2(1.0) == -1.0


def _medium(r0, R, v_support, flux, b_support):
    return fl.effective_potential(fl.Medium(
        fl.step_profile(0.3, *v_support), fl.bump_field(flux, *b_support), r0, R))


class TestTailEstimate:
    """arg sigma(lmax)/pi from tail-only tables: sigma(l) reaches its limit
    like (eR/2l)^{2l}, so the estimate is exact to rounding once the ten
    tail orders agree."""

    @pytest.mark.parametrize("lmax", [29, 40])
    def test_reference_medium(self, q_bump_step, lmax):
        est = iv.recover_flux(sc.phase_shifts(q_bump_step, iv.flux_tail(lmax),
                                              rtol=1e-11))
        err = abs(est.flux_over_2pi_mod2 - 0.3)
        assert err <= 1e-13
        assert err <= max(est.residual, 1e-13)
        assert est.l_used == tuple(range(lmax - 9, lmax + 1))

    def test_wide_medium(self):
        q = _medium(0.5, 8.0, (0.5, 8.0), 0.3, (0.8, 4.0))
        est = iv.recover_flux(sc.phase_shifts(q, iv.flux_tail(40), rtol=1e-11))
        err = abs(est.flux_over_2pi_mod2 - 0.3)
        assert err <= 1e-13
        assert err <= max(est.residual, 1e-13)

    def test_unsettled_tail_raises(self):
        # R = 20: sigma(l) is still far from its limit at l = 20..29
        q = _medium(0.01, 20.0, (0.01, 20.0), 2.5, (1.0, 12.0))
        data = sc.phase_shifts(q, iv.flux_tail(29), rtol=1e-11)
        with pytest.raises(InsufficientTail, match="spreads"):
            iv.recover_flux(data)

    def test_tail_table_matches_full_table(self, q_bump_step):
        # orders share steps within a batch block, so this identity is a
        # property of this medium's tail, checked bit for bit
        full = sc.phase_shifts(q_bump_step, (0, 40), rtol=1e-11)
        tail = sc.phase_shifts(q_bump_step, iv.flux_tail(40), rtol=1e-11)
        assert tail.l_values == list(range(31, 41))
        assert all(tail.sigma(l) == full.sigma(l) for l in tail.l_values)
        assert iv.recover_flux(tail) == iv.recover_flux(full)


class TestDiscriminator:
    def test_identical_media(self, q_step):
        rep = iv.discriminator_F(q_step, q_step, [1, 5, 10], rtol=1e-11)
        assert rep.max_abs <= 1e-7

    def test_distinct_step_heights(self, q_step, q_step_05):
        rep = iv.discriminator_F(q_step, q_step_05, [1, 5, 10], rtol=1e-11)
        # the identity itself: both routes agree relative to product scale
        for l, v in rep.agreement().items():
            assert v <= 1e-6
        # strict two-route relative agreement where double precision can
        # resolve the difference (scale ~ Gamma(nu)^2 cancellation floor)
        lhs, rhs = dict(zip(rep.l_list, rep.lhs)), dict(zip(rep.l_list, rep.rhs))
        for l in (1, 5):
            a, b = lhs[l], rhs[l]
            assert abs(a - b) <= 1e-6 * abs(b)
        # genuinely distinct media: F(1) well away from zero
        assert abs(lhs[1]) >= 1e-3

    def test_close_breakpoints_resolved(self):
        # steps ending at 1.0 and 1.001 put two breakpoints one 1e-3 cell
        # apart; each Hermite panel reads only its own two end nodes
        def medium(height, end):
            return fl.effective_potential(fl.Medium(
                fl.step_profile(height, 0.5, end), fl.bump_field(0.3, 0.8, 1.6), 0.5, 2.0))
        rep = iv.discriminator_F(medium(0.3, 1.0), medium(0.5, 1.001), [1], rtol=1e-11)
        assert rep.agreement()[1] <= 3e-13

    def test_different_support_radii(self):
        # the smaller R is a jump of q - q~ inside the common support: the
        # default grid holds it as a node, and each medium's Jost data
        # start at its own R
        def medium(R):
            return fl.effective_potential(fl.Medium(
                fl.step_profile(0.3, 0.5, R), fl.bump_field(0.3, 0.8, 1.6), 0.5, R))
        rep = iv.discriminator_F(medium(2.0), medium(1.9), [1, 3], rtol=1e-12)
        assert max(rep.agreement().values()) <= 1e-12

    def test_flux_mismatch_raises(self, q_step, q_bump_step):
        with pytest.raises(FluxMismatch):
            iv.discriminator_F(q_step, q_bump_step, [1])

    def test_growth_envelope(self, q_step, q_step_05):
        # |F(nu)| <= C^2 |nu| / (|nu_R|+1)^2 (R/r0)^{2 Re nu_R}: the
        # weighted quantity stays bounded on the real axis
        rep = iv.discriminator_F(q_step, q_step_05, [1, 3, 5, 8], rtol=1e-11)
        weighted = []
        for l, rhs in zip(rep.l_list, rep.rhs):
            f = abs(rhs)
            weighted.append(f * (l + 1.0) ** 2 / (max(l, 1) * 4.0 ** (2 * l)))
        assert max(weighted) <= 10.0 * weighted[0]

    def test_report_serialization(self, q_step, q_step_05, tmp_path):
        import csv
        import json
        rep = iv.discriminator_F(q_step, q_step_05, [1, 2], rtol=1e-10)
        cpath = tmp_path / "disc.csv"
        rep.to_csv(cpath)
        rows = list(csv.reader(open(cpath)))
        assert rows[0] == ["l", "re_F", "im_F", "rel_disagreement"]
        jpath = tmp_path / "disc.json"
        rep.to_json(jpath)
        doc = json.loads(jpath.read_text())
        assert doc["schema_version"] == 1 and len(doc["records"]) == 2


class TestBorgMarchenko:
    def test_identical_media_vanish(self, q_step):
        rng = np.random.default_rng(41)
        nus = [complex(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(50)]
        vals = iv.borg_marchenko_F(q_step, q_step, 0.7, nus, rtol=1e-11)
        # |F+ F~-| + |F- F~+|: the cancellation scale of F(r, nu)
        fp, fm, gp, gm = (f for q in (q_step, q_step)
                          for f in rd.jost_endpoints(q, nus, rtol=1e-11, r=0.7)[::2])
        scales = np.abs(fp) * np.abs(gm) + np.abs(fm) * np.abs(gp)
        for v, scale in zip(vals, scales):
            assert abs(v) <= 1e-8 * max(1.0, scale)

    def test_distinct_media_witness(self, q_step, q_step_05):
        vals = iv.borg_marchenko_F(q_step, q_step_05, 0.5, [0, 1, 2, 5], rtol=1e-11)
        assert max(abs(v) for v in vals) >= 1e-3

    def test_reconstruction_identity_real_axis(self, q_step, q_step_05):
        for nu in (1.0, 3.0):
            direct = iv.borg_marchenko_F(q_step, q_step_05, 0.9, [nu], rtol=1e-11)[0]
            recon = ref.borg_marchenko_reconstructed(q_step, q_step_05, 0.9, nu,
                                                     rtol=1e-11)
            assert abs(direct - recon) <= 1e-8 * max(1.0, abs(direct))

    def test_reconstruction_beyond_support(self):
        # V steps down to 0 at R: the regular solve past R must not step
        # across that jump
        b = fl.bump_field(0.3, 0.8, 1.6)
        qa, qb = (fl.effective_potential(fl.Medium(fl.step_profile(v, 0.5, 2.0),
                                                   b, 0.5, 2.0)) for v in (0.3, 0.5))
        for r in (4.0, 10.0):
            direct = iv.borg_marchenko_F(qa, qb, r, [1.5])[0]
            recon = ref.borg_marchenko_reconstructed(qa, qb, r, 1.5)
            assert abs(direct - recon) <= 1e-10 * max(1.0, abs(direct))

    def test_radius_validation(self, q_step):
        with pytest.raises(ValueError):
            iv.borg_marchenko_F(q_step, q_step, 0.1, [1.0])


class TestDecoupling:
    def test_same_medium(self, q_bump_step):
        grid = rd.make_grid(0.5, 2.0, 256)
        rep = iv.decouple_potentials(q_bump_step, q_bump_step, grid)
        assert rep.gamma_match and rep.V_match
        assert max(rep.max_dev_gamma, rep.max_dev_V) <= 1e-12

    def test_differing_potential_only(self, q_step, q_step_05):
        grid = rd.make_grid(0.5, 2.0, 256)
        rep = iv.decouple_potentials(q_step, q_step_05, grid)
        assert rep.gamma_match and not rep.V_match
        assert rep.max_dev_V == pytest.approx(0.2, abs=1e-12)

    def test_differing_field_same_flux(self):
        grid = rd.make_grid(0.5, 2.0, 256)
        qa = fl.effective_potential(
            fl.Medium(fl.zero_profile(), fl.bump_field(0.3, 0.8, 1.6), 0.5, 2.0))
        qb = fl.effective_potential(
            fl.Medium(fl.zero_profile(), fl.bump_field(0.3, 0.7, 1.8), 0.5, 2.0))
        rep = iv.decouple_potentials(qa, qb, grid)
        assert not rep.gamma_match
        assert rep.V_match

    def test_ill_conditioned_pair(self, q_step):
        grid = rd.make_grid(0.5, 2.0, 256)
        with pytest.raises(IllConditioned):
            iv.decouple_potentials(q_step, q_step, grid, nu_pair=(1.0, 1.0 + 1e-9))


class TestZeroDiscriminatorConsistency:
    def test_zero_F_implies_matching_shifts(self, q_ab):
        # two media with identical exterior data: F small and the phase
        # shift tables coincide
        other = fl.effective_potential(
            fl.Medium(fl.zero_profile(), fl.bump_field(0.5, 0.05, 0.45), 0.5, 0.45))
        rep = iv.discriminator_F(q_ab, other, [1, 5, 10, 20], rtol=1e-11)
        assert rep.max_abs <= 1e-7
        da = sc.phase_shifts(q_ab, (1, 10))
        db = sc.phase_shifts(other, (1, 10))
        for ra, rb in zip(da.records, db.records):
            assert abs(ra.delta - rb.delta) <= 1e-6


class TestBatchedJostSolves:
    def test_one_jost_read_per_medium(self, q_step, q_step_05, monkeypatch):
        calls, regular_calls = [], []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return rd.jost_endpoints(*args, **kwargs)

        def counting_regular(*args, **kwargs):
            regular_calls.append(args[1])
            return rd.regular_solve(*args, **kwargs)

        monkeypatch.setattr(iv, "jost_endpoints", counting)
        monkeypatch.setattr(sc, "jost_endpoints", counting)
        monkeypatch.setattr(iv, "regular_solve", counting_regular)
        ls = [1, 2, 3, 5, 8, 10]
        iv.discriminator_F(q_step, q_step_05, ls)
        assert len(calls) == 2
        assert len(regular_calls) == 2
        iv.borg_marchenko_F(q_step, q_step_05, 0.7, ls)
        assert len(calls) == 4
        assert all(list(nus) == ls for nus in calls)


class TestSharedJostConvention:
    """scattering and inverse read alpha, beta and sigma the same way, bit for bit."""

    def test_discriminator_uses_jost_functions(self, q_step, q_step_05):
        ls = [1, 3]
        rep = iv.discriminator_F(q_step, q_step_05, ls)
        # the same batch: batch peers would move the last bits
        pairs = zip(sc.jost_functions_many(q_step, ls),
                    sc.jost_functions_many(q_step_05, ls))
        for i, (a, b) in enumerate(pairs):
            assert rep.lhs[i] == 2j * (a.alpha * b.beta - b.alpha * a.beta)
            assert rep.scale[i] == abs(a.alpha * b.beta) + abs(b.alpha * a.beta)

    def test_regge_sigma_is_sigma_many(self, q_bump_step):
        for nu in (2, 1.5 + 1j):
            assert sc.regge_sigma(q_bump_step, nu) == sc.sigma_many(q_bump_step, [nu])[0]
