"""Acceptance gate: one test per criterion, desk scale r0 = 0.5, R = 2, lmax = 40.

Each test prints a PASS line with the measured value once its assertions
hold; run with `pytest -v -s tests/test_acceptance.py` to see them.
Residuals of quantities that reach 1e10..1e70 (Wronskians, Jost-function
products) are measured relative to the size of the products involved,
floored at 1: beyond |nu_R| ~ 5 the absolute residual of any
double-precision subtraction exceeds the target by orders of magnitude,
so the scaled residual is what a double-precision build can honestly
certify.  At order ~1 the floor makes the check absolute.
"""

import cmath
import math

import numpy as np
import pytest

from camscat import fields as fl
from camscat import inverse as iv
from camscat import radial as rd
from camscat import scattering as sc
from camscat import specfun as sf
from camscat import verification as vf

import reference as ref
from oracles import step_oracle

R0, RSUP = 0.5, 2.0
LIM = {1: "PASS", 0: "FAIL"}


def report(num, ok, text):
    print(f"\nACCEPTANCE {num:02d} [{LIM[int(ok)]}] {text}")
    assert ok


@pytest.fixture(scope="module")
def media():
    out = {
        "zero": fl.Medium(fl.zero_profile(), fl.zero_profile(), R0, RSUP),
        "step": fl.Medium(fl.step_profile(0.3, R0, RSUP), fl.zero_profile(),
                          R0, RSUP),
        "step5": fl.Medium(fl.step_profile(0.5, R0, RSUP), fl.zero_profile(),
                           R0, RSUP),
        "bump_step": fl.Medium(fl.step_profile(0.3, R0, RSUP),
                               fl.bump_field(0.3, 0.8, 1.6), R0, RSUP),
        "bump_field": fl.Medium(fl.zero_profile(), fl.bump_field(0.3, 0.8, 1.6),
                                R0, RSUP),
        "ab": fl.Medium(fl.zero_profile(), fl.bump_field(0.5, 0.1, 0.4),
                        R0, 0.45),
    }
    return {k: fl.effective_potential(m) for k, m in out.items()}


def test_criterion_01_special_function_identities():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(40):
        nu = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        r = float(rng.uniform(0.3, 4.0))
        a = sf.bessel_h(nu, r)
        b = sf.bessel_h(np.conj(nu), r)
        worst = max(worst, abs(np.conj(a.H1) - b.H2) / max(1.0, abs(a.H1)))
        c = sf.bessel_h(-nu, r)
        rhs1 = np.exp(1j * np.pi * nu) * a.H1
        rhs2 = np.exp(-1j * np.pi * nu) * a.H2
        worst = max(worst, abs(c.H1 - rhs1) / max(1.0, abs(rhs1)))
        worst = max(worst, abs(c.H2 - rhs2) / max(1.0, abs(rhs2)))
    for y in (1.0, 2.0, 5.0, 10.0):
        g = sf.gamma_complex(1j * y)
        worst = max(worst, abs(abs(g) ** 2 - math.pi / (y * math.sinh(math.pi * y))))
    report(1, worst <= 1e-10,
           f"symmetry relations and |Gamma(iy)|^2: worst residual {worst:.2e}")


def test_criterion_02_wronskian_conservation(media):
    rng = np.random.default_rng(102)
    reals = np.concatenate([np.linspace(-40, 40, 60), rng.uniform(-40, 40, 20)])
    imags = 1j * np.concatenate([np.linspace(-40, 40, 40), rng.uniform(-40, 40, 20)])
    diag = [rho * cmath.exp(1j * th) for rho in np.linspace(2, 40, 15)
            for th in (math.pi / 4, 3 * math.pi / 4, -math.pi / 4, -3 * math.pi / 4)]
    worst = 0.0
    for key in ("step", "bump_field", "bump_step"):
        q = media[key]
        nus = np.concatenate([reals + q.flux_over_2pi, imags + q.flux_over_2pi,
                              np.asarray(diag)])
        nus = nus[np.argsort(np.abs(nus))]          # batch peers of similar size
        assert len(nus) == 200
        grid = rd.grid_for(q, 1024)
        worst = max(worst, rd.wronskian_residual(
            *rd.jost_solve(q, nus, grid, rtol=1e-10)))
    report(2, worst <= 1e-8,
           f"W(F+, F-) = -2i over 3 media x 200 nu x full grid: "
           f"worst scaled residual {worst:.2e}")


def test_criterion_03_zero_perturbation_exactness(media):
    q = media["zero"]
    grid = rd.grid_for(q, 1024)
    worst = 0.0
    for nu in (0.5, 1.0, 4.0, 9.0):
        read = rd.jost_solve(q, [nu], grid)
        for sign, k in ref.SIGN.items():
            f = read[k][:, 0]
            f0, df0 = ref.free_jost(sign, nu, grid.r_points)
            worst = max(worst, float(np.max(
                np.abs(f - f0) / np.maximum(1.0, np.abs(f0)))))
    fp, _, fm, _ = (f[:, 0] for f in rd.jost_solve(q, [0.5], grid))
    plane = np.exp(1j * grid.r_points)
    worst_half = float(np.max(np.abs(fp - plane)))
    worst_half = max(worst_half, float(np.max(np.abs(fm - np.conj(plane)))))
    ok = worst <= 1e-10 and worst_half <= 1e-10
    report(3, ok, f"q = 0 gives F0 to {worst:.2e}; "
                  f"nu_R = 1/2 gives e^(+-ir) to {worst_half:.2e}")


def test_criterion_04_step_potential_oracle(media):
    q = media["step"]
    worst_ab = 0.0
    worst_delta = 0.0
    jfs = sc.jost_functions_many(q, list(range(11)), rtol=1e-12)
    for l, jf in enumerate(jfs):
        a_o, b_o, s_o = step_oracle(l, 0.3, R0, RSUP)
        worst_ab = max(worst_ab, abs(jf.alpha - a_o) / max(1.0, abs(a_o)),
                       abs(jf.beta - b_o) / max(1.0, abs(b_o)))
        sigma = cmath.exp(1j * math.pi * (l + 0.5)) * jf.alpha / jf.beta
        d = 0.5 * cmath.phase(sigma / s_o)          # delta mismatch mod pi
        worst_delta = max(worst_delta, abs(d))
    ok = worst_ab <= 1e-7 and worst_delta <= 1e-7
    report(4, ok, f"step oracle l = 0..10: Jost functions {worst_ab:.2e}, "
                  f"delta (mod pi) {worst_delta:.2e}")


def test_criterion_05_field_reflection_symmetry(media):
    q = media["bump_field"]
    q_neg = fl.effective_potential(fl.mirror(q.medium))
    grid = rd.grid_for(q, 1024)
    worst = 0.0
    for nu in (1.0, -1.0, 3.2, -3.2, 7.0, -7.0):
        pair_a = rd.jost_solve(q, [nu], grid)
        pair_b = rd.jost_solve(q_neg, [-nu], grid)
        for k in ref.SIGN.values():
            a, b = pair_a[k], pair_b[k]
            worst = max(worst, float(np.max(
                np.abs(a - b) / np.maximum(1.0, np.abs(a)))))
    report(5, worst <= 1e-9,
           f"F_gamma(r, nu) = F_(-gamma)(r, -nu): worst scaled deviation {worst:.2e}")


def test_criterion_06_sigma_limits(media):
    # sigma(l) -> e^{+i pi gamma(R)} at +infinity and e^{-i pi gamma(R)} at
    # -infinity: the free closed form and the classical flux-shifted
    # hard-disk phases fix the signs; the distances to the swapped
    # (conjugate) limits are printed alongside for the record
    q = media["bump_field"]
    lim_pos = cmath.exp(1j * math.pi * 0.3)
    lim_neg = cmath.exp(-1j * math.pi * 0.3)
    sig_pos = sc.sigma_many(q, list(range(31, 41)), rtol=1e-11)
    sig_neg = sc.sigma_many(q, list(range(-40, -30)), rtol=1e-11)[::-1]
    dev_pos = [abs(s - lim_pos) for s in sig_pos]
    dev_neg = [abs(s - lim_neg) for s in sig_neg]
    mono = all(b <= a + 1e-12 for a, b in zip(dev_pos, dev_pos[1:])) and \
        all(b <= a + 1e-12 for a, b in zip(dev_neg, dev_neg[1:]))
    # resolvable decay at moderate l (the far tail sits at solver noise)
    lead = [abs(s - lim_pos) for s in sc.sigma_many(q, [5, 8, 12], rtol=1e-11)]
    ok = dev_pos[-1] <= 0.05 and dev_neg[-1] <= 0.05 and mono \
        and lead[0] > lead[1] > lead[2]
    report(6, ok,
           f"|sigma(40) - e^(+0.3 i pi)| = {dev_pos[-1]:.2e}, "
           f"|sigma(-40) - e^(-0.3 i pi)| = {dev_neg[-1]:.2e}, monotone tails; "
           f"swapped-sign limits would sit at "
           f"{abs(sig_pos[-1] - lim_neg):.2f}/{abs(sig_neg[-1] - lim_pos):.2f}")


def test_criterion_07_flux_closed_loop(media):
    cases = [
        ("flux -0.7", fl.Medium(fl.step_profile(0.4, 0.6, 1.9),
                                fl.bump_field(-0.7, 0.7, 1.7), R0, RSUP), -0.7),
        ("flux -0.3", fl.Medium(fl.zero_profile(),
                                fl.bump_field(-0.3, 0.8, 1.6), R0, RSUP), -0.3),
        ("flux 0 (zero medium)", media["zero"].medium, 0.0),
        ("flux 0.3 (bump+step)", media["bump_step"].medium, 0.3),
        ("flux 0.5 (pure Aharonov-Bohm)", media["ab"].medium, 0.5),
    ]
    worst = 0.0
    for name, med, truth in cases:
        q = fl.effective_potential(med)
        data = sc.phase_shifts(q, (0, 40), rtol=1e-9)
        est = iv.recover_flux(data)
        err = abs(est.flux_over_2pi_mod2 - truth)
        worst = max(worst, err)
    report(7, worst <= 1e-3,
           f"recovered flux across 5 media in [-0.7, 0.7]: worst error {worst:.2e}")


def test_criterion_08_algebraic_identity(media):
    pairs = [("step vs step5", media["step"], media["step5"]),
             ("bump_step vs bump_field+step5",
              media["bump_step"],
              fl.effective_potential(fl.Medium(
                  fl.step_profile(0.5, R0, RSUP),
                  fl.bump_field(0.3, 0.8, 1.6), R0, RSUP)))]
    ls = [1, 5, 10, 20]
    worst_scaled = 0.0
    worst_strict = 0.0
    for name, qa, qb in pairs:
        rep = iv.discriminator_F(qa, qb, ls, rtol=1e-11)
        worst_scaled = max(worst_scaled, max(rep.agreement().values()))
        lhs, rhs = dict(zip(rep.l_list, rep.lhs)), dict(zip(rep.l_list, rep.rhs))
        for l in (1, 5):
            a, b = lhs[l], rhs[l]
            worst_strict = max(worst_strict, abs(a - b) / abs(b))
    rep_same = iv.discriminator_F(media["step"], media["step"], ls, rtol=1e-11)
    ident = rep_same.max_abs
    ok = worst_scaled <= 1e-6 and worst_strict <= 1e-6 and ident <= 1e-7
    report(8, ok,
           f"two-route agreement: strict {worst_strict:.2e} (l = 1, 5), "
           f"product-scaled {worst_scaled:.2e} (l = 1..20); "
           f"identical pair max |F| {ident:.2e}")


def test_criterion_09_bound_suites(media):
    q = media["bump_step"]
    flux = q.flux_over_2pi
    # N kernel on the real axis and on the imaginary axis, grid doubling
    drift = []
    for nus in ([flux + k for k in range(1, 41)],
                [flux + 1j * y for y in range(5, 41, 5)]):
        r33 = vf.verify_kernel_bounds(R0, RSUP, nus, flux, n_grid=33)
        r65 = vf.verify_kernel_bounds(R0, RSUP, nus, flux, n_grid=65)
        lo, hi = sorted((r33.c_emp, r65.c_emp))
        drift.append(hi / lo)
    # M kernel stays bounded with the same constant scale
    m_sup = 0.0
    grid9 = np.linspace(R0, RSUP, 9)
    for nu_R in (5.0, 10.0, 20.0, 40.0):
        for i, rr in enumerate(grid9):
            for ss in grid9[i + 1:]:
                m_sup = max(m_sup, abs(ref.kernel_M(rr, ss, flux + nu_R, flux))
                            * (abs(nu_R) + 1))
    # regular-solution bound under grid refinement
    nus = [flux + x for x in (1.0, 5.0, 15.0, 30.0, 40.0)] + [flux + 20j]
    rep = vf.verify_regular_bound(q, nus, rd.grid_for(q, 512), rtol=1e-9)
    lo, hi = sorted((rep.c_emp, rep.c_emp_alt))
    drift.append(hi / lo)
    # K kernel ratio at nu_R = 30
    k_ratio = ref.kernel_K(0.6, 0.9, flux + 30.0, flux) * 61.0 / 0.9
    ok = max(drift) <= 2.0 and m_sup <= 2.0 and abs(k_ratio - 1) <= 0.15
    report(9, ok,
           f"bound constants stable (drift <= {max(drift):.3f}x), "
           f"sup |M|(|nu|+1) = {m_sup:.3f}, K ratio dev {abs(k_ratio - 1):.3f}")


def test_criterion_10_solver_cross_validation(media):
    q = media["bump_step"]
    grid = rd.grid_for(q, 1024)
    flux = q.flux_over_2pi
    worst = 0.0
    for nu_R in (1.0, 5.0, 20.0):
        read = rd.jost_solve(q, [flux + nu_R], grid)
        for sign, k in ref.SIGN.items():
            so = read[k][:, 0]
            sv, _, _ = ref.jost_solve_volterra(q, sign, flux + nu_R, grid)
            worst = max(worst, float(np.max(
                np.abs(so - sv) / np.maximum(1.0, np.abs(so)))))
    report(10, worst <= 1e-7,
           f"adaptive ODE vs Picard iteration, Re(nu_R) in (1, 5, 20): "
           f"sup deviation {worst:.2e}")


def test_criterion_11_jost_to_free_ratio(media):
    q = media["bump_step"]
    flux = q.flux_over_2pi
    nu = flux + 40.0
    devs = {}
    for r in (R0, 0.5 * (R0 + RSUP), RSUP):
        cr = ref.c_r_factor(q, r)
        f = rd.jost_endpoints(q, [nu], rtol=1e-12, r=r)[0]
        f0, _ = ref.free_jost("plus", nu, r, flux)
        devs[r] = abs(f[0] / f0 - cr) / cr
    at_R = devs[RSUP]
    ok = max(devs.values()) <= 0.05 and at_R <= 1e-9
    report(11, ok,
           f"F+/F0+ vs C_r at nu_R = 40: deviations "
           + ", ".join(f"{r:g}: {d:.2e}" for r, d in devs.items())
           + " (exact free data at r = R)")
