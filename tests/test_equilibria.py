from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from sitcarpet.config import table1_params
from sitcarpet.equilibria import (
    _wave_integrand,
    offspring_number,
    phi,
    phi0,
    phi_s_eps,
    potential_G,
    scale_until,
    solve_equilibria,
    solve_gamma_0,
    solve_zeta_c,
    thresholds,
    zeta_of_gamma,
)


class TestScaleUntil:
    def test_grows_to_first_satisfying_power(self):
        seen = []

        def pred(x):
            seen.append(x)
            return x >= 10.0

        assert scale_until(pred, 1.0, 2.0, 1e6) == 16.0
        assert seen == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_shrinks_to_first_satisfying_power(self):
        assert scale_until(lambda x: x < 0.1, 1.0, 0.5, 1e-9) == 0.0625

    def test_start_already_satisfying(self):
        assert scale_until(lambda x: True, 3.0, 2.0, 1.0) == 3.0

    def test_none_past_the_limit(self):
        assert scale_until(lambda x: x > 100.0, 1.0, 2.0, 50.0) is None
        assert scale_until(lambda x: x < 0.01, 1.0, 0.5, 0.1) is None

    def test_limit_itself_is_still_tried(self):
        assert scale_until(lambda x: x >= 8.0, 1.0, 2.0, 8.0) == 8.0
        assert scale_until(lambda x: x <= 0.25, 1.0, 0.5, 0.25) == 0.25


def test_offspring_number_and_zeta(p05):
    N = offspring_number(p05)
    assert N == pytest.approx(10 * 0.5 * 0.08 / (0.1 * 0.13), rel=1e-12)
    assert zeta_of_gamma(p05, 0.5) == pytest.approx(0.035, rel=1e-12)


def test_zeta_c_residual(p05):
    N = offspring_number(p05)
    zc = solve_zeta_c(N)
    s = np.sqrt(4 * zc * N + 1)
    lhs = (1 + s) / (2 * N)
    rhs = 1 - zc * np.log((2 * zc * N + 1 + s) / (2 * zc * N))
    assert abs(lhs - rhs) < 1e-10


def test_published_thresholds(p05):
    rep = thresholds(p05)
    assert rep.gamma_c == pytest.approx(2.351e-3, rel=0.02)
    assert rep.gamma_0 == pytest.approx(4.3e-2, rel=0.05)
    assert rep.zeta_c == pytest.approx(7.44, rel=0.01)
    # consistency gamma_c = mu_M / ((1-rho) nu_E zeta_c K)
    assert rep.gamma_c == pytest.approx(
        0.14 / (0.5 * 0.08 * rep.zeta_c * 200), rel=1e-12)
    assert rep.regime == "BistableAboveGamma0"


def test_gamma0_for_smaller_gamma_experiment():
    rep = thresholds(table1_params(0.01))
    assert rep.gamma_0 == pytest.approx(1.5e-2, rel=0.05)
    assert rep.regime == "BistableBetweenGammaCAndGamma0"


def test_regime_below_gamma_c():
    rep = thresholds(table1_params(1e-4))
    assert rep.regime == "BistableBelowGammaC"
    assert solve_equilibria(table1_params(1e-4)).upper is None


def test_monostable_report(p05):
    rep = thresholds(table1_params(None))
    assert rep.regime == "Monostable"
    assert rep.zeta is None and rep.gamma_0 is None
    assert rep.gamma_c == pytest.approx(2.351e-3, rel=0.02)


def test_natural_extinction_flagged():
    rep = thresholds(table1_params(0.5, b=0.1))  # N < 1
    assert rep.natural_extinction
    assert rep.zeta_c is None and rep.gamma_c is None


def test_equilibria_published_values(eq05):
    assert eq05.upper[2] == pytest.approx(77.4, rel=0.005)
    eq001 = solve_equilibria(table1_params(0.01))
    assert eq001.upper[2] == pytest.approx(30.12, rel=0.005)


def test_equilibrium_residuals(eq05, p05):
    # rel_stat1 and rel_stat2 hold to 1e-8 relative at both positive states
    N = offspring_number(p05)
    for E, M, F in (eq05.middle, eq05.upper):
        assert M == pytest.approx((1 - p05.rho) * p05.nu_E * E / p05.mu_M,
                                  rel=1e-8)
        assert E == pytest.approx(
            p05.b * F / (p05.b * F / p05.K_scalar + p05.mu_E + p05.nu_E),
            rel=1e-8)
        lhs = 1.0 - np.exp(-0.5 * phi0(p05, F))
        rhs = p05.mu_F * F / (p05.rho * p05.nu_E * p05.K_scalar) + 1.0 / N
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_equilibria_ordering_and_stability(eq05):
    assert all(a < b for a, b in zip(eq05.middle, eq05.upper))
    assert eq05.extinction_stable
    assert eq05.middle_stable is False
    assert eq05.upper_stable is True


def test_monostable_closed_form():
    p = table1_params(None)
    eqs = solve_equilibria(p)
    N = offspring_number(p)
    F_star = p.K_scalar * (p.mu_E + p.nu_E) * (N - 1) / p.b
    assert eqs.upper[2] == pytest.approx(F_star, rel=1e-12)
    assert eqs.upper[0] == pytest.approx(p.mu_F * F_star / (p.rho * p.nu_E),
                                         rel=1e-12)
    assert not eqs.extinction_stable
    assert eqs.upper_stable
    # below threshold the positive state disappears
    assert solve_equilibria(table1_params(None, b=0.1)).upper is None


def test_rel_stat3_sign_pattern(p05, eq05):
    N = offspring_number(p05)
    F1, Fs = eq05.middle[2], eq05.upper[2]
    line = lambda F: p05.mu_F * F / (p05.rho * p05.nu_E * p05.K_scalar) + 1 / N
    curve = lambda F: 1.0 - np.exp(-0.5 * phi0(p05, F))
    for F in np.linspace(F1 * 0.01, F1 * 0.99, 100):
        assert curve(F) < line(F)
    for F in np.linspace(F1 * 1.01, Fs * 0.999, 100):
        assert curve(F) > line(F)


def test_equilibrium_monotonicity_in_gamma():
    gams = np.geomspace(3e-3, 1.0, 12)
    uppers, middles = [], []
    for g in gams:
        eqs = solve_equilibria(table1_params(g))
        uppers.append(eqs.upper[2])
        middles.append(eqs.middle[2])
    assert np.all(np.diff(uppers) >= -1e-10)
    assert np.all(np.diff(middles) <= 1e-10)


def test_large_gamma_solves_without_overflow():
    # from gamma ~ 13 on, the m-equation overflows at the bracket's top end
    # m = 1 - 1e-16; only its sign is read, and the suite turns an
    # overflow warning into an error
    eqs = solve_equilibria(table1_params(20.0))
    assert eqs.middle is not None and eqs.upper is not None
    assert eqs.middle[2] < eqs.upper[2]
    assert eqs.upper_stable and not eqs.middle_stable


def test_degenerate_tangency_flagged():
    # tune gamma until the m-equation peak sits within the tangency band
    from sitcarpet.equilibria import solve_m0, zeta_of_gamma
    base = table1_params(0.5)
    N = offspring_number(base)

    def peak(gamma):
        zeta = zeta_of_gamma(base, gamma)
        m0 = solve_m0(zeta)
        return N * (1 - np.exp(-m0 / zeta)) * (1 - m0) - 1.0

    lo, hi = 2.0e-3, 3.0e-3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if peak(mid) < 0:
            lo = mid
        else:
            hi = mid
    eqs = solve_equilibria(table1_params(0.5 * (lo + hi)))
    assert eqs.degenerate
    assert eqs.middle is None and eqs.upper is not None


def test_phi0_limits(p05, eq05):
    assert phi0(p05, 0.0) == 0.0
    cap = (1 - p05.rho) * p05.nu_E * p05.K_scalar / p05.mu_M
    assert phi0(p05, 1e12) == pytest.approx(cap, rel=1e-6)
    E, M, F = eq05.upper
    assert phi0(p05, F) == pytest.approx(M, rel=1e-9)


def test_phi_limits_and_bound(p05, eq05, rng):
    Fs = eq05.upper[2]
    M_star = eq05.upper[1]
    assert phi(p05, 0.0, Fs) == 0.0
    assert phi(p05, Fs * (1 - 1e-15), Fs) == pytest.approx(M_star / 2, rel=1e-6)
    assert phi(p05, Fs, Fs) == pytest.approx(M_star / 2, rel=1e-6)
    F = rng.uniform(0, Fs, 100)
    assert np.all(phi(p05, F, Fs) <= phi0(p05, F) + 1e-12)
    assert np.all(phi(p05, F, Fs) >= 0)


def test_phi_s_eps(p05, eq05):
    Fs = eq05.upper[2]
    assert phi_s_eps(p05, 0.7, 0.0, Fs) == pytest.approx(0.7)
    assert phi_s_eps(p05, 0.7, Fs, Fs) == 0.0
    p_eq = table1_params(0.5, mu_s=p05.mu_F)
    assert phi_s_eps(p_eq, 0.8, Fs / 2, Fs) == pytest.approx(0.4, rel=1e-12)


def test_potential_G_basics(p05, eq05):
    Fs = eq05.upper[2]
    assert potential_G(p05, Fs, 0.0) == 0.0
    assert potential_G(p05, Fs, Fs) > 0  # gamma = 0.5 > gamma_0
    # monostable variant positive whenever N > 1
    mono = table1_params(None)
    Fs_m = solve_equilibria(mono).upper[2]
    assert potential_G(mono, Fs_m, Fs_m) > 0


def test_potential_G_against_adaptive_quadrature(p05, eq05):
    Fs = eq05.upper[2]
    for F_hi, eps in ((Fs, None), (0.6 * Fs, None), (Fs, 1e-3)):
        oracle = quad(
            lambda u: float(_wave_integrand(p05, Fs, np.array([u]),
                                            eps)[0]),
            0, F_hi, limit=200)[0]
        assert potential_G(p05, Fs, F_hi, eps=eps) == pytest.approx(
            oracle, rel=1e-9, abs=1e-12)


def test_gamma0_brackets_sign_change(p05, eq05):
    Fs = eq05.upper[2]
    g0 = solve_gamma_0(p05)
    assert potential_G(replace(p05, gamma=g0 * 1.001), Fs, Fs) > 0
    assert potential_G(replace(p05, gamma=g0 * 0.999), Fs, Fs) < 0
    rep = thresholds(p05)
    assert g0 > rep.gamma_c

