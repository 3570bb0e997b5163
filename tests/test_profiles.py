import numpy as np
import pytest

from sitcarpet.config import table1_params
from sitcarpet.equilibria import phi, phi0, solve_equilibria
from sitcarpet.profiles import (
    MonotoneProfile,
    build_stationary_F,
    build_stationary_M,
    find_eps0,
    halfline_green_lower_bound,
    halfline_green_solve,
)


class TestLemma1:
    def test_constant_psi_closed_form(self):
        mu, c = 0.37, 4.2
        xs = np.linspace(0, 25, 400)
        u = halfline_green_solve(mu, lambda y: np.full(np.shape(y), c), xs)
        exact = c / mu * (1 - np.exp(-np.sqrt(mu) * xs))
        assert np.allclose(u, exact, rtol=1e-9, atol=1e-12)

    def test_zero_psi(self):
        u = halfline_green_solve(1.0, lambda y: np.zeros(np.shape(y)),
                         np.linspace(0, 10, 50))
        assert np.all(u == 0.0)

    def test_random_step_lower_bound(self, rng):
        # ten random nondecreasing staircases, bound checked at all nodes
        for _ in range(10):
            mu = float(rng.uniform(0.05, 1.0))
            knots = np.sort(rng.uniform(0, 15, 6))
            vals = np.cumsum(rng.uniform(0, 3, 7))

            def psi(y):
                return vals[np.searchsorted(knots, np.asarray(y, float))]

            xs = np.linspace(0.0, 30, 700)
            u = halfline_green_solve(mu, psi, xs)
            lb = halfline_green_lower_bound(mu, psi(xs), xs)
            assert np.all(u >= lb - 1e-10 * max(vals.max(), 1.0))
            assert np.all(np.diff(u) >= -1e-10)
            assert u[0] == pytest.approx(0.0, abs=1e-12)

    def test_limit_value(self):
        mu = 0.2
        psi = lambda y: 3.0 - 2.0 * np.exp(-np.asarray(y, float))
        u = halfline_green_solve(mu, psi, np.array([250.0]), psi_limit=3.0)
        assert u[0] == pytest.approx(3.0 / mu, rel=1e-9)

    def test_rejects_decreasing_psi(self):
        with pytest.raises(ValueError):
            halfline_green_solve(0.5, lambda y: 5.0 - np.asarray(y, float),
                         np.linspace(0, 3, 10))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            halfline_green_solve(-1.0, lambda y: np.ones(np.shape(y)), 1.0)
        with pytest.raises(ValueError):
            halfline_green_solve(1.0, lambda y: np.ones(np.shape(y)), -1.0)


class TestMonotoneProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonotoneProfile(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            MonotoneProfile(np.array([0.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            MonotoneProfile(np.array([0.0, 1.0]), np.array([0.0, 2.0]), 1.0)

    def test_call_extends_by_limit(self):
        prof = MonotoneProfile(np.array([0.0, 1.0, 2.0]),
                               np.array([0.0, 0.5, 0.9]), 1.0)
        assert prof(5.0) == 1.0
        assert prof(0.5) == pytest.approx(0.25)


@pytest.fixture(scope="module")
def F_prof(p05):
    return build_stationary_F(p05)


@pytest.fixture(scope="module")
def M_prof(p05, F_prof):
    return build_stationary_M(p05, F_prof)


class TestStationaryProfiles:
    def test_limit_between_equilibria(self, F_prof, eq05):
        F1, Fs = eq05.middle[2], eq05.upper[2]
        assert F1 < F_prof.limit <= Fs
        assert np.all(np.diff(F_prof.values) >= -1e-12)

    def test_profile_solves_its_ode(self, p05, F_prof):
        # -D F'' equals the potential derivative along the profile; the
        # second difference carries its h^2 F'''' truncation, largest in the
        # steep takeoff, so the gate tightens away from it
        from sitcarpet.equilibria import _wave_integrand
        x = F_prof.grid
        v = F_prof.values
        h = x[1] - x[0]
        lap = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        rhs = _wave_integrand(p05, solve_equilibria(p05).upper[2],
                              v[1:-1], None)
        resid = np.abs(-p05.D * lap - rhs) / (p05.mu_F * 77.4)
        assert resid.max() < 1e-3
        assert resid[160:].max() < 1e-6

    def test_eps_profile_close_to_plain(self, p05, F_prof):
        prof_eps = build_stationary_F(p05, eps=1e-6)
        assert prof_eps.limit == pytest.approx(F_prof.limit, rel=0.01)

    def test_no_profile_below_threshold(self):
        assert build_stationary_F(table1_params(0.01)) is None

    def test_monostable_profile_reaches_equilibrium(self):
        # without the Allee factor the potential rises all the way to F*
        p = table1_params(None)
        prof = build_stationary_F(p)
        Fs = solve_equilibria(p).upper[2]
        assert prof.limit == pytest.approx(Fs, rel=1e-9)
        assert np.all(np.diff(prof.values) >= -1e-12)

    def test_slow_approach_near_gamma0(self):
        # just above the self-consistent wave threshold the maximizer nears F*
        p = table1_params(0.035)
        prof = build_stationary_F(p)
        assert prof is not None
        Fs = solve_equilibria(p).upper[2]
        assert prof.limit > 0.6 * Fs

    def test_find_eps0(self, p05, eq05):
        e0 = find_eps0(p05, eq05.upper[2])
        assert e0 is not None and e0 > 0
        assert find_eps0(table1_params(0.01),
                         solve_equilibria(table1_params(0.01)).upper[2]) is None

    def test_M_limit_closed_form(self, p05, M_prof, F_prof):
        expect = phi0(p05, F_prof.limit)
        assert M_prof.limit == pytest.approx(expect, rel=1e-12)
        assert M_prof(M_prof.grid[-1] * 3) == pytest.approx(expect, rel=1e-6)

    def test_M_lower_bound_nodewise(self, p05, M_prof, F_prof):
        # (1/(2 mu_M)) psi(x) (1 - e^{-2 sqrt(mu_M/D) x}) <= M(x)
        x = F_prof.grid
        psi = p05.mu_M * phi0(p05, F_prof.values)
        lb = psi * (-np.expm1(-2 * np.sqrt(p05.mu_M / p05.D) * x)) / (2 * p05.mu_M)
        assert np.all(M_prof.values >= lb - 1e-9 * M_prof.limit)

    def test_phi_chain_nodewise(self, p05, M_prof, F_prof, eq05):
        ph = phi(p05, F_prof.values, eq05.upper[2])
        assert np.all(ph <= M_prof.values + 1e-9 * M_prof.limit)

    def test_exponential_envelopes(self, p05, M_prof, F_prof, eq05):
        # both profiles stay below the saturating exponential caps
        x = F_prof.grid
        E_s, M_s, F_s = eq05.upper
        capF = F_s * (-np.expm1(-np.sqrt(p05.mu_F / p05.D) * x))
        capM = M_s * (-np.expm1(-np.sqrt(p05.mu_M / p05.D) * x))
        assert np.all(F_prof.values <= capF + 1e-9 * F_s)
        assert np.all(M_prof.values <= capM + 1e-9 * M_s)

    def test_zero_forcing_gives_zero_M(self, p05):
        flat = MonotoneProfile(np.array([0.0, 1.0, 2.0]), np.zeros(3), 0.0)
        M = build_stationary_M(p05, flat)
        assert np.allclose(M.values, 0.0, atol=1e-12)
        assert M.limit == 0.0


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    from sitcarpet import profiles

    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert profiles._GL_NODES.tobytes() == nodes.tobytes()
    assert profiles._GL_WEIGHTS.tobytes() == weights.tobytes()
