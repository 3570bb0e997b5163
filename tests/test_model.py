import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitcarpet.config import table1_params
from sitcarpet.model import (
    Bistable,
    Monostable,
    StatePoint,
    cone_leq,
    gamma_fn,
    jacobian_ode,
    mating_factor,
    reaction,
)


def test_gamma_fn_monostable_is_one():
    assert gamma_fn(Monostable(), 5.0) == 1.0
    assert gamma_fn(Monostable(), 0.0) == 1.0


def test_gamma_fn_bistable_values():
    assert gamma_fn(Bistable(0.5), 0.0) == 0.0
    assert gamma_fn(Bistable(0.5), 2.0) == pytest.approx(1.0 - np.exp(-1.0),
                                                         rel=1e-12)


def test_gamma_fn_rejects_negative():
    with pytest.raises(ValueError):
        gamma_fn(Bistable(0.5), -1.0)
    with pytest.raises(ValueError):
        gamma_fn(Monostable(), -0.1)


@given(gamma=st.floats(1e-4, 10.0), m=st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_gamma_fn_bound(gamma, m):
    v = gamma_fn(Bistable(gamma), m)
    assert 0.0 <= v <= min(1.0, gamma * m) + 1e-12


def test_gamma_fn_monotone_in_m_and_gamma():
    m = np.linspace(0.0, 50.0, 300)
    v = gamma_fn(Bistable(0.3), m)
    assert np.all(np.diff(v) >= 0)
    gams = np.linspace(0.01, 2.0, 50)
    vals = [gamma_fn(Bistable(g), 3.0) for g in gams]
    assert np.all(np.diff(vals) >= 0)


def test_reaction_extinction_is_steady(p05):
    r = reaction(p05, StatePoint(0, 0, 0, 0), 0.0)
    assert r == (0.0, 0.0, 0.0, 0.0)


def test_reaction_vanishes_at_equilibrium(p05, eq05):
    E, M, F = eq05.upper
    r = reaction(p05, StatePoint(E, M, F, 0.0), 0.0)
    scale = max(E, M, F)
    for v in (r.fE, r.fM, r.fF):
        assert abs(v) < 1e-9 * scale
    assert r.fs == 0.0


def test_reaction_saturated_eggs(p05):
    K = p05.K_scalar
    r = reaction(p05, StatePoint(K, 0.0, 30.0, 0.0))
    assert r.fE == pytest.approx(-(p05.mu_E + p05.nu_E) * K)
    assert r.fE <= 0.0


def test_mating_factor_defined_at_origin(p05):
    assert mating_factor(p05, 0.0, 0.0) == 0.0


def test_invariant_region_flux_conditions(rng):
    # On each face of [0,K] x R^3_+ the flow points inward for any Gamma.
    for gamma in (0.5, None):
        p = table1_params(gamma)
        K = p.K_scalar
        for _ in range(250):
            M, F, Ms = rng.uniform(0, 100, 3)
            lam = rng.uniform(0, 50)
            assert reaction(p, StatePoint(K, M, F, Ms), lam).fE <= 0
            assert reaction(p, StatePoint(0, M, F, Ms), lam).fE >= 0
            E = rng.uniform(0, K)
            assert reaction(p, StatePoint(E, 0, F, Ms), lam).fM >= 0
            assert reaction(p, StatePoint(E, M, 0, Ms), lam).fF >= 0
            assert reaction(p, StatePoint(E, M, F, 0), lam).fs >= 0


def test_fF_nonincreasing_in_Ms(rng):
    # finite differences at 1000 random states, both Gamma choices
    for gamma in (0.7, None):
        p = table1_params(gamma)
        for _ in range(500):
            E = rng.uniform(0, p.K_scalar)
            M, F, Ms = rng.uniform(1e-6, 80, 3)
            h = 1e-6 * max(Ms, 1.0)
            up = reaction(p, StatePoint(E, M, F, Ms + h)).fF
            dn = reaction(p, StatePoint(E, M, F, Ms)).fF
            assert up <= dn + 1e-12 * max(abs(dn), 1.0)


def test_cone_leq_examples():
    assert cone_leq(StatePoint(1, 1, 1, 5), StatePoint(2, 2, 2, 3))
    u = StatePoint(1.5, 2.5, 3.5, 4.5)
    assert cone_leq(u, u)
    assert not cone_leq(StatePoint(1, 1, 1, 1), StatePoint(2, 2, 2, 2))


state_points = st.builds(
    StatePoint,
    st.floats(0, 10), st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))


@given(u=state_points, v=state_points, w=state_points)
@settings(max_examples=200, deadline=None)
def test_cone_leq_partial_order(u, v, w):
    assert cone_leq(u, u)
    if cone_leq(u, v) and cone_leq(v, u):
        assert u == v
    if cone_leq(u, v) and cone_leq(v, w):
        assert cone_leq(u, w)


def _fd_jacobian(p, s):
    base = np.array(reaction(p, s)[:3])
    J = np.zeros((3, 3))
    for j, name in enumerate(("E", "M", "F")):
        h = 1e-6 * max(abs(getattr(s, name)), 1.0)
        up = s._replace(**{name: getattr(s, name) + h})
        dn = s._replace(**{name: getattr(s, name) - h})
        J[:, j] = (np.array(reaction(p, up)[:3])
                   - np.array(reaction(p, dn)[:3])) / (2 * h)
    return J, base


def test_jacobian_matches_finite_differences(rng):
    for gamma in (0.5, None):
        p = table1_params(gamma)
        for _ in range(20):
            s = StatePoint(rng.uniform(1, 190), rng.uniform(1, 60),
                           rng.uniform(1, 70), rng.uniform(0, 40))
            J = jacobian_ode(p, s)
            J_fd, _ = _fd_jacobian(p, s)
            assert np.allclose(J, J_fd, rtol=1e-6, atol=1e-8 * np.abs(J).max())


def test_jacobian_sign_pattern(rng, p05):
    for _ in range(50):
        s = StatePoint(rng.uniform(0, 190), rng.uniform(0, 60),
                       rng.uniform(0, 70), rng.uniform(0, 40))
        J = jacobian_ode(p05, s)
        assert J[0, 2] >= 0  # d fE / d F
        assert J[1, 0] >= 0  # d fM / d E
        assert J[2, 0] >= 0  # d fF / d E
        assert J[2, 1] >= 0  # d fF / d M


def test_extinction_stability_by_kind():
    mono = table1_params(None)
    ev = np.linalg.eigvals(jacobian_ode(mono, StatePoint(0, 0, 0, 0)))
    assert ev.real.max() > 0  # unstable when N > 1

    bist = table1_params(0.5)
    ev = np.linalg.eigvals(jacobian_ode(bist, StatePoint(0, 0, 0, 0)))
    assert ev.real.max() < 0  # Allee effect stabilizes extinction


def test_jacobian_handles_Ms_only_corner():
    p = table1_params(0.5)
    J = jacobian_ode(p, StatePoint(0.0, 0.0, 0.0, 5.0))
    assert np.all(np.isfinite(J))
    # with fertile males absent the recruitment row vanishes
    assert J[2, 0] == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        table1_params(0.5, rho=1.5)
    with pytest.raises(ValueError):
        table1_params(-0.1)
    with pytest.raises(ValueError):
        table1_params(0.5, b=-1.0)


@pytest.mark.parametrize("override", [
    {"b": np.inf}, {"mu_F": np.nan}, {"D": np.inf}, {"K": np.inf},
    {"gamma_s": np.inf}])
def test_params_reject_non_finite(override):
    with pytest.raises(ValueError, match="finite"):
        table1_params(0.5, **override)


def test_bistable_gamma_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        table1_params(np.inf)
