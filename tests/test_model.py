import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitcarpet.config import table1_params
from sitcarpet.model import (
    StatePoint,
    gamma_fn,
    jacobian_ode,
    mating_factor,
    reaction_arrays,
)


def _rates(p, E, M, F, Ms, lam=0.0):
    """(fE, fM, fF, fs) of `reaction_arrays` at states given field by field,
    as arrays or scalars that broadcast."""
    y = np.broadcast_arrays(*map(np.atleast_1d, (E, M, F, Ms)))
    fE, _, f = reaction_arrays(p, y, lam, p.K_scalar)
    return (fE, *f)


def test_every_export_resolves():
    import sitcarpet
    missing = [n for n in sitcarpet.__all__ if not hasattr(sitcarpet, n)]
    assert not missing


def test_gamma_fn_monostable_is_one():
    assert gamma_fn(None, 5.0) == 1.0
    assert gamma_fn(None, 0.0) == 1.0


def test_gamma_fn_bistable_values():
    assert gamma_fn(0.5, 0.0) == 0.0
    assert gamma_fn(0.5, 2.0) == pytest.approx(1.0 - np.exp(-1.0),
                                               rel=1e-12)


def test_gamma_fn_rejects_negative():
    with pytest.raises(ValueError):
        gamma_fn(0.5, -1.0)
    with pytest.raises(ValueError):
        gamma_fn(None, -0.1)


@given(gamma=st.floats(1e-4, 10.0), m=st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_gamma_fn_bound(gamma, m):
    v = gamma_fn(gamma, m)
    assert 0.0 <= v <= min(1.0, gamma * m) + 1e-12


def test_gamma_fn_monotone_in_m_and_gamma():
    m = np.linspace(0.0, 50.0, 300)
    v = gamma_fn(0.3, m)
    assert np.all(np.diff(v) >= 0)
    gams = np.linspace(0.01, 2.0, 50)
    vals = [gamma_fn(g, 3.0) for g in gams]
    assert np.all(np.diff(vals) >= 0)


def test_reaction_extinction_is_steady(p05):
    assert all(r == 0.0 for r in _rates(p05, 0.0, 0.0, 0.0, 0.0))


def test_reaction_vanishes_at_equilibrium(p05, eq05):
    E, M, F = eq05.upper
    fE, fM, fF, fs = _rates(p05, E, M, F, 0.0)
    scale = max(E, M, F)
    for v in (fE, fM, fF):
        assert abs(v[0]) < 1e-9 * scale
    assert fs[0] == 0.0


def test_reaction_saturated_eggs(p05):
    K = p05.K_scalar
    fE = _rates(p05, K, 0.0, 30.0, 0.0)[0][0]
    assert fE == pytest.approx(-(p05.mu_E + p05.nu_E) * K)
    assert fE <= 0.0


def test_reaction_egg_loss_rate(p05):
    # a = b F / K + mu_E + nu_E, and fE = b F - a E
    E, F = np.array([0.0, 50.0, 190.0]), np.array([70.0, 0.0, 30.0])
    fE, a, _ = reaction_arrays(p05, (E, E, F, E), 0.0, p05.K_scalar)
    assert np.allclose(a, p05.b * F / p05.K_scalar + p05.mu_E + p05.nu_E,
                       rtol=1e-15)
    assert np.allclose(fE, p05.b * F - a * E, rtol=1e-12, atol=1e-9)


def test_reaction_without_sterile_males_has_two_rows(p05):
    # lam None: no Ms row, and M, F rows bit for bit those with Ms = +0.0
    y = np.array([[150.0, 0.0], [40.0, 0.0], [60.0, 5.0], [0.0, 0.0]])
    K = p05.K_scalar
    fE0, a0, f0 = reaction_arrays(p05, y, None, K)
    fE, a, f = reaction_arrays(p05, y, 0.0, K)
    assert f0.shape == (2, 2) and f.shape == (3, 2)
    for got, want in ((fE0, fE), (a0, a), (f0, f[:2])):
        assert got.tobytes() == want.tobytes()


def test_mating_factor_defined_at_origin(p05):
    assert mating_factor(p05, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("gamma", [0.5, 2.355e-3, None],
                         ids=["bistable", "bistable-small", "monostable"])
def test_mating_factor_without_sterile_males_is_bitwise(gamma):
    # Ms None computes the factor from M alone; its bits are those of the
    # general formula at Ms = +0.0, at M = 0, -0.0, negative and tiny M too
    p = table1_params(gamma)
    rng = np.random.default_rng(3)
    M = np.concatenate([[0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300],
                        rng.uniform(0.0, 200.0, 500),
                        rng.uniform(0.0, 1e-6, 100)])
    got = mating_factor(p, M)
    want = mating_factor(p, M, np.zeros_like(M))
    assert got.tobytes() == want.tobytes()
    if gamma is None:  # 1 where M > 0, not everywhere
        assert got[0] == 0.0 and got[-1] == 1.0


def test_invariant_region_flux_conditions(rng):
    # On each face of [0,K] x R^3_+ the flow points inward for any Gamma.
    for gamma in (0.5, None):
        p = table1_params(gamma)
        K = p.K_scalar
        M, F, Ms = rng.uniform(0, 100, (3, 250))
        lam = rng.uniform(0, 50, 250)
        E = rng.uniform(0, K, 250)
        assert np.all(_rates(p, K, M, F, Ms, lam)[0] <= 0)
        assert np.all(_rates(p, 0.0, M, F, Ms, lam)[0] >= 0)
        assert np.all(_rates(p, E, 0.0, F, Ms, lam)[1] >= 0)
        assert np.all(_rates(p, E, M, 0.0, Ms, lam)[2] >= 0)
        assert np.all(_rates(p, E, M, F, 0.0, lam)[3] >= 0)


def test_fF_nonincreasing_in_Ms(rng):
    # finite differences at 1000 random states, both Gamma choices
    for gamma in (0.7, None):
        p = table1_params(gamma)
        E = rng.uniform(0, p.K_scalar, 500)
        M, F, Ms = rng.uniform(1e-6, 80, (3, 500))
        h = 1e-6 * np.maximum(Ms, 1.0)
        up = _rates(p, E, M, F, Ms + h)[2]
        dn = _rates(p, E, M, F, Ms)[2]
        assert np.all(up <= dn + 1e-12 * np.maximum(np.abs(dn), 1.0))


def _fd_jacobian(p, s):
    def rates(s):
        return np.concatenate(_rates(p, *s)[:3])

    base = rates(s)
    J = np.zeros((3, 3))
    for j, name in enumerate(("E", "M", "F")):
        h = 1e-6 * max(abs(getattr(s, name)), 1.0)
        up = s._replace(**{name: getattr(s, name) + h})
        dn = s._replace(**{name: getattr(s, name) - h})
        J[:, j] = (rates(up) - rates(dn)) / (2 * h)
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
