import numpy as np
import pytest

from sitcarpet.supersolution import (
    assemble_Fbar,
    ebar_ode,
    find_supersolution_bundle,
    make_sterile_lower_bound,
    make_sterile_lower_bound_tail,
    psi_profile,
    sterile_upper_bound,
)


@pytest.fixture(scope="module")
def bundle(p05):
    return find_supersolution_bundle(p05, c=0.05)


def test_psi_profile_contract():
    psi, dpsi, L = psi_profile(0.06, 0.01, 0.2, 15.0)
    assert psi(0.0) == pytest.approx(0.01, rel=1e-12)
    assert dpsi(0.0) == pytest.approx(0.0, abs=1e-15)
    assert psi(L) == pytest.approx(1.0, abs=1e-12)
    r = np.linspace(1e-6, L, 500)
    assert np.all(dpsi(r) > 0)
    assert np.all(dpsi(r) < np.sqrt(0.06) * psi(r))


def test_psi_profile_rejects_bad_inputs():
    for bad in [(0, 0.1, 1, 1), (0.1, 1.5, 1, 1), (0.1, 0.1, -1, 1)]:
        with pytest.raises(ValueError):
            psi_profile(*bad)


def test_lambda_product(bundle):
    assert bundle.lambda_plus * bundle.lambda_minus == pytest.approx(
        -bundle.mu / 2, rel=1e-12)
    assert bundle.lambda_minus < 0 < bundle.lambda_plus
    assert 2 * bundle.c / 3 < bundle.c_prime < bundle.c


def test_alpha_properties(bundle):
    t = np.linspace(0.0, 100.0, 2001)
    a = bundle.alpha(t)
    assert np.all(a > 0)
    assert np.all(np.diff(a) < 0)
    da = np.gradient(a, t)
    assert np.all(da[1:-1] > -bundle.mu / 4 * a[1:-1])


def test_beta_properties(bundle):
    r = np.linspace(0.0, 10.0, 1001)
    b = bundle.beta(r)
    assert np.all(b > 0)
    assert np.all(np.diff(b) > 0)
    db = np.gradient(b, r / bundle.sqrt_D)
    assert np.all(db[1:-1] < np.sqrt(bundle.mu / 2) * b[1:-1])


def test_dirichlet_normalization(bundle):
    assert bundle.alpha(0.0) * bundle.beta(0.0) == pytest.approx(bundle.u0,
                                                                 rel=1e-12)
    for t in (0.0, 3.7, 21.0, 80.0):
        prod = bundle.alpha(t) * bundle.beta((bundle.c - bundle.c_prime) * t)
        assert prod == pytest.approx(bundle.u0, rel=1e-10)


def test_Fbar_continuity_and_monotonicity(bundle):
    for t in (0.0, 7.3, 40.0):
        i0, i1, i2 = bundle.interfaces(t)
        # branch values evaluated exactly at each interface
        a = bundle.alpha(t)
        pairs = [
            (a * bundle.beta(0.0), a * bundle.beta(i0 - i0)),
            (a * bundle.beta(i1 - i0), bundle.psi(0.0)),
            (bundle.psi(i2 - i1), 1.0),
        ]
        for lo, hi in pairs:
            assert abs(lo - hi) < 1e-12
        x = np.linspace(0, i2 + 10, 3000)
        fb = assemble_Fbar(bundle, x, t)
        assert np.all(np.diff(fb) >= -1e-10 * bundle.F_star)
        assert assemble_Fbar(bundle, i2 + 5.0, t) == bundle.F_star


def test_regions_split_at_the_interfaces(bundle):
    # Omega_k holds its outer interface (Omega1 is empty at t = 0); Fbar
    # reads the split
    for t in (7.3, 40.0):
        i0, i1, i2 = bundle.interfaces(t)
        r = np.array([0.0, i0, np.nextafter(i0, np.inf), i1,
                      np.nextafter(i1, np.inf), i2, np.nextafter(i2, np.inf)])
        assert bundle.region(r, t).tolist() == [0, 0, 1, 1, 2, 2, 3]
        a = bundle.alpha(t)
        assert assemble_Fbar(bundle, i0, t) == bundle.F_star * (a * bundle.beta(0.0))
        assert assemble_Fbar(bundle, i2, t) == bundle.F_star * bundle.psi(i2 - i1)


def test_Fbar_core_decays(bundle):
    sup0 = assemble_Fbar(bundle, 0.0, 0.0)
    sup1 = assemble_Fbar(bundle, 0.0, 200.0)
    assert sup1 < sup0
    assert sup0 == pytest.approx(bundle.F_star * bundle.u0, rel=1e-12)


def test_ebar_far_field_equilibrium(bundle, p05, eq05):
    # a point that stays in the far region holds the egg equilibrium
    x = np.array([bundle.r2 + bundle.c * 10.0 + 30.0])
    times, Eb = ebar_ode(bundle, x, 10.0, 0.01, E0=np.array([eq05.upper[0]]))
    assert np.allclose(Eb, eq05.upper[0], rtol=1e-9)


def test_ebar_tracks_slaved_level_in_core(bundle, p05):
    from sitcarpet.model import slaved_E
    x = np.array([0.0])
    times, Eb = ebar_ode(bundle, x, 80.0, 0.01)
    F_core = assemble_Fbar(bundle, 0.0, times[-1])
    target = slaved_E(p05, F_core)
    assert Eb[-1, 0] == pytest.approx(target, rel=0.05)
    assert np.all(Eb[:, 0] <= bundle.C1 * assemble_Fbar(bundle, 0.0, 0.0)
                  * np.ones_like(times) + 1e-12)


def test_sterile_upper_bound_shape(p05):
    cap = sterile_upper_bound(p05, 500.0, 0.1, 20.0, 0.0)
    amp = 500.0 / p05.mu_s
    t = 7.0
    edge = 20.0 + 0.1 * t
    assert cap(edge - 1e-9, t) == pytest.approx(amp)
    assert cap(edge + 1e-9, t) == pytest.approx(amp, rel=1e-6)
    rate = np.sqrt(p05.mu_s / p05.D)
    assert cap(edge + 1.0 / rate, t) == pytest.approx(amp / np.e, rel=1e-9)
    assert (cap.height, cap.rate) == (amp, rate)


def test_lower_bound_plateau_and_cap(p05):
    low = make_sterile_lower_bound(p05, 1000.0, 0.05, 4.0, 6.0, 30.0, 32.0)
    t = 11.0
    r = np.linspace(0.0, 60.0, 4000)
    vals = low(r, t)
    on = (r >= 6.0 + 0.05 * t) & (r <= 30.0 + 0.05 * t)
    assert np.allclose(vals[on], low.M_hat)
    assert np.all(vals <= low.M_hat * (1 + 1e-12))
    assert np.all(vals >= low.floor(r, t) - 1e-9 * low.M_hat)


def test_lower_bound_geometry_validation(p05):
    with pytest.raises(ValueError):
        make_sterile_lower_bound(p05, 1.0, 0.05, 6.0, 4.0, 30.0, 32.0)
    with pytest.raises(ValueError):
        make_sterile_lower_bound_tail(p05, 1.0, 0.05, 4.0, 6.0, 30.0, 32.0,
                                      eta=-0.1)


def test_tail_variant_c1_joints(p05):
    low = make_sterile_lower_bound_tail(p05, 1000.0, 0.05, 4.0, 6.0, 30.0,
                                        32.0, eta=0.4)
    for joint in (4.0, 6.0):
        v_left, v_right = low.one_sided_values(joint)
        d_left, d_right = low.one_sided_slopes(joint)
        assert v_left == pytest.approx(v_right, rel=1e-12)
        assert d_left == pytest.approx(d_right, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kind, joints", [
    ("lower_annulus", (6.0, 30.0)),
    ("lower_annulus_tail", (4.0, 6.0, 30.0)),
])
def test_sterile_profile_joints(p05, kind, joints):
    if kind == "lower_annulus":
        low = make_sterile_lower_bound(p05, 1000.0, 0.05, 4.0, 6.0, 30.0, 32.0)
    else:
        low = make_sterile_lower_bound_tail(p05, 1000.0, 0.05, 4.0, 6.0, 30.0,
                                            32.0, eta=0.4)
    assert low.kind == kind
    h = 1e-6
    for joint in joints:
        v_left, v_right = low.one_sided_values(joint)
        d_left, d_right = low.one_sided_slopes(joint)
        assert v_left == pytest.approx(v_right, rel=1e-12)
        assert d_left == pytest.approx(d_right, rel=1e-10, abs=1e-12)
        # shape() just off the joint follows each side's closed form
        assert low.shape(joint - h) == pytest.approx(v_left - h * d_left,
                                                     rel=1e-9)
        assert low.shape(joint + h) == pytest.approx(v_right + h * d_right,
                                                     rel=1e-9)


def test_tail_variant_floor_includes_tail(p05):
    low = make_sterile_lower_bound_tail(p05, 1000.0, 0.05, 4.0, 6.0, 30.0,
                                        32.0, eta=0.4)
    t = 5.0
    r = np.linspace(0.0, 40.0, 2000)
    assert np.all(low(r, t) >= low.floor(r, t) - 1e-9 * low.M_hat)
    # the floor really has an exponential inner tail
    inner = low.floor(np.array([2.0]), 0.0)[0]
    assert 0 < inner < low.M_hat


def test_bundle_search_reproduces_preset_constants(p05):
    from sitcarpet.config import CARPET_LAMBDA, CARPET_R2
    b = find_supersolution_bundle(p05, c=0.03, safety=1.5, eps=0.08)
    assert b.R2 == pytest.approx(CARPET_R2, rel=1e-9)
    assert b.lambda_bar == pytest.approx(CARPET_LAMBDA, rel=1e-9)
