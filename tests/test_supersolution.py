import numpy as np
import pytest

from sitcarpet.config import preset
from sitcarpet.model import egg_rates, slaved_E
from sitcarpet.solver import Grid, ReleaseSchedule
from sitcarpet.supersolution import (
    FBAR_BLOCK,
    assemble_Fbar,
    ebar_ode,
    find_supersolution_bundle,
    make_sterile_lower_bound,
    psi_profile,
    sterile_upper_bound,
    walk_times,
)


# the releases the sterile floors below bound, plateau [6, 30] inside
ANNULUS = ReleaseSchedule("annulus", 1000.0, 4.0, 32.0, 0.05)
TAIL = ReleaseSchedule("annulus_tail", 1000.0, 4.0, 32.0, 0.05, eta=0.4)


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


def test_Fbar_time_column_is_bitwise_rowwise(bundle):
    # one call on a time column equals the scalar-t calls stacked, to the
    # bit, also on nodes placed exactly on each row's interfaces (and their
    # mirror images, since Fbar reads |x|)
    ts = np.array([0.0, 0.02, 3.7, 7.3, 19.99, 40.0])
    on = np.concatenate([bundle.interfaces(t) for t in ts])
    x = np.concatenate([np.linspace(-5.0, on.max() + 10.0, 301), on, -on])
    block = assemble_Fbar(bundle, x, ts)
    rows = np.stack([assemble_Fbar(bundle, x, t) for t in ts])
    assert block.shape == (ts.size, x.size)
    assert block.tobytes() == rows.tobytes()
    # a scalar x against a time column gives one value per time
    column = assemble_Fbar(bundle, on[4], ts)
    assert column.tobytes() == np.array(
        [assemble_Fbar(bundle, on[4], t) for t in ts]).tobytes()
    # the region over a time column is searchsorted row by row
    r = np.abs(x)
    regions = bundle.region(r, ts[:, None])
    expected = np.stack([np.searchsorted(bundle.interfaces(t), r) for t in ts])
    assert np.array_equal(regions, expected)
    assert {0, 1, 2, 3} <= set(regions.ravel().tolist())


def _collect(walk):
    """Concatenate a walk's blocks into (times, Ebar), checking that they
    are consecutive rows, the first one the row at t = 0."""
    blocks = list(walk)
    assert blocks[0].times.tolist() == [0.0]
    assert [b.start for b in blocks] == np.cumsum(
        [0] + [b.times.size for b in blocks[:-1]]).tolist()
    assert all(b.times.size <= FBAR_BLOCK for b in blocks)
    return (np.concatenate([b.times for b in blocks]),
            np.concatenate([b.Ebar for b in blocks]))


def _ebar_reference(bundle, x, t_end, dt):
    """The exact egg step with Fbar frozen at each step's start, written
    out on fresh arrays with one scalar-t Fbar per step."""
    p = bundle.params
    K = np.broadcast_to(p.K_at(x), x.shape)
    F0 = assemble_Fbar(bundle, x, 0.0)
    E = np.minimum(np.minimum(K, bundle.C0 * F0), slaved_E(p, F0))
    times, out, t = [0.0], [E], 0.0
    for _ in range(int(np.ceil(t_end / dt))):
        h = min(dt, t_end - t)
        bF = p.b * assemble_Fbar(bundle, x, t)
        a = bF / K + p.egg_loss
        fE = bF * (1.0 - E / K) - p.egg_loss * E
        E = np.minimum(np.maximum(E - np.expm1(-a * h) / a * fE, 0.0), K)
        t += h
        times.append(t)
        out.append(E)
    return np.array(times), np.array(out)


def test_ebar_block_walk_is_bitwise_the_exact_step(bundle):
    # 251 steps: more than two blocks, and a short last step (25.03 is not
    # a multiple of 0.1)
    x = np.linspace(0.0, bundle.r2 + 20.0, 41)
    t_end, dt = 25.03, 0.1
    times, Eb = _collect(ebar_ode(bundle, x, t_end, dt))
    ref_times, ref_Eb = _ebar_reference(bundle, x, t_end, dt)
    assert times.size - 1 > 2 * FBAR_BLOCK
    assert times[-1] - times[-2] < dt
    assert times.tobytes() == ref_times.tobytes()
    assert Eb.tobytes() == ref_Eb.tobytes()
    assert times.tobytes() == walk_times(t_end, dt)[0].tobytes()


def _rk4_fine(bundle, x, times, E0, substeps=10):
    """Classical RK4 of the egg ODE from E0 on each walk step cut into
    `substeps` equal steps: the rows at the walk's times."""
    p = bundle.params
    K = np.broadcast_to(p.K_at(x), x.shape)

    def rate(E, F):
        return egg_rates(p, E, F, K)[0]

    E, rows = E0, [E0]
    for t0, t1 in zip(times[:-1], times[1:]):
        h = (t1 - t0) / substeps
        halves = t0 + 0.5 * h * np.arange(2 * substeps + 1)
        F = assemble_Fbar(bundle, x, halves)
        for i in range(substeps):
            k1 = rate(E, F[2 * i])
            k2 = rate(E + 0.5 * h * k1, F[2 * i + 1])
            k3 = rate(E + 0.5 * h * k2, F[2 * i + 1])
            k4 = rate(E + h * k3, F[2 * i + 2])
            E = E + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(E)
    return np.array(rows)


@pytest.mark.parametrize("name", ["carpet", "fig2-left", "fig2-right"])
def test_ebar_rows_bound_the_egg_ode_from_above(name):
    # the walk's exact steps with Fbar frozen at each step's start bound
    # the egg ODE's solution from above because Fbar falls in time: Fbar's
    # rows never increase on the walk grid, and the rows lie at or above a
    # 10x finer RK4 solution from the same start, within 0.02%.  Where
    # Fbar is constant in time the two agree to roundoff.
    scenario = preset(name).scenario()
    bundle = find_supersolution_bundle(
        scenario.params, c=max(scenario.schedule.c, 0.01),
        equilibria=scenario.equilibria)
    t_end = 10.0
    x = Grid.radial(bundle.r2 + bundle.c * t_end + 12.0, 301).x
    blocks = list(ebar_ode(bundle, x, t_end, 0.02))
    times = np.concatenate([b.times for b in blocks])
    Fb = np.concatenate([b.Fbar for b in blocks])
    Eb = np.concatenate([b.Ebar for b in blocks])
    assert np.all(np.diff(Fb, axis=0) <= 0.0)
    ref = _rk4_fine(bundle, x, times, Eb[0])
    gap = (Eb - ref) / ref
    assert gap.min() >= -1e-12
    assert gap.max() <= 2e-4


def test_ebar_walk_yields_the_Fbar_rows_of_its_times(bundle):
    # each block's Fbar rows are those of assemble_Fbar at the block's
    # times, to the bit, and match its Ebar rows in shape
    x = np.linspace(-5.0, bundle.r2 + 20.0, 57)
    blocks = list(ebar_ode(bundle, x, 9.01, 0.1))
    assert len(blocks) == 1 + int(np.ceil(91 / FBAR_BLOCK))
    for b in blocks:
        assert b.Fbar.shape == b.Ebar.shape == (b.times.size, x.size)
        rows = np.stack([assemble_Fbar(bundle, x, t) for t in b.times])
        assert b.Fbar.tobytes() == rows.tobytes()


def test_Fbar_core_decays(bundle):
    sup0 = assemble_Fbar(bundle, 0.0, 0.0)
    sup1 = assemble_Fbar(bundle, 0.0, 200.0)
    assert sup1 < sup0
    assert sup0 == pytest.approx(bundle.F_star * bundle.u0, rel=1e-12)


def test_ebar_far_field_equilibrium(bundle, p05, eq05):
    # a point that stays in the far region holds the egg equilibrium
    x = np.array([bundle.r2 + bundle.c * 10.0 + 30.0])
    times, Eb = _collect(ebar_ode(bundle, x, 10.0, 0.01))
    assert np.allclose(Eb, eq05.upper[0], rtol=1e-9)


def test_ebar_tracks_slaved_level_in_core(bundle, p05):
    from sitcarpet.model import slaved_E
    x = np.array([0.0])
    times, Eb = _collect(ebar_ode(bundle, x, 80.0, 0.01))
    F_core = assemble_Fbar(bundle, 0.0, times[-1])
    target = slaved_E(p05, F_core)
    assert Eb[-1, 0] == pytest.approx(target, rel=0.05)
    assert np.all(Eb[:, 0] <= bundle.C1 * assemble_Fbar(bundle, 0.0, 0.0)
                  * np.ones_like(times) + 1e-12)


def test_sterile_upper_bound_shape(p05):
    cap = sterile_upper_bound(p05, 500.0, 0.1, 20.0)
    amp = 500.0 / p05.mu_s
    t = 7.0
    edge = 20.0 + 0.1 * t
    assert cap(edge - 1e-9, t) == pytest.approx(amp)
    assert cap(edge + 1e-9, t) == pytest.approx(amp, rel=1e-6)
    rate = np.sqrt(p05.mu_s / p05.D)
    assert cap(edge + 1.0 / rate, t) == pytest.approx(amp / np.e, rel=1e-9)
    assert (cap.height, cap.rate) == (amp, rate)


def test_lower_bound_plateau_and_cap(p05):
    low = make_sterile_lower_bound(p05, ANNULUS, 6.0, 30.0)
    t = 11.0
    r = np.linspace(0.0, 60.0, 4000)
    vals = low(r, t)
    on = (r >= 6.0 + 0.05 * t) & (r <= 30.0 + 0.05 * t)
    assert np.allclose(vals[on], low.M_hat)
    assert np.all(vals <= low.M_hat * (1 + 1e-12))
    assert np.all(vals >= low.floor(r, t) - 1e-9 * low.M_hat)


def test_lower_bound_geometry_validation(p05):
    with pytest.raises(ValueError):
        make_sterile_lower_bound(p05, ReleaseSchedule("annulus", 1.0, 6.0,
                                                      32.0, 0.05), 4.0, 30.0)
    with pytest.raises(ValueError):
        make_sterile_lower_bound(p05, ReleaseSchedule(
            "annulus_tail", 1.0, 4.0, 32.0, 0.05, eta=-0.1), 6.0, 30.0)


@pytest.mark.parametrize("kind, joints", [
    ("lower_annulus", (6.0, 30.0)),
    ("lower_annulus_tail", (4.0, 6.0, 30.0)),
])
def test_sterile_profile_joints(p05, kind, joints):
    release = ANNULUS if kind == "lower_annulus" else TAIL
    low = make_sterile_lower_bound(p05, release, 6.0, 30.0)
    assert low.kind == kind
    h = 1e-6
    for joint in joints:
        (v_left, v_right), (d_left, d_right) = low.one_sided(joint)
        assert v_left == pytest.approx(v_right, rel=1e-12)
        assert d_left == pytest.approx(d_right, rel=1e-10, abs=1e-12)
        # shape() just off the joint follows each side's closed form
        assert low.shape(joint - h) == pytest.approx(v_left - h * d_left,
                                                     rel=1e-9)
        assert low.shape(joint + h) == pytest.approx(v_right + h * d_right,
                                                     rel=1e-9)


def test_tail_variant_profile_above_floor(p05):
    low = make_sterile_lower_bound(p05, TAIL, 6.0, 30.0)
    t = 5.0
    r = np.linspace(0.0, 40.0, 2000)
    assert np.all(low(r, t) >= low.floor(r, t) - 1e-9 * low.M_hat)


def test_bundle_search_reproduces_preset_constants(p05):
    from sitcarpet.config import CARPET_LAMBDA, CARPET_R2
    b = find_supersolution_bundle(p05, c=0.03, safety=1.5, eps=0.08)
    assert b.R2 == pytest.approx(CARPET_R2, rel=1e-9)
    assert b.lambda_bar == pytest.approx(CARPET_LAMBDA, rel=1e-9)
