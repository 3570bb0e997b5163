import dataclasses
import tracemalloc

import numpy as np
import pytest

from sitcarpet.config import CARPET_C, preset
from sitcarpet.solver import Grid, ReleaseSchedule
from sitcarpet.supersolution import (
    assemble_Fbar,
    ebar_ode,
    find_supersolution_bundle,
    lambda_roots,
    make_sterile_lower_bound,
    walk_times,
)
from sitcarpet.verify import (
    build_subsolution,
    jump_check,
    verify_inequality,
    verify_sterile_cap,
    verify_sterile_floor,
    verify_subsolution,
    verify_supersolution,
)


def test_verify_inequality_on_exact_solution():
    # u = e^{-t} sin-free radial gaussian-ish: check residual of an exact
    # identity d_t u - D lap u - f = 0 classifies as both sub and super
    D = 0.25

    def field(x, t):
        return np.exp(-t) * (1.0 + np.cos(np.asarray(x) / 3.0))

    def react(x, t, u):
        x = np.asarray(x)
        cos = np.cos(x / 3.0)
        sin = np.sin(x / 3.0)
        lap = -cos / 9.0 - sin / (3.0 * x)
        return -np.exp(-t) * (1.0 + cos) - D * lap * np.exp(-t)

    xg = np.linspace(1.0, 20.0, 2000)
    for sign in ("sub", "super"):
        rep = verify_inequality(field, react, sign, xg, [0.5, 2.0], D=D,
                                radial=True, tol=1e-6, name="exact")
        assert rep.passed, rep


def test_verify_inequality_detects_violation():
    def field(x, t):
        return np.ones(np.shape(x)) * (1.0 + t)

    def react(x, t, u):
        return np.zeros(np.shape(x))  # true residual is +1 everywhere

    xg = np.linspace(0.5, 5.0, 200)
    rep = verify_inequality(field, react, "sub", xg, [1.0], D=1.0,
                            radial=False, tol=1e-6, scale=1.0)
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(1.0, rel=1e-6)
    rep2 = verify_inequality(field, react, "super", xg, [1.0], D=1.0,
                             radial=False, tol=1e-6, scale=1.0)
    assert rep2.passed


def test_jump_check_signs():
    kink = lambda x, t: np.abs(np.asarray(x) - 3.0)  # slope -1 -> +1
    rep = jump_check(kink, 3.0, 0.0, "sub")
    assert rep.passed  # upward slope jump is sub-admissible
    rep = jump_check(kink, 3.0, 0.0, "super")
    assert not rep.passed


def test_a_check_over_no_node_fails_and_says_why():
    # a residual scanned on zero nodes, or a kink whose stencil collapses,
    # shows nothing: it fails and names the reason, with no warning
    def field(x, t):
        return np.ones(np.shape(x))

    def react(x, t, u):
        return np.zeros(np.shape(x))

    xg = np.linspace(0.5, 5.0, 200)
    masked = verify_inequality(field, react, "sub", xg, [1.0], D=1.0,
                               radial=False,
                               interfaces=lambda t: np.linspace(0.5, 5.0, 60))
    # the spacing rounds to 0 after the grid's 100th node
    far = np.concatenate([xg[:100], np.full(100, 1e200)])
    flat = verify_inequality(field, react, "sub", far, [1.0], D=1.0,
                             radial=True)
    kink = jump_check(field, 1e200, 1.0, "sub")
    for rep, reason in (
            (masked, "every node is within 4 cells of an interface or next "
                     "to an end of the grid"),
            (flat, "the grid stops increasing at x = 1e+200"),
            (kink, "the one-sided step rounds to 0 at x = 1e+200")):
        assert not rep.passed and rep.checked_nodes == 0
        assert str(rep).endswith(f": no node checked: {reason}")


def test_a_nan_among_the_checked_nodes_fails_the_check():
    # a residual of +1 everywhere, NaN at one node at t = 1: the NaN must
    # not hide the violations of its row, nor pass as the worst
    xg = np.linspace(0.5, 5.0, 200)

    def react(x, t, u):
        out = np.full(np.shape(x), -1.0)
        if t == 1.0:
            out[100] = np.nan
        return out

    rep = verify_inequality(lambda x, t: np.ones(np.shape(x)), react, "sub",
                            xg, [1.0, 2.0], D=1.0, radial=False)
    assert not rep.passed and np.isnan(rep.worst_violation)
    assert rep.checked_nodes == 2 * 196
    assert str(rep).startswith("[FAIL] residual: worst violation nan")


def test_subsolution_certificate(subsolution_05):
    rep = verify_subsolution(subsolution_05, t_grid=(1.0, 9.0))
    assert rep.passed, str(rep)


def test_sterile_cap_certificate(p05):
    release = ReleaseSchedule("annulus", 1000.0, 4.0, 32.0, 0.05)
    rep = verify_sterile_cap(p05, release, Rs=33.0)
    assert rep.passed, str(rep)


def test_sterile_floor_certificates(p05):
    release = ReleaseSchedule("annulus", 1000.0, 4.0, 32.0, 0.05)
    low = make_sterile_lower_bound(p05, release, 6.0, 30.0)
    assert verify_sterile_floor(low).passed
    tail = make_sterile_lower_bound(
        p05, dataclasses.replace(release, kind="annulus_tail", eta=0.3),
        6.0, 30.0)
    rep = verify_sterile_floor(tail)
    assert rep.passed, str(rep)
    names = [r.name for r in rep.reports]
    assert any("C1 joint" in n for n in names)


def test_supersolution_certificate(p05):
    rep = verify_supersolution(find_supersolution_bundle(p05, c=0.05))
    assert rep.passed, str(rep)


def test_supersolution_fails_with_oversized_mu(p05):
    # breaking the smallness hypothesis must surface as the C1-bound report
    good = find_supersolution_bundle(p05, c=0.05)
    lp, lm = lambda_roots(0.6, good.c_prime / good.sqrt_D
                          + good.sqrt_D / good.r1)
    bad = dataclasses.replace(good, mu=0.6, lambda_plus=lp, lambda_minus=lm)
    rep = verify_supersolution(bad, t_end=15.0, n_x=600)
    assert not rep.passed
    failed = {r.name for r in rep.reports if not r.passed}
    assert any("C1" in n or "Ebar" in n for n in failed), failed


def test_supersolution_integrates_ebar_once_and_counts_mbar_nodes(
        p05, monkeypatch):
    # t_end = 15 at dt = 0.02 is 750 Mbar steps; every 37th step (21 of them)
    # plus the last one is compared, each on all 600 nodes.  The female cap
    # compares, at each of the five check times, the nodes more than four
    # cells away from the three interfaces.
    import sitcarpet.verify as verify_mod
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ebar_ode(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "ebar_ode", counted)
    bundle = find_supersolution_bundle(p05, c=0.05)
    rep = verify_supersolution(bundle, t_end=15.0, n_x=600)
    assert len(calls) == 1
    mbar = next(r for r in rep.reports if r.name == "Mbar <= C2 Fbar")
    assert mbar.checked_nodes == 22 * 600
    x = Grid.radial(bundle.r2 + bundle.c * 15.0 + 12.0, 600).x
    clear = [np.all(np.abs(x[:, None] - np.array(bundle.interfaces(t)))
                    > 4 * (x[1] - x[0]), axis=1).sum()
             for t in np.linspace(4.5, 15.0, 5)]
    cap = next(r for r in rep.reports if r.name == "female reaction cap")
    assert cap.checked_nodes == sum(clear) < 5 * 600
    assert rep.passed, str(rep)


def test_supersolution_evaluates_Fbar_in_time_blocks(monkeypatch):
    # the carpet certificate at default arguments: RK4 reads two blocks of
    # Fbar per FBAR_BLOCK steps and the C1 and Mbar checks read blocks too,
    # where each step and each check time used to be its own call (5064)
    import sitcarpet.supersolution as super_mod
    import sitcarpet.verify as verify_mod
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return assemble_Fbar(*args, **kwargs)

    monkeypatch.setattr(super_mod, "assemble_Fbar", counted)
    monkeypatch.setattr(verify_mod, "assemble_Fbar", counted)
    params = preset("carpet").scenario().params
    bundle = find_supersolution_bundle(params, c=CARPET_C)
    rep = verify_supersolution(bundle)
    assert rep.passed, str(rep)
    assert len(calls) < 100


@pytest.fixture(scope="module")
def carpet_bundle():
    params = preset("carpet").scenario().params
    return find_supersolution_bundle(params, c=CARPET_C)


def test_supersolution_evaluates_each_Fbar_row_about_once(monkeypatch,
                                                          carpet_bundle):
    # the walk's step-end rows serve the C1 and Mbar checks, so the
    # certificate evaluates Fbar at about two rows per step (step ends and
    # half steps) plus the residual, kink and female-cap times: 2041 rows
    # on the carpet
    import sitcarpet.supersolution as super_mod
    import sitcarpet.verify as verify_mod
    rows = []

    def counted(*args, **kwargs):
        rows.append(np.size(args[2]))
        return assemble_Fbar(*args, **kwargs)

    monkeypatch.setattr(super_mod, "assemble_Fbar", counted)
    monkeypatch.setattr(verify_mod, "assemble_Fbar", counted)
    rep = verify_supersolution(carpet_bundle)
    assert rep.passed, str(rep)
    n_steps = walk_times(20.0, 0.02)[0].size - 1
    assert sum(rows) <= 2 * n_steps + 60


def _traced_peak(fn) -> int:
    """Peak traced allocation of a call, in bytes, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_subsolution_memory_is_bounded(carpet_bundle):
    # the profile quadrature evaluates its integrand a bounded number of
    # cells at a time; one call on every cell peaks at ~16 MB
    b = carpet_bundle
    peak = _traced_peak(
        lambda: build_subsolution(b.params, b.c, b.lambda_bar, b.R2))
    assert peak <= 6e6


def test_verify_supersolution_memory_is_bounded(carpet_bundle):
    # the Ebar walk is used block by block; holding the whole Ebar table
    # peaks at ~18 MB
    peak = _traced_peak(lambda: verify_supersolution(carpet_bundle))
    assert peak <= 6e6
