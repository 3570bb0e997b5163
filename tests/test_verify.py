import dataclasses

import numpy as np
import pytest

from sitcarpet.solver import Grid
from sitcarpet.supersolution import (
    ebar_ode,
    find_supersolution_bundle,
    lambda_roots,
    make_sterile_lower_bound,
    make_sterile_lower_bound_tail,
)
from sitcarpet.verify import (
    jump_check,
    supersolution_certificate,
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


def test_subsolution_certificate(subsolution_05):
    rep = verify_subsolution(subsolution_05, t_grid=(1.0, 9.0))
    assert rep.passed, str(rep)


def test_sterile_cap_certificate(p05):
    rep = verify_sterile_cap(p05, 1000.0, 0.05, 4.0, 32.0, Rs=33.0)
    assert rep.passed, str(rep)


def test_sterile_floor_certificates(p05):
    low = make_sterile_lower_bound(p05, 1000.0, 0.05, 4.0, 6.0, 30.0, 32.0)
    assert verify_sterile_floor(low).passed
    tail = make_sterile_lower_bound_tail(p05, 1000.0, 0.05, 4.0, 6.0, 30.0,
                                         32.0, eta=0.3)
    rep = verify_sterile_floor(tail)
    assert rep.passed, str(rep)
    names = [r.name for r in rep.reports]
    assert any("C1 joint" in n for n in names)


def test_supersolution_certificate(p05):
    bundle, rep = supersolution_certificate(p05, c=0.05)
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
