"""Acceptance gate: one test per criterion, each printing a verdict line.

Every criterion is exercised at its stated tolerance and wall-clock budget.
Where the trajectory comes from a fixture, the fixture's run time is charged
to the budget too, so the budget covers the simulation, not only the
classification.  Criterion 5's second half (the near-critical no-release fig2-right run dies
out) is checked at T = 2000 instead of the preset's T = 150.  Its Allee
coefficient sits barely above critical, so the upper equilibrium is still
locally stable and the population can only vanish as its front retreats
across the 30-unit plateau.  That retreat is resolved, not a discretisation
artefact: the front speed is -0.02196 at 800 nodes with the automatic step
(dt 0.25) and -0.02210 at 1600 nodes with half the step.  The plateau
clears near t = 1250 (relative sup F first below 1e-3 at t = 1218), so
T = 2000 leaves about 50% margin.
"""

import csv
import dataclasses
import time

import numpy as np

_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))
import pytest

from sitcarpet.cli import EXIT_OK, main
from sitcarpet.config import (
    CARPET_C,
    CARPET_LAMBDA,
    CARPET_R1,
    preset,
    table1_params,
)
from sitcarpet.equilibria import solve_equilibria, thresholds
from sitcarpet.profiles import halfline_green_lower_bound, halfline_green_solve
from sitcarpet.solver import (
    Grid,
    InitialData,
    ReleaseSchedule,
    SNAPSHOT_DT,
    Scenario,
    SimState,
    reaction_dt_bound,
    run,
)
from sitcarpet.supersolution import (
    find_supersolution_bundle,
    make_sterile_lower_bound,
    sterile_upper_bound,
)
from sitcarpet.verify import (
    verify_sterile_cap,
    verify_sterile_floor,
    verify_subsolution,
    verify_supersolution,
)
from sitcarpet.solver import release_value
from sitcarpet.waves import (
    classify,
    cost_exponent,
    estimate_speed,
    front_trace,
    sterile_cost,
)


def report(criterion, ok, detail, elapsed=None, budget=None):
    stamp = "" if elapsed is None else f" [{elapsed:.1f}s / {budget:.0f}s]"
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - "
          f"{detail}{stamp}")
    assert ok, f"criterion {criterion}: {detail}"
    if elapsed is not None:
        assert elapsed < budget, f"criterion {criterion} over budget"


@pytest.fixture(scope="module")
def fig2_left_run(timed_run):
    return timed_run(preset("fig2-left").scenario())


@pytest.fixture(scope="module")
def fig2_right_run(timed_run):
    # Only the horizon differs from the preset: extinction needs the slow
    # retreat the module docstring measures.
    return timed_run(dataclasses.replace(preset("fig2-right").scenario(),
                                         t_end=2000.0))


@pytest.fixture(scope="module")
def carpet_div100_run(timed_run):
    cfg = preset("carpet")
    cfg.schedule["lambda_bar"] = cfg.schedule["lambda_bar"] / 100.0
    return timed_run(cfg.scenario())


@pytest.fixture(scope="module")
def carpet_hetero_run(timed_run):
    return timed_run(preset("carpet-hetero").scenario())


def test_criterion_01_thresholds(p05):
    t0 = time.perf_counter()
    rep = thresholds(p05)
    elapsed = time.perf_counter() - t0
    ok_c = abs(rep.gamma_c - 2.351e-3) <= 0.02 * 2.351e-3
    ok_0 = abs(rep.gamma_0 - 4.3e-2) <= 0.05 * 4.3e-2
    report(1, ok_c and ok_0,
           f"gamma_c={rep.gamma_c:.4e} (target 2.351e-3 +-2%), "
           f"gamma_0={rep.gamma_0:.4e} (target 4.3e-2 +-5%)",
           elapsed, 5.0)


def test_criterion_02_equilibria(p05):
    t0 = time.perf_counter()
    eq5 = solve_equilibria(p05)
    eq001 = solve_equilibria(table1_params(0.01))
    worst_resid = 0.0
    for params, eqs in ((p05, eq5), (table1_params(0.01), eq001)):
        for E, M, F in (eqs.middle, eqs.upper):
            r1 = abs(M - (1 - params.rho) * params.nu_E * E / params.mu_M) / M
            E_pred = params.b * F / (params.b * F / params.K_scalar
                                     + params.mu_E + params.nu_E)
            r2 = abs(E - E_pred) / E
            gamma = params.gamma
            from sitcarpet.equilibria import offspring_number, phi0
            lhs = 1.0 - np.exp(-gamma * phi0(params, F))
            rhs = (params.mu_F * F / (params.rho * params.nu_E
                                      * params.K_scalar)
                   + 1.0 / offspring_number(params))
            r3 = abs(lhs - rhs) / rhs
            worst_resid = max(worst_resid, r1, r2, r3)
    elapsed = time.perf_counter() - t0
    ok = (abs(eq5.upper[2] - 77.4) <= 0.005 * 77.4
          and abs(eq001.upper[2] - 30.12) <= 0.005 * 30.12
          and worst_resid < 1e-8)
    report(2, ok,
           f"F*(0.5)={eq5.upper[2]:.4f} (77.4 +-0.5%), "
           f"F*(0.01)={eq001.upper[2]:.4f} (30.12 +-0.5%), "
           f"stationarity residual={worst_resid:.2e} (<1e-8)",
           elapsed, 1.0)


def test_criterion_03_stability(p05):
    t0 = time.perf_counter()
    mono = solve_equilibria(table1_params(None))
    bist = solve_equilibria(p05)
    checks = {
        "monostable extinction unstable": not mono.extinction_stable,
        "monostable upper stable": mono.upper_stable,
        "bistable extinction stable": bist.extinction_stable,
        "bistable middle unstable": bist.middle_stable is False,
        "bistable upper stable": bist.upper_stable,
    }
    elapsed = time.perf_counter() - t0
    report(3, all(checks.values()),
           "; ".join(f"{k}={'yes' if v else 'NO'}" for k, v in checks.items()),
           elapsed, 1.0)


def test_criterion_04_fig1(p05, fig1_run):
    t0 = time.perf_counter()
    out = classify(fig1_run.traj)
    base = out.speed

    # simultaneous dx and dt halving
    dt = reaction_dt_bound() / 2.0
    fine = Scenario(p05, Grid.cartesian(-40, 40, 1600), ReleaseSchedule(),
                    InitialData(kind="step", x_step=-10.0), t_end=150.0,
                    dt=dt, snapshot_dt=SNAPSHOT_DT)
    fine_traj = run(fine)
    fine_speed = estimate_speed(front_trace(fine_traj)).speed
    elapsed = fig1_run.seconds + time.perf_counter() - t0
    drift = abs(fine_speed - base) / base
    ok = out.kind == "Invasion" and base > 0 and drift <= 0.10
    report(4, ok,
           f"fig1 outcome={out.kind}, speed={base:.4f}, refined="
           f"{fine_speed:.4f}, drift={100 * drift:.2f}% (<=10%)",
           elapsed, 60.0)


def test_criterion_05a_fig2_left(fig2_left_run):
    t0 = time.perf_counter()
    out = classify(fig2_left_run.traj)
    elapsed = fig2_left_run.seconds + time.perf_counter() - t0
    report("5a", out.kind == "Invasion",
           f"fig2-left outcome={out.kind} (expected Invasion), "
           f"speed={out.speed if out.speed else float('nan'):.4f}",
           elapsed, 60.0)


def test_criterion_05b_fig2_right(fig2_right_run):
    # Extinction must come from a retreating front: the upper equilibrium is
    # locally stable here, so the estimated front speed has to be negative.
    fig2_right_traj = fig2_right_run.traj
    t0 = time.perf_counter()
    out = classify(fig2_right_traj)
    eqs = solve_equilibria(fig2_right_traj.scenario.params)
    rel_sup_F = float(fig2_right_traj.F[-1].max() / eqs.upper[2])
    elapsed = fig2_right_run.seconds + time.perf_counter() - t0
    retreating = out.speed is not None and out.speed < 0
    ok = out.kind == "Extinction" and rel_sup_F < 1e-3 and retreating
    speed = f"{out.speed:+.4f}" if out.speed is not None else "none"
    report("5b", ok,
           f"fig2-right outcome={out.kind} (criterion: Extinction), "
           f"relative sup F at T={fig2_right_traj.times[-1]:.0f}: "
           f"{rel_sup_F:.2e} (criterion: <1e-3); front speed {speed} "
           f"(criterion: <0, a retreating wave; the plateau clears near "
           f"t = 1250)",
           elapsed, 60.0)


def test_criterion_06_speed_monotonicity(tmp_path):
    # the fig1 preset with only gamma swapped, through `sitcarpet sweep`
    t0 = time.perf_counter()
    rc = main(["sweep", "--preset", "fig1", "--axis", "model.gamma",
               "--values", "0.05,0.1,0.5,1.0", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    (sweep_csv,) = tmp_path.glob("*/sweep.csv")
    with open(sweep_csv, newline="") as fh:
        rows = [(float(r["model.gamma"]),
                 float("nan") if r["speed"] == "None" else float(r["speed"]))
                for r in csv.DictReader(fh)]
    speeds = [s for _, s in rows]
    nondecreasing = all(b >= a - 1e-9 for a, b in zip(speeds, speeds[1:]))
    report(6, rc == EXIT_OK and len(rows) == 4 and nondecreasing,
           ", ".join(f"c({g})={s:.4f}" for g, s in rows), elapsed, 300.0)


def test_criterion_07_rolling_carpet(carpet_run, carpet_div100_run):
    t0 = time.perf_counter()
    out_full = classify(carpet_run.traj)
    out_small = classify(carpet_div100_run.traj)
    elapsed = (carpet_run.seconds + carpet_div100_run.seconds
               + time.perf_counter() - t0)
    d1 = out_full.diagnostics
    ok = out_full.kind == "Carpet" and out_small.kind == "Invasion"
    report(7, ok,
           f"lambda_bar={CARPET_LAMBDA:.3e} -> {out_full.kind} "
           f"(interior sup {d1['interior_sup']:.2e} < 1e-3, exterior "
           f"{d1['exterior_mismatch']:.2e} < 1e-2); "
           f"lambda_bar/100 -> {out_small.kind}",
           elapsed, 300.0)


def test_criterion_08_comparison_suite(rng):
    t0 = time.perf_counter()
    worst_order = -np.inf
    worst_clamp = 0.0
    for k in range(20):
        gamma = float(rng.uniform(0.01, 1.0)) if k % 3 else None
        p = table1_params(gamma, b=float(rng.uniform(6, 14)),
                          K=float(rng.uniform(120, 280)))
        radial = bool(k % 2)
        grid = Grid.radial(12.0, 121) if radial else Grid.cartesian(-10, 10, 121)
        sched = (ReleaseSchedule(kind="annulus",
                                 lambda_bar=float(rng.uniform(0, 800)),
                                 R1=2.0, R2=5.0, c=0.15)
                 if k % 4 else ReleaseSchedule())
        x = grid.x
        xs = np.linspace(x[0], x[-1], 4)
        mk = lambda hi: np.interp(x, xs, rng.uniform(0, hi, 4))
        E2, M2, F2, Ms2 = mk(p.K_scalar), mk(60), mk(80), mk(100)
        E1 = np.clip(E2 - mk(150), 0, None)
        M1 = np.clip(M2 - mk(50), 0, None)
        F1 = np.clip(F2 - mk(60), 0, None)
        Ms1 = Ms2 + mk(100)
        dt = 0.02
        scen = Scenario(p, grid, sched, InitialData(kind="step"),
                        t_end=5.0, dt=dt, snapshot_dt=20 * dt)
        lo = run(scen, state0=SimState(0.0, E1, M1, F1, Ms1))
        hi = run(scen, state0=SimState(0.0, E2, M2, F2, Ms2))
        scale = max(p.K_scalar, 100.0)
        worst_order = max(
            worst_order,
            float(np.max(lo.E - hi.E)), float(np.max(lo.M - hi.M)),
            float(np.max(lo.F - hi.F)), float(np.max(hi.Ms - lo.Ms)))
        worst_clamp = max(worst_clamp, lo.clamps.worst_rel,
                          hi.clamps.worst_rel)
        Kx = np.broadcast_to(p.K_at(x), x.shape)
        for traj in (lo, hi):
            assert np.all(traj.E <= Kx[None] + 1e-12) and np.all(traj.E >= 0)
            assert np.all(traj.M >= 0) and np.all(traj.F >= 0)
            assert np.all(traj.Ms >= 0)
    elapsed = time.perf_counter() - t0
    ok = worst_order <= 1e-9 * scale and worst_clamp < 1e-9
    report(8, ok,
           f"20 cone-ordered pairs stayed ordered (worst violation "
           f"{worst_order:.2e} vs 1e-9 abs tol), worst clamp "
           f"{worst_clamp:.1e}",
           elapsed, 120.0)


def test_criterion_09_certificates(p05, rng, subsolution_05):
    t0 = time.perf_counter()
    details = []

    # (a) half-line Green solve lower bound, ten random nondecreasing psi
    ok_a = True
    for _ in range(10):
        mu = float(rng.uniform(0.05, 1.0))
        knots = np.sort(rng.uniform(0, 12, 6))
        vals = np.cumsum(rng.uniform(0, 3, 7))
        psi = lambda y, k=knots, v=vals: v[np.searchsorted(k, np.asarray(y, float))]
        xs = np.linspace(0.0, 30, 500)
        u = halfline_green_solve(mu, psi, xs)
        lb = halfline_green_lower_bound(mu, psi(xs), xs)
        ok_a &= bool(np.all(u >= lb - 1e-10 * max(float(vals.max()), 1.0)))
    details.append(f"(a) Green-solve lower bound: {'ok' if ok_a else 'VIOLATED'}")

    # (b) translating stationary pair is a system sub-solution
    rep_b = verify_subsolution(subsolution_05, t_grid=(1.0, 9.0))
    worst_b = max(r.worst_violation for r in rep_b.reports
                  if "residual" in r.name)
    details.append(f"(b) sub-solution residuals <= 1e-6: worst {worst_b:.2e}")

    # (c) super-solution bundle from the documented constant search
    bundle = find_supersolution_bundle(p05, c=CARPET_C, safety=1.5, eps=0.08)
    rep_c = verify_supersolution(bundle)
    details.append(f"(c) super-solution bundle: "
                   f"{'pass' if rep_c.passed else 'FAIL'} "
                   f"(lambda_bar={bundle.lambda_bar:.3e}, L={bundle.L:.2f})")

    # (d) sterile bounds, including exact C1 joints for the tail variant
    annulus = ReleaseSchedule("annulus", 1000.0, CARPET_R1, 30.0, 0.05)
    cap_ok = verify_sterile_cap(p05, annulus, sterile_upper_bound(
        p05, 1000.0, 0.05, 31.0)).passed
    low = make_sterile_lower_bound(p05, annulus, 6.0, 28.0)
    tail = make_sterile_lower_bound(
        p05, dataclasses.replace(annulus, kind="annulus_tail", eta=0.3),
        6.0, 28.0)
    rep_low = verify_sterile_floor(low)
    rep_tail = verify_sterile_floor(tail)
    c1_worst = max(r.worst_violation for r in rep_tail.reports
                   if "joint" in r.name)
    details.append(f"(d) sterile bounds: cap={'ok' if cap_ok else 'FAIL'}, "
                   f"floors={'ok' if rep_low.passed and rep_tail.passed else 'FAIL'}, "
                   f"C1 joint mismatch {c1_worst:.1e} (<1e-10)")

    elapsed = time.perf_counter() - t0
    ok = (ok_a and rep_b.passed and rep_c.passed and cap_ok
          and rep_low.passed and rep_tail.passed and c1_worst <= 1e-10)
    report(9, ok, "; ".join(details), elapsed, 60.0)


def test_criterion_10_cost_scaling(rng):
    t0 = time.perf_counter()
    T_grid = [10.0, 100.0, 1000.0, 10000.0]
    disc = ReleaseSchedule(kind="disc", lambda_bar=1.0, R2=1.0, c=1.0)
    ann = ReleaseSchedule(kind="annulus", lambda_bar=1.0, R1=0.5, R2=1.0,
                          c=1.0)
    e_disc = cost_exponent(disc, T_grid)
    e_ann = cost_exponent(ann, T_grid)

    # closed forms vs space-time quadrature on a random geometry
    R1 = float(rng.uniform(0.5, 3))
    R2 = R1 + float(rng.uniform(1, 4))
    s = ReleaseSchedule(kind="annulus", lambda_bar=2.0, R1=R1, R2=R2, c=0.4)
    T = 20.0
    r = np.linspace(0, R2 + 0.4 * T + 5, 4000)
    t = np.linspace(0, T, 1500)
    quad = sum(_trapezoid(release_value(s, r, ti) * 2 * np.pi * r, r)
               for ti in t) * (t[1] - t[0])
    closed = sterile_cost(s, T)
    match = abs(closed - quad) / quad
    elapsed = time.perf_counter() - t0
    ok = abs(e_disc - 3.0) <= 0.1 and abs(e_ann - 2.0) <= 0.1 and match < 1e-3
    report(10, ok,
           f"exponents: naive {e_disc:.3f} (3.0 +-0.1), annulus {e_ann:.3f} "
           f"(2.0 +-0.1); closed-vs-quadrature {100 * match:.3f}% (<0.1%)",
           elapsed, 1.0)


def test_criterion_11_heterogeneous_K(carpet_hetero_run):
    t0 = time.perf_counter()
    out = classify(carpet_hetero_run.traj)
    elapsed = carpet_hetero_run.seconds + time.perf_counter() - t0
    d = out.diagnostics
    ok = out.kind == "Carpet" and d["interior_sup"] < 1e-3
    report(11, ok,
           f"K in [150,250]: outcome={out.kind}, interior sup "
           f"{d['interior_sup']:.2e} (<1e-3), exterior positivity "
           f"{d.get('exterior_positivity', float('nan')):.3f}",
           elapsed, 300.0)
