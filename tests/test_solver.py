import math
import tracemalloc

import numpy as np

_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))
import pytest
import scipy.linalg

from sitcarpet import solver
from sitcarpet.config import preset, table1_params
from sitcarpet.model import reaction_arrays
from sitcarpet.solver import (
    Grid,
    InitialData,
    ReleaseSchedule,
    SNAPSHOT_DT,
    Scenario,
    SimState,
    SolverError,
    Batch,
    factor_diffusion,
    implicit_diffusion_matrix,
    make_initial,
    reaction_dt_bound,
    release_value,
    run,
    run_batch,
    solve_banded,
    step,
)


def _one_step(state, params, dt, grid):
    """`step` on the batch of one scenario: the (n,) fields of `state`
    after one step of dt."""
    scen = Scenario(params, grid, ReleaseSchedule(),
                    InitialData(kind="step"), t_end=dt, dt=dt)
    rows = (f[None] for f in (state.E, state.M, state.F, state.Ms))
    rows = SimState(state.t, *rows)
    out = step(rows, Batch([scen], dt, rows.Ms))
    return SimState(out.t, out.E[0], out.M[0], out.F[0], out.Ms[0])


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.cartesian(0, 1, 2)
    with pytest.raises(ValueError):
        Grid("radial2d", np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        Grid("weird", np.linspace(0, 1, 5))
    g = Grid.radial(10.0, 11)
    assert g.dx == pytest.approx(1.0)
    assert g.n == 11


class TestReleaseValue:
    def test_annulus(self):
        s = ReleaseSchedule(kind="annulus", lambda_bar=3.0, R1=2, R2=6, c=0.5)
        t = 4.0
        assert release_value(s, (2 + 6) / 2 + 0.5 * t, t) == 3.0
        assert release_value(s, 6 + 0.5 * t + 0.01, t) == 0.0
        assert release_value(s, 2 + 0.5 * t - 0.01, t) == 0.0

    def test_tail(self):
        s = ReleaseSchedule(kind="annulus_tail", lambda_bar=2.0, R1=3, R2=7,
                            c=0.2, eta=0.4)
        t = 5.0
        inner = 3 + 0.2 * t
        assert release_value(s, inner - 1 / 0.4, t) == pytest.approx(2.0 / np.e)
        assert release_value(s, inner + 0.5, t) == 2.0

    def test_disc_and_fixed(self):
        d = ReleaseSchedule(kind="disc", lambda_bar=1.0, R2=2.0, c=1.0)
        assert release_value(d, 2.5, 1.0) == 1.0
        assert release_value(d, 3.5, 1.0) == 0.0
        f = ReleaseSchedule(kind="fixed_region", lambda_bar=1.0, R1=1, R2=2)
        assert release_value(f, 1.5, 100.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReleaseSchedule(kind="annulus", lambda_bar=1.0, R1=5, R2=2)
        with pytest.raises(ValueError):
            ReleaseSchedule(kind="annulus_tail", lambda_bar=1.0, R1=1, R2=2)
        with pytest.raises(ValueError):
            ReleaseSchedule(kind="nope")

    @pytest.mark.parametrize("kind", ["annulus", "annulus_tail", "disc"])
    def test_moving_release_needs_positive_speed(self, kind):
        with pytest.raises(ValueError, match="c must be > 0"):
            ReleaseSchedule(kind=kind, lambda_bar=1.0, R1=1, R2=2, eta=0.3)
        assert ReleaseSchedule(kind=kind, lambda_bar=1.0, R1=1, R2=2,
                               c=0.1, eta=0.3).speed == 0.1

    def test_static_release_may_stand_still(self):
        f = ReleaseSchedule(kind="fixed_region", lambda_bar=1.0, R1=1, R2=2)
        assert f.speed is None
        with pytest.raises(ValueError, match="c must be >= 0"):
            ReleaseSchedule(kind="fixed_region", lambda_bar=1.0, R1=1, R2=2,
                            c=-0.1)


def _initial(params, data, grid, lambda_bar=0.0):
    """`make_initial` of the scenario with these params, initial data and
    grid, and a release of amplitude lambda_bar."""
    return make_initial(Scenario(params, grid,
                                 ReleaseSchedule(lambda_bar=lambda_bar),
                                 data, t_end=1.0))


class TestScenarioDerived:
    def test_hetero_K_is_sampled_once_and_reduced_to_its_max(self):
        scen = preset("carpet-hetero").scenario()
        x = scen.grid.x
        assert np.array_equal(scen.K_nodes, scen.params.K_at(x))
        assert scen.at_max_K.K == float(np.max(scen.K_nodes))
        assert scen.at_max_K.gamma == scen.params.gamma
        assert scen.upper == scen.equilibria.upper
        # computed once and kept, outside the fields: equality and the
        # batch key see none of it
        assert scen.equilibria is scen.equilibria
        fresh = preset("carpet-hetero").scenario()
        assert solver.batch_key(fresh) == solver.batch_key(scen)
        assert "equilibria" not in vars(fresh)

    def test_scalar_K_keeps_its_params(self, p05, eq05):
        scen = Scenario(p05, Grid.cartesian(-5, 5, 11), ReleaseSchedule(),
                        InitialData(kind="step"), t_end=1.0)
        assert scen.at_max_K is p05
        assert np.all(scen.K_nodes == p05.K) and scen.K_nodes.shape == (11,)
        assert scen.upper == eq05.upper

    def test_no_upper_equilibrium_is_a_solver_error(self):
        scen = Scenario(table1_params(1e-4), Grid.cartesian(-5, 5, 11),
                        ReleaseSchedule(), InitialData(kind="step"),
                        t_end=1.0)
        assert scen.equilibria.upper is None
        with pytest.raises(SolverError, match="no positive equilibrium"):
            scen.upper


class TestMakeInitial:
    def test_well_prepared_bounds(self, p05, eq05):
        grid = Grid.radial(40.0, 401)
        data = InitialData(kind="well_prepared", R0_0=10, R0_1=15, u0=0.1)
        st0 = _initial(p05, data, grid, lambda_bar=100.0)
        E_s, M_s, F_s = eq05.upper
        r = grid.radius
        inside = r <= 10
        outside = r > 15
        assert np.allclose(st0.F[inside], 0.1 * F_s)
        assert np.allclose(st0.F[outside], F_s)
        assert np.allclose(st0.E[outside], E_s)
        assert np.allclose(st0.M[outside], M_s)
        assert np.all(st0.Ms[outside] == 0.0)
        assert np.all(st0.Ms[inside] >= 100.0 / p05.mu_s - 1e-9)
        C0 = max(E_s / F_s, M_s / F_s)
        assert np.all(st0.E <= np.minimum(p05.K_scalar, C0 * st0.F) + 1e-9)
        assert np.all(st0.M <= C0 * st0.F + 1e-9)

    def test_u0_zero_clears_center(self, p05):
        grid = Grid.radial(30.0, 301)
        st0 = _initial(p05, InitialData(kind="well_prepared", R0_0=5,
                                        R0_1=8, u0=0.0), grid)
        assert np.all(st0.F[grid.radius <= 5] == 0.0)

    def test_step_kind(self, p05, eq05):
        grid = Grid.cartesian(-20, 20, 201)
        st0 = _initial(p05, InitialData(kind="step", x_step=-5.0), grid)
        assert np.all(st0.F[grid.x < -5] == eq05.upper[2])
        assert np.all(st0.F[grid.x >= -5] == 0.0)

    def test_needs_positive_equilibrium(self):
        grid = Grid.radial(30.0, 301)
        with pytest.raises(SolverError):
            _initial(table1_params(1e-4), InitialData(kind="well_prepared"),
                     grid)


class TestStep:
    def test_zero_state_is_fixed(self, p05):
        grid = Grid.cartesian(-10, 10, 101)
        z = np.zeros(grid.n)
        st0 = SimState(0.0, z.copy(), z.copy(), z.copy(), z.copy())
        out = _one_step(st0, p05, 0.02, grid)
        for f in (out.E, out.M, out.F, out.Ms):
            assert np.all(f == 0.0)

    def test_uniform_equilibrium_is_steady(self, p05, eq05):
        grid = Grid.radial(20.0, 201)
        E, M, F = eq05.upper
        ones = np.ones(grid.n)
        st0 = SimState(0.0, E * ones, M * ones, F * ones, 0.0 * ones)
        out = _one_step(st0, p05, 0.02, grid)
        assert np.max(np.abs(out.F - F)) < 1e-10 * F
        assert np.max(np.abs(out.E - E)) < 1e-10 * E

    def test_pure_diffusion_variance_growth(self):
        # all reactions throttled to ~0: the M field spreads like the heat
        # kernel, variance growing by 2 D t
        p = table1_params(0.5, b=1e-12, nu_E=1e-12, mu_E=1e-12, mu_M=1e-12,
                          mu_F=1e-12, mu_s=1e-12, D=0.1)
        grid = Grid.cartesian(-30, 30, 1201)
        x = grid.x
        M0 = np.exp(-x**2 / (2 * 1.5**2))
        z = np.zeros(grid.n)
        state = SimState(0.0, z.copy(), M0, z.copy(), z.copy())
        scen = Scenario(p, grid, ReleaseSchedule(), InitialData(kind="step"),
                        t_end=20.0, dt=0.02, snapshot_dt=1000 * 0.02)
        traj = run(scen, state0=state)

        def variance(f):
            w = f / _trapezoid(f, x)
            return _trapezoid(w * x**2, x)

        grown = variance(traj.M[-1]) - variance(traj.M[0])
        assert grown == pytest.approx(2 * p.D * 20.0, rel=0.01)


def _ldlt_solve(ab, b):
    """Reference for A x = b, A in (1,1)-banded form: one LAPACK dptsv call
    on W A and W b, with W the row weights w_0 = 1, w_{i+1} = w_i A[i, i+1]
    / A[i+1, i] that make W A symmetric."""
    up, lo = ab[0, 1:], ab[2, :-1]
    w = np.ones(ab.shape[1])
    for i in range(up.size):
        w[i + 1] = w[i] * (up[i] / lo[i])
    d, e, x, info = scipy.linalg.lapack.dptsv(w * ab[1], w[:-1] * up,
                                              (w * b)[:, None])
    assert info == 0
    return x[:, 0]


_SOLVE_GRIDS = pytest.mark.parametrize(
    "grid", [Grid.radial(20.0, 201), Grid.cartesian(-10.0, 10.0, 201)],
    ids=["radial", "cartesian"])
# "neumann" is the matrix of a run; "mbar" the male matrix of the
# super-solution walk, the same plus dt mu_M on the diagonal
_SOLVE_MATRICES = pytest.mark.parametrize("matrix", ["neumann", "mbar"])


def _solve_matrix(matrix, grid, dt=0.035):
    ab = implicit_diffusion_matrix(grid, 0.8, dt)
    if matrix == "mbar":
        ab[1, :] += dt * 0.1
    return ab


class TestFactoredSolve:
    @_SOLVE_GRIDS
    @_SOLVE_MATRICES
    def test_bit_identical_to_solve_banded(self, rng, grid, matrix):
        # the batched solve is, column by column, one LDL^T solve
        ab = _solve_matrix(matrix, grid)
        rhs = np.asfortranarray(rng.uniform(0.0, 100.0, (grid.n, 3)))
        out = solve_banded(factor_diffusion(ab), rhs.copy(order="F"))
        for j in range(3):
            assert np.array_equal(out[:, j], _ldlt_solve(ab, rhs[:, j]))

    @_SOLVE_GRIDS
    @_SOLVE_MATRICES
    def test_symmetrized_solve_matches_gtsv(self, rng, grid, matrix):
        # W A is symmetric to rounding, and the solve agrees with the
        # pivoted gtsv solve to rounding
        ab = _solve_matrix(matrix, grid)
        factor = factor_diffusion(ab)
        upper = factor.w[:-1] * ab[0, 1:]
        lower = factor.w[1:] * ab[2, :-1]
        assert np.all(factor.w > 0.0)
        assert np.max(np.abs(upper - lower) / np.abs(upper)) < 1e-14
        rhs = np.asfortranarray(rng.uniform(0.0, 100.0, (grid.n, 4)))
        out = solve_banded(factor, rhs.copy(order="F"))
        expect = np.column_stack([scipy.linalg.solve_banded((1, 1), ab, c)
                                  for c in rhs.T])
        assert np.max(np.abs(out - expect)) <= 1e-13 * np.max(np.abs(expect))
        one = solve_banded(factor, rhs[:, 0].copy())
        assert one.shape == (grid.n,)
        assert np.array_equal(one, out[:, 0])

    @pytest.mark.parametrize("entry", [(0, 5), (2, 5), (0, -1)])
    def test_unsymmetrizable_matrix_is_a_solver_error(self, entry):
        # an off-diagonal pair with a zero or a positive entry has no
        # positive weight that makes it symmetric
        ab = implicit_diffusion_matrix(Grid.cartesian(0.0, 1.0, 11), 1.0,
                                       0.01)
        for value in (0.0, 0.5):
            bad = ab.copy()
            bad[entry] = value
            with pytest.raises(SolverError, match="not symmetrizable"):
                factor_diffusion(bad)

    @pytest.mark.parametrize("release", [True, False],
                             ids=["neumann", "neumann-no-release"])
    def test_run_matches_per_field_solves(self, rng, p05, release):
        # reference: the scheme with one LDL^T solve per field; without a
        # release and with Ms0 = +0.0, the run skips the Ms solve, and its
        # Ms must still be the reference's +0.0 bit for bit
        grid = Grid.radial(12.0, 121)
        sched = ReleaseSchedule(kind="annulus", lambda_bar=300.0, R1=2.0,
                                R2=5.0, c=0.1)
        if not release:
            sched = ReleaseSchedule()
        xs = np.linspace(0.0, 12.0, 4)
        mk = lambda hi: np.interp(grid.x, xs, rng.uniform(0, hi, 4))
        state = SimState(0.0, mk(p05.K_scalar), mk(60), mk(80),
                         mk(100) if release else np.zeros(grid.n))
        dt, n_steps = 0.02, 25
        scen = Scenario(p05, grid, sched, InitialData(kind="step"),
                        t_end=dt * n_steps, dt=dt, snapshot_dt=n_steps * dt)
        traj = run(scen, state0=state)

        ab = implicit_diffusion_matrix(grid, p05.D, traj.dt)
        K, dt = p05.K_scalar, traj.dt
        t, E, M, F, Ms = 0.0, state.E, state.M, state.F, state.Ms
        for _ in range(n_steps):
            lam = release_value(sched, grid.radius, t)
            fE, _, (fM, fF, fs) = reaction_arrays(p05, (E, M, F, Ms), lam, K)
            fields = []
            for u, f, mu in ((M, fM, p05.mu_M), (F, fF, p05.mu_F),
                             (Ms, fs, p05.mu_s)):
                rhs = u - math.expm1(-dt * mu) / mu * f
                fields.append(np.maximum(_ldlt_solve(ab, rhs), 0.0))
            a = p05.b * F / K + (p05.mu_E + p05.nu_E)
            E = np.clip(E - np.expm1(-dt * a) / a * fE, 0.0, K)
            M, F, Ms = fields
            t += dt
        for got, expect in zip((traj.E, traj.M, traj.F, traj.Ms),
                               (E, M, F, Ms)):
            assert np.array_equal(got[-1], expect)
        if not release:
            assert not np.any(Ms) and not np.any(np.signbit(traj.Ms))

    def test_run_factors_once(self, monkeypatch, p05):
        calls = []

        def counting(ab):
            calls.append(ab.shape)
            return factor_diffusion(ab)

        monkeypatch.setattr(solver, "factor_diffusion", counting)
        scen = Scenario(p05, Grid.cartesian(-15, 15, 151), ReleaseSchedule(),
                        InitialData(kind="step", x_step=0.0), t_end=3.0,
                        snapshot_dt=0.5)
        traj = run(scen)
        assert traj.times.size > 2
        assert calls == [(3, 151)]

    @pytest.mark.parametrize("field", ["F", "Ms"])
    def test_non_finite_state_is_a_solver_error(self, p05, eq05, field):
        grid = Grid.radial(20.0, 201)
        E, M, F = eq05.upper
        ones = np.ones(grid.n)
        st0 = SimState(0.0, E * ones, M * ones, F * ones, 0.0 * ones)
        getattr(st0, field)[50] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            _one_step(st0, p05, 0.02, grid)


class TestBatch:
    """Members advanced as one (S, n) state match their own runs bitwise."""

    @staticmethod
    def _members():
        grid = Grid.radial(12.0, 121)
        initial = InitialData(kind="well_prepared", R0_0=3.0, R0_1=5.0)

        def member(gamma, K, schedule, **rates):
            return Scenario(table1_params(gamma, K=K, **rates), grid,
                            schedule, initial, t_end=6.0, snapshot_dt=1.0)

        shared = ReleaseSchedule(kind="annulus", lambda_bar=300.0, R1=2.0,
                                 R2=5.0, c=0.1)
        return [
            member(0.5, 200.0, shared),
            member(1.0, 200.0, shared),
            member(0.5, _hetero_K,
                   ReleaseSchedule(kind="annulus_tail", lambda_bar=500.0,
                                   R1=2.0, R2=6.0, c=0.2, eta=0.5)),
            member(0.3, 250.0, ReleaseSchedule(), mu_M=0.2, mu_F=0.12,
                   mu_s=0.4, b=8.0, rho=0.6),
        ]

    @pytest.mark.parametrize("edge", ["neumann"])  # the ids name the edge
    def test_members_match_their_own_runs(self, edge):
        # members differ in gamma, lambda_bar, c, release kind, K (one
        # callable) and rates; two share a schedule
        members = self._members()
        batch = run_batch(members)
        for scen, got in zip(members, batch):
            alone = run(scen)
            assert got.scenario is scen
            assert (got.dt, got.n_steps) == (alone.dt, alone.n_steps)
            assert np.array_equal(got.times, alone.times)
            for f in ("E", "M", "F", "Ms"):
                assert np.array_equal(getattr(got, f), getattr(alone, f))
            assert got.clamps == alone.clamps

    @pytest.mark.parametrize("case,fields", [
        ("no-release", 2), ("one-release", 3), ("Ms0-positive", 3),
        ("Ms0-negative-zero", 3)])
    def test_sterile_columns_only_when_Ms_can_move(self, monkeypatch, case,
                                                   fields):
        # with no release (kind none or lambda_bar 0) and Ms0 = +0.0 in
        # every member, Ms stays +0.0 and a step solves 2 columns per
        # member; a release in one member, or one initial Ms that is not
        # +0.0 (-0.0 included), makes it 3
        shapes = []
        solve = solver.solve_banded

        def recording(factor, rhs):
            shapes.append(rhs.shape)
            return solve(factor, rhs)

        monkeypatch.setattr(solver, "solve_banded", recording)
        grid = Grid.radial(12.0, 121)
        initial = InitialData(kind="well_prepared", R0_0=3.0, R0_1=5.0)
        annulus = dict(kind="annulus", R1=2.0, R2=5.0, c=0.1)
        schedules = [ReleaseSchedule(),
                     ReleaseSchedule(lambda_bar=0.0, **annulus),
                     ReleaseSchedule(lambda_bar=300.0 * (case == "one-release"),
                                     **annulus)]
        members = [Scenario(table1_params(gamma), grid, sched, initial,
                            t_end=1.0, snapshot_dt=1.0)
                   for gamma, sched in zip((0.3, 0.5, 1.0), schedules)]
        states0 = [make_initial(s) for s in members]
        if case == "Ms0-positive":
            states0[1].Ms[60] = 1e-3
        elif case == "Ms0-negative-zero":
            states0[1].Ms[60] = -0.0
        trajs = run_batch(members, states0)
        assert shapes == [(grid.n, fields * 3)] * trajs[0].n_steps
        if fields == 2:
            assert all(np.all(t.Ms == 0.0) for t in trajs)

    def test_run_is_the_batch_of_one(self, monkeypatch):
        seen = []

        def recording(scenarios, states0=None):
            seen.append(len(scenarios))
            return run_batch(scenarios, states0)

        monkeypatch.setattr(solver, "run_batch", recording)
        scen = self._members()[0]
        run(scen)
        assert seen == [1]

    @pytest.mark.parametrize("depth", [1e-10, 1e-6])
    def test_clamps_are_per_member(self, monkeypatch, depth):
        # an undershoot of about depth times member 1's F scale, planted in
        # its F column each step: counted and clamped for member 1 alone
        # under CLAMP_FAIL_THRESHOLD (1e-9), a SolverError naming it above
        members = self._members()[:3]
        solve = solver.solve_banded

        def undershooting(lu, rhs):
            out = solve(lu, rhs)
            col = out[:, 3 + 1]  # field F (1 of M, F, Ms), member 1 of 3
            col[7] = -depth * max(float(col.max()), 1.0)
            return out

        monkeypatch.setattr(solver, "solve_banded", undershooting)
        if depth > solver.CLAMP_FAIL_THRESHOLD:
            with pytest.raises(SolverError, match=r"\(member 1\)"):
                run_batch(members)
            return
        trajs = run_batch(members)
        assert [t.clamps.count for t in trajs] == [0, trajs[1].n_steps, 0]
        assert trajs[1].clamps.worst_rel == pytest.approx(depth, rel=0.1)
        assert np.all(trajs[1].F >= 0.0)

    def test_snapshots_are_held_once(self):
        # the (n_snap, 4, S, n) snapshot block is allocated once and each
        # snapshot written into its row; a list of copies stacked at the
        # end peaks at about two blocks on this 8-row fig1 batch
        members = []
        for gamma in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 2.0):
            cfg = preset("fig1")
            cfg.model["gamma"] = gamma
            members.append(cfg.scenario())
        states0 = [make_initial(s) for s in members]
        tracemalloc.start()
        try:
            trajs = run_batch(members, states0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_snap, n = trajs[0].times.size, members[0].grid.n
        block_nbytes = 8 * n_snap * 4 * len(members) * n
        assert peak < 1.2 * block_nbytes

    @pytest.mark.parametrize("change", [
        {"t_end": 5.0}, {"dt": 0.2}, {"snapshot_dt": 2.0},
        {"grid": Grid.cartesian(0.0, 12.0, 121)},  # same x, other kind
        {"grid": Grid.radial(12.0, 61)},
        {"params": table1_params(0.5, D=2.0)},
        {"params": table1_params(None)}])
    def test_incompatible_members_are_refused(self, change):
        import dataclasses
        scen = self._members()[0]
        other = dataclasses.replace(scen, **change)
        assert solver.batch_key(other) != solver.batch_key(scen)
        with pytest.raises(ValueError, match="batch members must share"):
            run_batch([scen, other])


def _ordered_pair(rng, x, K_nodes):
    """Random cone-ordered initial states (lo <= hi), E inside [0, K(x)]."""
    xs = np.linspace(x[0], x[-1], 4)
    mk = lambda hi: np.interp(x, xs, rng.uniform(0, hi, 4))
    E2, M2, F2, Ms2 = K_nodes * mk(1.0), mk(60), mk(80), mk(100)
    lo = SimState(0.0, np.clip(E2 - mk(150), 0, None),
                  np.clip(M2 - mk(50), 0, None), np.clip(F2 - mk(60), 0, None),
                  Ms2 + mk(100))
    return lo, SimState(0.0, E2, M2, F2, Ms2)


def _hetero_K(x):
    return 200.0 + 50.0 * np.sin(2.0 * np.pi * np.abs(x) / 10.0)


class TestMonotoneStep:
    """The scheme keeps cone order and the invariant region at any dt."""

    @pytest.mark.parametrize("dt", [0.25, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("radial,gamma,lambda_bar,K", [
        pytest.param(radial, gamma, lam, 200.0,
                     id=f"{'radial' if radial else 'cartesian'}-"
                        f"{'bistable' if gamma else 'monostable'}-"
                        f"{'release' if lam else 'no-release'}")
        for radial in (True, False) for gamma in (None, 0.5)
        for lam in (0.0, 500.0)
    ] + [pytest.param(True, 0.5, 500.0, _hetero_K,
                      id="radial-bistable-release-K(x)")])
    def test_ordered_pairs_at_any_dt(self, rng, radial, gamma, lambda_bar, K,
                                     dt):
        p = table1_params(gamma, K=K)
        grid = (Grid.radial(12.0, 121) if radial
                else Grid.cartesian(-10, 10, 121))
        sched = (ReleaseSchedule(kind="annulus", lambda_bar=lambda_bar,
                                 R1=2.0, R2=5.0, c=0.15)
                 if lambda_bar else ReleaseSchedule())
        x = grid.x
        K_nodes = np.broadcast_to(p.K_at(x), x.shape)
        scen = Scenario(p, grid, sched, InitialData(kind="step"),
                        t_end=40 * dt, dt=dt, snapshot_dt=4 * dt)
        for _ in range(5):
            lo0, hi0 = _ordered_pair(rng, x, K_nodes)
            lo, hi = run(scen, state0=lo0), run(scen, state0=hi0)
            assert hi.n_steps == 40 and hi.dt == pytest.approx(dt, rel=1e-15)
            tol = 1e-9 * 200.0
            assert np.all(lo.E <= hi.E + tol) and np.all(lo.M <= hi.M + tol)
            assert np.all(lo.F <= hi.F + tol) and np.all(lo.Ms >= hi.Ms - tol)
            for traj in (lo, hi):
                assert traj.clamps.count == 0
                assert np.all(traj.E >= 0) and np.all(traj.E <= K_nodes)

    def test_egg_update_is_monotone_at_a_large_dt(self):
        # E' on a mesh of E in [0, K] and F in [0, F_cap] at the smallest K
        # of _hetero_K, where the egg loss rate a is largest; E does not
        # diffuse, so each node is one (E, F) pair
        K = _hetero_K(np.linspace(0.0, 10.0, 1001))
        K_min = float(K.min())
        p = table1_params(0.5, K=K_min)
        F_cap = p.rho * p.nu_E * float(K.max()) / p.mu_F
        E, F = np.meshgrid(np.linspace(0.0, K_min, 41),
                           np.linspace(0.0, F_cap, 41), indexing="ij")
        grid = Grid.cartesian(0.0, 1.0, E.size)
        z = np.zeros(E.size)
        state = SimState(0.0, E.ravel(), z, F.ravel(), z)
        out = _one_step(state, p, 50.0, grid)
        E_new = out.E.reshape(E.shape)
        tol = 1e-12 * K_min
        assert np.all(np.diff(E_new, axis=0) >= -tol)  # in E
        assert np.all(np.diff(E_new, axis=1) >= -tol)  # in F
        assert E_new.min() >= 0.0 and E_new.max() <= K_min

    def test_exact_egg_step_is_monotone_past_the_explicit_bound(self, p05):
        # at F = F_cap the egg loss rate is a = b F_cap / K + mu_E + nu_E;
        # forward Euler on E loses order and leaves [0, K] past dt = 1 / a,
        # the exact egg step keeps both there
        K = p05.K_scalar
        F_cap = p05.rho * p05.nu_E * K / p05.mu_F
        a = p05.b * F_cap / K + p05.mu_E + p05.nu_E
        dt = 1.5 / a
        E = np.linspace(0.0, K, 401)
        z = np.zeros_like(E)
        F = np.full_like(E, F_cap)
        euler = E + dt * reaction_arrays(p05, (E, z, F, z), 0.0, K)[0]
        assert np.any(np.diff(euler) < 0.0) and euler.max() > K
        out = _one_step(SimState(0.0, E, z, F, z), p05, dt,
                        Grid.cartesian(0.0, 1.0, E.size))
        tol = 1e-12 * K
        assert np.all(np.diff(out.E) >= -tol)
        assert out.E.min() >= 0.0 and out.E.max() <= K


def test_dt_halving_observed_order(p05, eq05):
    # fig1 kinetics on n = 800: the front position at t = 60 converges at
    # first order as dt halves from the automatic step
    from sitcarpet.waves import front_position
    grid = Grid.cartesian(-40, 40, 800)
    t_end = 60.0
    n0 = int(np.ceil(t_end / reaction_dt_bound()))
    positions = []
    for k in range(4):
        scen = Scenario(p05, grid, ReleaseSchedule(),
                        InitialData(kind="step", x_step=-10.0), t_end=t_end,
                        dt=t_end / (n0 * 2**k), snapshot_dt=t_end)
        traj = run(scen)
        positions.append(front_position(traj.F[-1], grid,
                                        eq05.upper[2] / 2))
    gaps = np.abs(np.diff(positions))
    orders = np.log2(gaps[:-1] / gaps[1:])
    print(f"\nobserved order in dt: {orders[0]:.3f}, {orders[1]:.3f}")
    assert np.all((orders >= 0.8) & (orders <= 1.2))


class TestRunProperties:
    def test_determinism(self, p05):
        scen = Scenario(p05, Grid.cartesian(-15, 15, 151), ReleaseSchedule(),
                        InitialData(kind="step", x_step=0.0), t_end=3.0,
                        snapshot_dt=0.5)
        t1 = run(scen)
        t2 = run(scen)
        assert np.array_equal(t1.F, t2.F)
        assert np.array_equal(t1.Ms, t2.Ms)

    @pytest.mark.parametrize("snapshot_dt,steps", [
        (0.25, [3, 5, 8, 10]),   # first step at or after 0.25, 0.5, 0.75, 1
        (0.3, [3, 6, 9, 10]),    # plus the final step
        (0.05, list(range(1, 11))),  # finer than dt: every step
        (5.0, [10])])
    def test_snapshot_times(self, p05, snapshot_dt, steps):
        scen = Scenario(p05, Grid.cartesian(-5, 5, 21), ReleaseSchedule(),
                        InitialData(kind="step"), t_end=1.0, dt=0.1,
                        snapshot_dt=snapshot_dt)
        traj = run(scen)
        assert traj.n_steps == 10
        assert traj.times == pytest.approx([0.0] + [0.1 * k for k in steps],
                                           abs=1e-12)

    def test_presets_keep_44_snapshots(self, fig1_traj):
        assert fig1_traj.times.size == 44
        assert fig1_traj.n_steps == 600

    def test_radial_flat_matches_zero_d_march(self, p05, eq05):
        # flat fields make the radial operator exactly inert, so the run
        # must reproduce the same exact-step reaction march to roundoff
        grid = Grid.radial(10.0, 101)
        E, M, F = eq05.upper
        frac = 0.73
        ones = np.ones(grid.n)
        st0 = SimState(0.0, frac * E * ones, frac * M * ones, frac * F * ones,
                       5.0 * ones)
        dt = 0.02
        scen = Scenario(p05, grid, ReleaseSchedule(), InitialData(kind="step"),
                        t_end=4.0, dt=dt, snapshot_dt=50 * dt)
        traj = run(scen, state0=st0)
        # 0-D fields under the identical splitting (diffusion is identity)
        y = np.array([frac * E, frac * M, frac * F, 5.0])
        mu = np.array([p05.mu_M, p05.mu_F, p05.mu_s])
        n = int(round(4.0 / dt))
        for _ in range(n):
            fE, _, f = reaction_arrays(p05, y[:, None], 0.0, p05.K_scalar)
            a = p05.b * y[2] / p05.K_scalar + (p05.mu_E + p05.nu_E)
            h = -np.expm1(-dt * np.array([a, *mu])) / np.array([a, *mu])
            y = y + h * np.concatenate((fE, f[:, 0]))
        for arr, val in zip((traj.E[-1], traj.M[-1], traj.F[-1], traj.Ms[-1]), y):
            assert np.max(np.abs(arr - val)) < 1e-8 * max(abs(val), 1.0)
        # flatness is preserved
        assert np.ptp(traj.F[-1]) < 1e-10 * F

    def test_invariant_region_random_scenarios(self, rng):
        for _ in range(5):
            gamma = float(rng.uniform(0.005, 1.0)) if rng.random() < 0.7 else None
            p = table1_params(gamma, b=float(rng.uniform(5, 15)),
                              K=float(rng.uniform(100, 300)))
            radial = rng.random() < 0.5
            grid = Grid.radial(12.0, 101) if radial else Grid.cartesian(-10, 10, 101)
            sched = (ReleaseSchedule(kind="annulus",
                                     lambda_bar=float(rng.uniform(0, 1e3)),
                                     R1=2.0, R2=5.0, c=0.2)
                     if rng.random() < 0.5 else ReleaseSchedule())
            K = p.K_scalar
            x = grid.x
            xs = np.linspace(x[0], x[-1], 4)
            mk = lambda hi: np.interp(x, xs, rng.uniform(0, hi, 4))
            st0 = SimState(0.0, mk(K), mk(60), mk(80), mk(200))
            scen = Scenario(p, grid, sched, InitialData(kind="step"),
                            t_end=4.0, snapshot_dt=0.5)
            traj = run(scen, state0=st0)
            Kx = np.broadcast_to(p.K_at(x), x.shape)
            assert np.all(traj.E >= 0) and np.all(traj.E <= Kx[None] + 1e-12)
            for f in (traj.M, traj.F, traj.Ms):
                assert np.all(f >= 0)
            assert traj.clamps.worst_rel < 1e-9

    def test_comparison_principle_pairs(self, rng):
        # cone-ordered data stay ordered under a shared scheme and schedule
        for _ in range(4):
            gamma = float(rng.uniform(0.01, 1.0)) if rng.random() < 0.5 else None
            p = table1_params(gamma)
            grid = Grid.radial(12.0, 121)
            sched = ReleaseSchedule(kind="annulus", lambda_bar=300.0,
                                    R1=2.0, R2=5.0, c=0.1)
            x = grid.x
            xs = np.linspace(x[0], x[-1], 4)
            mk = lambda hi: np.interp(x, xs, rng.uniform(0, hi, 4))
            E2, M2, F2, Ms2 = mk(p.K_scalar), mk(60), mk(80), mk(100)
            E1 = np.clip(E2 - mk(100), 0, None)
            M1 = np.clip(M2 - mk(40), 0, None)
            F1 = np.clip(F2 - mk(50), 0, None)
            Ms1 = Ms2 + mk(80)
            dt = 0.02
            scen = Scenario(p, grid, sched, InitialData(kind="step"),
                            t_end=4.0, dt=dt, snapshot_dt=10 * dt)
            lo = run(scen, state0=SimState(0.0, E1, M1, F1, Ms1))
            hi = run(scen, state0=SimState(0.0, E2, M2, F2, Ms2))
            tol = 1e-9 * max(p.K_scalar, 100.0)
            assert np.all(lo.E <= hi.E + tol)
            assert np.all(lo.M <= hi.M + tol)
            assert np.all(lo.F <= hi.F + tol)
            assert np.all(lo.Ms >= hi.Ms - tol)

    def test_step_right_mirrors_left(self, p05):
        # on a grid symmetric about 0, the equilibrium right of x = 10 is
        # the mirror image of the equilibrium left of x = -10, and so is
        # the run
        grid = Grid.cartesian(-40.0, 40.0, 800)

        def final(x_step, side):
            return run(Scenario(p05, grid, ReleaseSchedule(),
                                InitialData(kind="step", x_step=x_step,
                                            step_side=side),
                                t_end=30.0, snapshot_dt=30.0))

        left, right = final(-10.0, "left"), final(10.0, "right")
        for f in ("E", "M", "F"):
            a, b = getattr(left, f)[-1], getattr(right, f)[-1][::-1]
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_front_refinement_consistency(self, p05, eq05):
        # halving dx and dt moves the measured front by < 2%
        from sitcarpet.waves import front_position
        positions = []
        for n, dt_scale in ((400, 1.0), (800, 0.5)):
            grid = Grid.cartesian(-40, 40, n)
            dt = reaction_dt_bound() * dt_scale
            scen = Scenario(p05, grid, ReleaseSchedule(),
                            InitialData(kind="step", x_step=-10.0),
                            t_end=60.0, dt=dt, snapshot_dt=60.0)
            traj = run(scen)
            pos = front_position(traj.F[-1], grid, eq05.upper[2] / 2)
            positions.append(pos)
        spread = abs(positions[1] - positions[0])
        assert spread < 0.02 * (positions[1] + 40.0)
