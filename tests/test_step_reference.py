"""`step` is bit for bit the step written as one pass per formula.

The reference below evaluates every rate on its own, as the kinetics read
before `b F` was shared, M and F were stacked and the release and Ms rate
were skipped in batches without sterile males: a release field and an Ms
rate every step, and the general mating factor M/P Gamma(P) with
P = M + gamma_s Ms.  Each member's row must come out with the same bits,
also where M is 0 on the monostable kinetics, whose factor is 0 there and
1 wherever M > 0.
"""

import itertools

import numpy as np
import pytest

from sitcarpet.config import table1_params
from sitcarpet.solver import (Batch, Grid, InitialData, ReleaseSchedule,
                              Scenario, SimState, make_initial,
                              release_value, solve_banded, step)

N_STEPS = 200
DT = 0.25
GAMMAS = (0.5, 0.1, 1.0, 0.05)  # bistable members
BIRTH_RATES = (10.0, 8.0, 12.0, 9.0)  # monostable members
LAMBDAS = (300.0, 500.0, 300.0, 800.0)  # releases, with repeats


def _hetero_K(x):
    return 200.0 + 50.0 * np.sin(2.0 * np.pi * np.abs(x) / 10.0)


def _members(fields, S, kind, K):
    """S scenarios of one batch: a 1D invasion step without sterile males
    (2 fields), or a radial annulus release (3 fields)."""
    extra = {} if K == "scalar" else {"K": _hetero_K}
    if kind == "bistable":
        params = [table1_params(g, **extra) for g in GAMMAS[:S]]
    else:
        params = [table1_params(None, b=b, **extra) for b in BIRTH_RATES[:S]]
    if fields == 2:
        grid = Grid.cartesian(-40.0, 40.0, 321)
        initial = InitialData(kind="step", x_step=-10.0)
        schedules = [ReleaseSchedule()] * S
    else:
        grid = Grid.radial(30.0, 241)
        initial = InitialData()
        schedules = [ReleaseSchedule(kind="annulus", lambda_bar=lam, R1=2.0,
                                     R2=5.0, c=0.1) for lam in LAMBDAS[:S]]
    return [Scenario(p, grid, sched, initial, t_end=N_STEPS * DT, dt=DT)
            for p, sched in zip(params, schedules)]


def _reference_step(state, scenarios, dt, fields, factor):
    """One step of every member, each rate on its own as (S, n) rows."""
    E, M, F, Ms = state.E, state.M, state.F, state.Ms
    params = [s.params for s in scenarios]
    n = E.shape[1]

    def rows(name):
        return np.repeat(np.array([[getattr(p, name)] for p in params]), n,
                         axis=1)

    K = np.array([s.K_nodes for s in scenarios])
    lam = np.array([release_value(s.schedule, s.grid.x, state.t)
                    for s in scenarios])
    b, egg_loss = rows("b"), rows("egg_loss")
    fE = b * F * (1.0 - E / K) - egg_loss * E
    fM = rows("male_recruitment") * E - rows("mu_M") * M
    P = M + rows("gamma_s") * Ms
    g = np.divide(M, P, out=np.zeros_like(P), where=P > 0)
    if params[0].gamma is not None:
        g *= -np.expm1(-rows("gamma") * np.maximum(P, 0.0))
    fF = rows("female_recruitment") * E * g - rows("mu_F") * F
    fs = lam - rows("mu_s") * Ms

    a = b * F / K + egg_loss
    E_new = np.maximum(E - np.expm1(-dt * a) / a * fE, 0.0)
    np.minimum(E_new, K, out=E_new)
    rhs = []
    for u, f, mu in ((M, fM, "mu_M"), (F, fF, "mu_F"), (Ms, fs, "mu_s"))[
            :fields]:
        neg_h = np.repeat(np.array([[np.expm1(-dt * getattr(p, mu))
                                     / getattr(p, mu)] for p in params]), n,
                          axis=1)
        rhs.append(u - neg_h * f)
    out = np.array(rhs)
    x = solve_banded(factor, out.reshape(-1, n).T).T.reshape(out.shape)
    for j, i in itertools.product(range(fields), range(len(scenarios))):
        if x[j, i].min() < 0.0:
            np.maximum(x[j, i], 0.0, out=x[j, i])
    return SimState(state.t + dt, E_new, x[0], x[1],
                    x[2] if fields == 3 else Ms)


@pytest.mark.parametrize("K", ["scalar", "hetero"])
# every run's outer edge is zero-flux; the ids name it
@pytest.mark.parametrize("edge", ["neumann"])
@pytest.mark.parametrize("kind", ["bistable", "monostable"])
@pytest.mark.parametrize("S", [1, 2, 4])
@pytest.mark.parametrize("fields", [2, 3])
def test_step_is_bitwise_the_reference(fields, S, kind, edge, K):
    scenarios = _members(fields, S, kind, K)
    starts = [make_initial(s) for s in scenarios]
    state = SimState.stacked(0.0, np.stack([s.y for s in starts], axis=1))
    if fields == 2:
        # no males on a band behind the front, where there are eggs: the
        # monostable factor is 0 there, not 1
        x = scenarios[0].grid.x
        state.M[:, (x > -30.0) & (x < -20.0)] = 0.0
        assert np.any((state.M == 0.0) & (state.E > 0.0))
    batch = Batch(scenarios, DT, state.Ms)
    assert batch.fields == fields
    ref = SimState(0.0, state.E, state.M, state.F, state.Ms)
    for _ in range(N_STEPS):
        state = step(state, batch)
        ref = _reference_step(ref, scenarios, DT, fields, batch.factor)
        assert state.t == ref.t
        assert state.y.tobytes() == ref.y.tobytes()
    if fields == 2:
        assert state.Ms.tobytes() == np.zeros_like(state.Ms).tobytes()
