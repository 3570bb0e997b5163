"""The certify path does each piece of its work once.

Counting fixtures, as in `test_equilibrium_calls.py`, pin how much work
`verify` does: the potential-integrand points of one stationary profile
and the Fbar blocks of the super-solution certificate.  Bitwise
references check that the work skipped would have returned the same
bits.
"""

import sys

import numpy as np
import pytest

import sitcarpet.equilibria
import sitcarpet.supersolution
from sitcarpet.cli import main
from sitcarpet.config import preset, table1_params
from sitcarpet.profiles import (
    _APPROACH_TOL,
    _GAUSS_CHUNK,
    _PotentialGap,
    _gauss_cells,
    _inverse_map,
    _locate_maximizer,
    build_stationary_F,
    find_eps0,
)


def _count_everywhere(monkeypatch, original, size):
    """Patch every binding of `original` in the sitcarpet modules with a
    counting wrapper; returns the list of size(args) per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(size(args))
        return original(*args, **kwargs)

    patched = []
    for name, module in list(sys.modules.items()):
        if name == "sitcarpet" or name.startswith("sitcarpet."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
                    patched.append(name)
    return calls, set(patched)


@pytest.fixture
def integrand_points(monkeypatch):
    """Points of every `_wave_integrand` call, through any binding."""
    calls, patched = _count_everywhere(
        monkeypatch, sitcarpet.equilibria._wave_integrand,
        lambda args: np.size(args[2]))
    assert {"sitcarpet.equilibria", "sitcarpet.profiles"} <= patched
    return calls


@pytest.fixture
def fbar_calls(monkeypatch):
    """One entry per `assemble_Fbar` call, through any binding."""
    calls, patched = _count_everywhere(
        monkeypatch, sitcarpet.supersolution.assemble_Fbar,
        lambda args: np.size(args[2]))
    assert {"sitcarpet.supersolution", "sitcarpet.verify"} <= patched
    return calls


@pytest.fixture(scope="module")
def carpet():
    scenario = preset("carpet").scenario()
    eq = scenario.equilibria
    return scenario.params, eq, find_eps0(scenario.params, eq.upper[2])


def test_stationary_profile_integrand_points(carpet, integrand_points):
    # the Newton refinement re-refines only moving points: 962,647 points
    # on the carpet's eps profile, where refining all 7415 points 4 times
    # took 1,178,557
    params, eq, eps = carpet
    assert build_stationary_F(params, eps=eps, equilibria=eq) is not None
    assert sum(integrand_points) <= 1_000_000


def test_supersolution_certificate_Fbar_calls(capsys, fbar_calls):
    # two blocks per FBAR_BLOCK steps of the walk plus the residual, kink
    # and female-cap times
    assert main(["verify", "--preset", "carpet",
                 "--which", "supersolution"]) == 0
    assert len(fbar_calls) == 91


def test_gauss_cells_on_a_subset_is_that_subset(carpet):
    # each cell's integral depends on that cell alone, bitwise, across
    # chunk boundaries and at any offset in a chunk
    params, eq, eps = carpet
    F_star = eq.upper[2]
    gap = _PotentialGap(params, F_star,
                        _locate_maximizer(params, F_star, eps), eps)
    edges = np.linspace(0.0, gap.F_m, 3 * _GAUSS_CHUNK + 2)
    full = _gauss_cells(gap.v, edges[:-1], edges[1:])
    rng = np.random.default_rng(7)
    for subset in (rng.choice(full.size, 777, replace=False),
                   np.arange(5, full.size, 3), np.array([full.size - 1])):
        part = _gauss_cells(gap.v, edges[:-1][subset], edges[1:][subset])
        assert part.tobytes() == full[subset].tobytes()


def _stationary_F_reference(params, eps, eq):
    """The values of build_stationary_F with 4 Newton iterations on every
    point, as written before the refinement skipped settled points."""
    F_star = eq.upper[2]
    F_m = _locate_maximizer(params, F_star, eps)
    gap = _PotentialGap(params, F_star, F_m, eps)
    F_knots, x_knots, x_of_F = _inverse_map(gap)
    x_out = np.arange(0.0, float(x_knots[-1]), 0.01)
    F_out = np.interp(x_out, x_knots, F_knots)
    for _ in range(4):
        F_out = np.clip(F_out - (x_of_F(F_out) - x_out) * gap.v(F_out),
                        0.0, F_m * (1.0 - _APPROACH_TOL))
    F_out[0] = 0.0
    return np.minimum.accumulate(F_out[::-1])[::-1]


@pytest.mark.parametrize("case", ["carpet-eps", "fig1-monostable"])
def test_stationary_profile_is_bitwise_full_newton(carpet, case):
    if case == "carpet-eps":
        params, eq, eps = carpet
    else:
        params, eps = table1_params(None), None
        eq = sitcarpet.equilibria.solve_equilibria(params)
    prof = build_stationary_F(params, eps=eps, equilibria=eq)
    ref = _stationary_F_reference(params, eps, eq)
    assert prof.values.tobytes() == ref.tobytes()
