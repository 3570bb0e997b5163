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
from sitcarpet.equilibria import _wave_integrand, phi, phi_s_eps
from sitcarpet.model import gamma_fn, slaved_E
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
from sitcarpet.supersolution import assemble_Fbar, find_supersolution_bundle
from sitcarpet.verify import verify_supersolution


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
    # one block per FBAR_BLOCK steps of the walk plus the residual, kink
    # and female-cap times
    assert main(["verify", "--preset", "carpet",
                 "--which", "supersolution"]) == 0
    assert len(fbar_calls) == 66


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


def _Fbar_reference(bundle, x, t):
    """Fbar by its definition: a region index per node, then masks and
    gathers."""
    r = np.abs(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    if t.ndim:
        t = t.reshape(t.shape + (1,) * r.ndim)
    i0, i1, _ = bundle.interfaces(t)
    a = bundle.alpha(t)
    k = bundle.region(r, t)
    shape = k.shape
    F_star = bundle.F_star
    out = np.full(shape, F_star)
    np.copyto(out, F_star * (a * bundle.beta(0.0)), where=k == 0)
    ramp, bridge = k == 1, k == 2
    r, a, i0, i1 = (np.broadcast_to(v, shape) for v in (r, a, i0, i1))
    out[ramp] = F_star * (a[ramp] * bundle.beta(r[ramp] - i0[ramp]))
    out[bridge] = F_star * bundle.psi(r[bridge] - i1[bridge])
    return out if out.ndim else float(out)


def _bytes(value):
    value = np.asarray(value)
    return value.shape, value.dtype, value.tobytes()


def _bundle(name):
    scenario = preset(name).scenario()
    return find_supersolution_bundle(scenario.params,
                                     c=max(scenario.schedule.c, 0.01),
                                     equilibria=scenario.equilibria)


@pytest.mark.parametrize("name", ["carpet", "fig2-left", "fig2-right"])
def test_Fbar_of_the_certificate_is_bitwise_the_mask_formula(monkeypatch,
                                                             name):
    # every Fbar call of the super-solution certificate, the walk's blocks
    # of step ends included, equals the mask formula
    bundle = _bundle(name)
    calls, _ = _count_everywhere(
        monkeypatch, sitcarpet.supersolution.assemble_Fbar,
        lambda args: args[1:3])
    verify_supersolution(bundle)
    blocks = [t for _, t in calls if np.ndim(t)]
    assert len(blocks) == 25
    assert all(np.size(t) == sitcarpet.supersolution.FBAR_BLOCK
               for t in blocks)
    for x, t in calls:
        assert (_bytes(assemble_Fbar(bundle, x, t))
                == _bytes(_Fbar_reference(bundle, x, t)))


def test_Fbar_on_any_x_and_t_is_bitwise_the_mask_formula():
    bundle = _bundle("carpet")
    x = np.linspace(0.0, bundle.interfaces(20.0)[2] + 12.0, 1200)
    on = np.concatenate([bundle.interfaces(t) for t in (0.0, 3.7, 10.0)])
    near = np.concatenate([on, np.nextafter(on, 0.0),
                           np.nextafter(on, np.inf)])
    unsorted = np.random.default_rng(3).permutation(np.concatenate([x, near]))
    column = np.linspace(0.0, 20.0, 41)
    cases = [
        (unsorted, 3.7), (unsorted, column),
        (-x, 10.0), (x[::-1], column),
        (np.concatenate([-x[::-1], x]), column),  # mirrored
        (x.reshape(40, 30), column[:3]),
        (3.3, 10.0), (on[4], column), (0.0, 0.0), (np.array([]), column),
        (x, np.array([])),
        (x, 0.0), (near, 0.0),  # Omega1 empty
        # rows crossing the interfaces, with nodes on and beside them
        (np.sort(np.concatenate([x, near])), column),
        (np.sort(near), np.linspace(3.0, 11.0, 40)),
        # t < 0: r1 + ct lies below r1 + c't, the interfaces out of order
        (x, -0.5), (x, np.linspace(-3.0, 2.0, 11)),
    ]
    for xs, ts in cases:
        assert (_bytes(assemble_Fbar(bundle, xs, ts))
                == _bytes(_Fbar_reference(bundle, xs, ts)))


def test_Fbar_on_a_long_time_column_raises_no_warning():
    # one call spanning t = 0 to 1e5 puts most of the Omega1 and Omega2
    # bands outside each row's own run, where the unclipped offsets would
    # overflow beta and psi; the suite turns such a warning into an error
    bundle = _bundle("carpet")
    ts = np.array([0.0, 5e4, 1e5])
    x = np.linspace(0.0, bundle.interfaces(ts[-1])[2] + 10.0, 4000)
    assert (_bytes(assemble_Fbar(bundle, x, ts))
            == _bytes(_Fbar_reference(bundle, x, ts)))


def _wave_integrand_reference(params, F_star, u, eps):
    """The wave integrand as composed from phi, gamma_fn and phi_s_eps
    before E(F) was shared with phi."""
    recruit = params.female_recruitment * slaved_E(params, u)
    ph = phi(params, u, F_star)
    gam = gamma_fn(params.gamma, ph)
    if eps is None:
        w = 1.0
    else:
        ps = phi_s_eps(params, eps, u, F_star)
        denom = ph + ps
        w = np.where(denom > 0, ph / np.where(denom > 0, denom, 1.0), 0.0)
    return recruit * w * gam - params.mu_F * u


@pytest.mark.parametrize("gamma", [0.5, None], ids=["bistable", "monostable"])
@pytest.mark.parametrize("with_eps", [True, False], ids=["eps", "no-eps"])
def test_wave_integrand_is_bitwise_the_composition(gamma, with_eps):
    params = table1_params(gamma)
    F_star = sitcarpet.equilibria.solve_equilibria(params).upper[2]
    eps = None
    if with_eps:
        eps = find_eps0(params, F_star) if gamma is not None else 0.1
    u = np.concatenate([np.linspace(0.0, F_star, 2001),
                        F_star * (1.0 - np.array([1e-15, 1e-13, 0.0]))])
    assert (_wave_integrand(params, F_star, u, eps).tobytes()
            == _wave_integrand_reference(params, F_star, u, eps).tobytes())
