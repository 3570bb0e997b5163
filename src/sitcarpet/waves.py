"""Front tracking, wave-speed estimation, outcome classification, and costs.

A front is the outermost level crossing of the female field (default level
F*/2).  Speeds are trailing least-squares slopes of the front trace with the
initial transient discarded.  Classification probes the final quarter of a
run: for scheduled (moving-release) runs, the interior cone {|x| < c_under t}
must be empty and the exterior cone {|x| > c_over t} must contain
near-equilibrium states, or positive ones for a heterogeneous K (the
finite-horizon surrogate of the blocking statement); unscheduled runs are
classified by global decay or by growth of the above-level region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Unused since a Scenario solves its own equilibria; kept because
# perfbench/tests/test_tracing.py reads this binding.
from .equilibria import solve_equilibria  # noqa: F401
from .solver import Grid, ReleaseSchedule, Scenario, Trajectory

DEFAULT_TOL_IN = 1e-3
DEFAULT_TOL_OUT = 1e-2
# A failed blocking run is called Invasion when some interior point has come
# back within this relative distance of the positive equilibrium.  The
# re-grown core is a diffusive dome (it keeps draining into the suppressed
# annulus), so its top settles a few percent below the equilibrium at any
# finite horizon; 0.25 separates that cleanly from a cleared interior, where
# the distance stays ~1.
INVASION_PROXIMITY = 0.25


@dataclass(frozen=True)
class FrontTrace:
    times: np.ndarray
    positions: np.ndarray  # nan where no crossing
    multiple: np.ndarray   # True where several crossings existed

    def valid(self) -> "FrontTrace":
        ok = np.isfinite(self.positions)
        return FrontTrace(self.times[ok], self.positions[ok], self.multiple[ok])


@dataclass(frozen=True)
class SpeedEstimate:
    speed: float
    rms: float
    n_samples: int


@dataclass(frozen=True)
class Outcome:
    kind: str  # "Invasion" | "Extinction" | "Carpet" | "Indeterminate"
    speed: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)
    trace: Optional[FrontTrace] = field(default=None, compare=False)


def front_position(f: np.ndarray, grid: Grid, level: float):
    """Outermost crossing of `level`, linearly interpolated between nodes.

    Returns (position, multiple) or (None, False) when the field never
    crosses the level.
    """
    f = np.asarray(f, dtype=float)
    d = f - level
    sign_change = d[:-1] * d[1:] < 0.0
    exact = d == 0.0
    idx = np.flatnonzero(sign_change)
    positions = []
    if idx.size:
        x0 = grid.x[idx]
        frac = d[idx] / (d[idx] - d[idx + 1])
        positions.extend(x0 + frac * grid.dx)
    positions.extend(grid.x[np.flatnonzero(exact)])
    if not positions:
        return None, False
    positions = np.asarray(positions)
    return float(positions.max()), positions.size > 1


def _level_or_default(level: Optional[float], scenario: Scenario) -> float:
    """`level`, or the default F*/2 of the scenario's upper equilibrium."""
    return 0.5 * scenario.upper[2] if level is None else level


def front_trace(traj: Trajectory, level: Optional[float] = None) -> FrontTrace:
    """Trace of the outermost F-front across all snapshots."""
    level = _level_or_default(level, traj.scenario)
    pos = np.full(traj.times.shape, np.nan)
    mult = np.zeros(traj.times.shape, dtype=bool)
    for i in range(traj.times.size):
        p, m = front_position(traj.F[i], traj.grid, level)
        if p is not None:
            pos[i] = p
            mult[i] = m
    return FrontTrace(traj.times.copy(), pos, mult)


def estimate_speed(trace: FrontTrace) -> Optional[SpeedEstimate]:
    """Least-squares slope of position vs time after the transient.

    The first 20% of samples are discarded as transient; None when fewer
    than 10 remain.
    """
    tr = trace.valid()
    n = tr.times.size
    if n == 0:
        return None
    k0 = int(np.ceil(0.2 * n))
    t = tr.times[k0:]
    p = tr.positions[k0:]
    if t.size < 10:
        return None
    A = np.column_stack([t - t.mean(), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(A, p, rcond=None)
    resid = p - A @ coef
    return SpeedEstimate(float(coef[0]), float(np.sqrt(np.mean(resid**2))),
                         int(t.size))


def _relative_fields(traj: Trajectory, i: int, eq) -> tuple[np.ndarray, np.ndarray]:
    """(sup-style size relative to eq, distance to eq relative to eq) at snapshot i."""
    E_star, M_star, F_star = eq
    size = np.maximum.reduce([traj.E[i] / E_star, traj.M[i] / M_star,
                              traj.F[i] / F_star])
    dist = np.maximum.reduce([np.abs(traj.E[i] - E_star) / E_star,
                              np.abs(traj.M[i] - M_star) / M_star,
                              np.abs(traj.F[i] - F_star) / F_star])
    return size, dist


def classify(traj: Trajectory,
             probe: Optional[tuple[float, float]] = None,
             level: Optional[float] = None,
             tol_in: float = DEFAULT_TOL_IN,
             tol_out: float = DEFAULT_TOL_OUT) -> Outcome:
    """Classify a trajectory as Carpet / Extinction / Invasion / Indeterminate.

    Everything the verdict depends on is read from the run: c is the release
    schedule's speed, and a heterogeneous K(x) has no single equilibrium to
    compare the exterior with, so it is judged by a positivity floor.

    Scheduled runs: over the final quarter of the run, s_in is the worst
    interior-cone relative sup and s_out the worst exterior-cone relative
    distance to the equilibrium (or, for a callable K, the worst exterior
    positivity floor).  Carpet needs s_in < tol_in and the exterior
    condition; Extinction needs the global sup < tol_in; Invasion (fallback)
    holds when some interior point has re-approached the equilibrium.

    Unscheduled runs: Extinction by global decay, Invasion when the
    above-level region grows, else Indeterminate.

    Outcome.speed is the trailing front-speed estimate whatever the verdict
    (None when too few snapshots cross the level).
    """
    sc = traj.scenario
    eq = sc.upper
    level = _level_or_default(level, sc)
    c = sc.schedule.speed
    positivity = callable(sc.params.K)
    diag: dict = {}

    size_final, _ = _relative_fields(traj, traj.times.size - 1, eq)
    global_sup = float(size_final.max())
    diag["global_relative_sup"] = global_sup

    trace = front_trace(traj, level=level)
    est = estimate_speed(trace)

    def verdict(kind: str) -> Outcome:
        return Outcome(kind, est.speed if est else None, diag, trace)

    if c is None:
        if global_sup < tol_in:
            return verdict("Extinction")
        filled0 = float(np.mean(traj.F[0] > level))
        filled1 = float(np.mean(traj.F[-1] > level))
        diag["filled_fraction_initial"] = filled0
        diag["filled_fraction_final"] = filled1
        if est is not None:
            diag["front_speed"] = est.speed
            diag["front_rms"] = est.rms
        return verdict("Invasion" if filled1 > filled0 + 0.05
                       else "Indeterminate")

    if probe is None:
        probe = (0.75 * c, 1.25 * c)
    c_under, c_over = probe
    if not c_under < c < c_over:
        raise ValueError("probe speeds must straddle the carpet speed")
    r = traj.grid.radius
    t_final = traj.times[-1]
    if c_over * t_final > float(r.max()):
        diag["domain_too_small"] = True
        return verdict("Indeterminate")

    window = traj.times >= 0.75 * t_final
    idxs = np.flatnonzero(window)
    s_in = 0.0
    s_out = 0.0
    inv_in = np.inf
    for i in idxs:
        size, dist = _relative_fields(traj, i, eq)
        t = traj.times[i]
        inner = r < c_under * t
        outer = r > c_over * t
        if inner.any():
            s_in = max(s_in, float(size[inner].max()))
            inv_in = min(inv_in, float(dist[inner].min()))
        if outer.any():
            if positivity:
                mins = np.minimum.reduce([traj.E[i] / eq[0], traj.M[i] / eq[1],
                                          traj.F[i] / eq[2]])
                best = float(mins[outer].max())
                diag["exterior_positivity"] = min(
                    diag.get("exterior_positivity", np.inf), best)
            else:
                s_out = max(s_out, float(dist[outer].min()))
    diag["interior_sup"] = s_in
    diag["exterior_mismatch"] = s_out
    diag["interior_best_equilibrium_distance"] = inv_in

    if positivity:
        exterior_ok = diag.get("exterior_positivity", 0.0) > tol_in
    else:
        exterior_ok = s_out < tol_out
    if s_in < tol_in and exterior_ok:
        return verdict("Carpet")
    if global_sup < tol_in:
        return verdict("Extinction")
    if inv_in < INVASION_PROXIMITY:
        return verdict("Invasion")
    return verdict("Indeterminate")


def sterile_cost(schedule: ReleaseSchedule, T: float) -> float:
    """Total sterile males released over [0, T], in closed form.

    Disc: lambda_bar pi ((R2 + cT)^3 - R2^3)/(3c) (the naive strategy).
    Annulus: lambda_bar pi (R2 - R1) ((R1 + R2) T + c T^2).
    Tail adds 2 pi lambda_bar [(R1 T + c T^2/2)/eta - T/eta^2
        + e^{-eta R1}(1 - e^{-eta c T})/(eta^3 c)].
    """
    s = schedule
    if T < 0:
        raise ValueError("T must be >= 0")
    if s.kind == "none" or s.lambda_bar == 0.0 or T == 0.0:
        return 0.0
    if s.kind == "disc":
        return s.lambda_bar * np.pi * ((s.R2 + s.c * T) ** 3 - s.R2**3) / (3 * s.c)
    if s.kind == "fixed_region":
        return s.lambda_bar * np.pi * (s.R2**2 - s.R1**2) * T
    base = s.lambda_bar * np.pi * (s.R2 - s.R1) * ((s.R1 + s.R2) * T + s.c * T**2)
    if s.kind == "annulus":
        return float(base)
    # annulus_tail: integral of the exponential skirt over the inner disc
    eta, c, R1 = s.eta, s.c, s.R1
    tail_time = T - np.exp(-eta * R1) * (-np.expm1(-eta * c * T)) / (eta * c)
    tail = 2.0 * np.pi * s.lambda_bar * (
        (R1 * T + 0.5 * c * T**2) / eta - tail_time / eta**2)
    return float(base + tail)


def cost_exponent(schedule: ReleaseSchedule, T_grid) -> float:
    """Slope of log(total) vs log(T) over a grid of horizons."""
    T_grid = np.asarray(T_grid, dtype=float)
    totals = np.array([sterile_cost(schedule, T) for T in T_grid])
    if np.any(totals <= 0):
        raise ValueError("cost exponent needs positive totals")
    return float(np.polyfit(np.log(T_grid), np.log(totals), 1)[0])
