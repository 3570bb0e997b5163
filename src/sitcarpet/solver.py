"""Semi-implicit time stepping on 1D Cartesian and radially symmetric grids.

Diffusion is implicit, reactions explicit, and the egg field (no diffusion)
advances by the same explicit step.  With L the discrete Laplacian, one step
of length dt is

    E' = E + dt fE,      (I - dt D L) u' = u + dt fu   for u = M, F, Ms.

Step gate.  Let K_min and K_max be the extremes of K over the grid nodes and
F_cap = max(rho nu_E K_max / mu_F, sup F0).  The step is gated by

    dt <= 1 / max(b F_cap / K_min + mu_E + nu_E, mu_M, mu_F, mu_s)

(`reaction_dt_bound`; `gate_rates` gives the four terms, named egg, M, F and
Ms).  Under this gate one step is monotone for the cone order (E, M, F up,
Ms down) and maps the invariant region

    0 <= E <= K(x),   0 <= F <= F_cap,   M >= 0,   Ms >= 0

into itself.  Proof, in two parts.

1. The explicit update is monotone.  Each component is nondecreasing in its
   own variable: dE'/dE = 1 - dt (b F / K(x) + mu_E + nu_E) >= 0 because
   F <= F_cap and K(x) >= K_min, and du'/du = 1 - dt mu_u >= 0 for u = M, F,
   Ms.  The cross terms have the cooperative signs: E' grows with F, since
   b (1 - E/K) >= 0 for E <= K; M' and F' grow with E; F' grows with M and
   falls with Ms, because the mating factor M/(M + gamma_s Ms) Gamma(M +
   gamma_s Ms) increases in M and decreases in Ms for either Gamma.  No
   mating derivative enters a diagonal term, so the Allee coefficient gamma
   does not enter the gate.  The bounds follow from these monotonicities
   one component at a time: E' >= E'(E = 0) = dt b F >= 0 and
   E' <= E'(E = K(x)) = K(x) (1 - dt (mu_E + nu_E)) <= K(x); u' >= u'(u = 0)
   >= 0 for u = M, F, Ms; and, as the mating factor is at most 1 and
   E <= K_max, F' <= F'(F = F_cap) <= F_cap (1 - dt mu_F)
   + dt rho nu_E K_max <= F_cap.
2. The implicit solve is monotone for every dt.  I - dt D L has a positive
   diagonal, nonpositive off-diagonals and rows that sum to 1 with a
   strictly dominant diagonal.  On the radial grid the neighbour weights
   are lam + adv and lam - adv with lam = D dt / dx^2 and
   adv = D dt / (2 r dx), and lam >= adv at every node with r >= dx, that
   is every node but the centre, whose row is symmetric.  So the matrix is
   an M-matrix: its inverse is entrywise nonnegative with unit row sums, and
   the solve keeps order, nonnegativity and upper bounds by a constant (the
   Dirichlet row keeps the edge value).

The egg term is sharp: above the gate dE'/dE < 0 at F = F_cap, K = K_min.
This is why a heterogeneous K needs K_min there and not K_max alone: on
`carpet-hetero` (K from 150 to 250) a gate from K_max = 250 gives
dE'/dE = -0.64 at the K = 150 nodes.  Roundoff can still leave a tiny
negative value; it is clamped and counted, and a relative undershoot above
CLAMP_FAIL_THRESHOLD raises `SolverError`.

A run keeps one dt, t_end / n_steps, so the three diffusing fields share one
matrix for the whole run.  `run` LU-factors it once (LAPACK dgttrf, partial
pivoting) and each step solves the three right-hand sides together, stacked
as the columns of one array, with a single dgttrs call: the same elimination,
in the same order, as the per-field gtsv solves of
`scipy.linalg.solve_banded`.  A non-finite right-hand side (a NaN or inf that
reached the state) raises `SolverError` instead of being solved.  Snapshots
are taken at the initial state, at the first step at or after each multiple
of `Scenario.snapshot_dt`, and at the final step.

The radial Laplacian is u'' + u'/r with the r = 0 node closed by symmetry
(limit 2 u''(0)); boundaries are homogeneous Neumann by default with an
optional Dirichlet clamp at the outer edge for invasion runs.

A heterogeneous K(x) enters the egg equation nodewise.  Equilibria,
thresholds and classification reduce it to its maximum over the grid nodes
(`ModelParams.at_max_K`); the step gate uses both extremes, as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .equilibria import solve_equilibria
from .model import ModelParams, reaction_arrays, slaved_E, slaved_M

CLAMP_COUNT_THRESHOLD = 1e-12
CLAMP_FAIL_THRESHOLD = 1e-9
BOUNDARIES = ("neumann", "dirichlet")
# Default time between snapshots: 100 steps of 150/4239, the presets'
# spacing when the cadence was counted in steps, so their snapshot times
# (42 between t = 0 and T = 150) are kept.
SNAPSHOT_DT = 100 * 150.0 / 4239


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    kind: str  # "cartesian1d" | "radial2d"
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.size < 3:
            raise ValueError("grid needs at least 3 nodes")
        dx = np.diff(x)
        if np.any(dx <= 0) or not np.allclose(dx, dx[0], rtol=1e-12):
            raise ValueError("grid must be uniform and increasing")
        if self.kind == "radial2d" and abs(x[0]) > 1e-14:
            raise ValueError("radial grid must start at r = 0")
        if self.kind not in ("cartesian1d", "radial2d"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        object.__setattr__(self, "x", x)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def radius(self) -> np.ndarray:
        """|x| at the nodes (used by release schedules and probes)."""
        return np.abs(self.x)

    @staticmethod
    def cartesian(x_min: float, x_max: float, n: int) -> "Grid":
        return Grid("cartesian1d", np.linspace(x_min, x_max, n))

    @staticmethod
    def radial(r_max: float, n: int) -> "Grid":
        return Grid("radial2d", np.linspace(0.0, r_max, n))


@dataclass
class SimState:
    t: float
    E: np.ndarray
    M: np.ndarray
    F: np.ndarray
    Ms: np.ndarray

    def copy(self) -> "SimState":
        return SimState(self.t, self.E.copy(), self.M.copy(),
                        self.F.copy(), self.Ms.copy())


MOVING_KINDS = ("annulus", "annulus_tail", "disc")


@dataclass(frozen=True)
class ReleaseSchedule:
    """Sterile-male release field Lambda(x, t).

    Kinds: "none"; "annulus" (lambda_bar on R1+ct <= |x| <= R2+ct);
    "annulus_tail" (adds lambda_bar e^{eta(|x|-R1-ct)} inside, the
    release-with-tail variant); "disc" (growing disc |x| <= R2+ct, the naive
    strategy); "fixed_region" (static band R1 <= |x| <= R2).
    """

    kind: str = "none"
    lambda_bar: float = 0.0
    R1: float = 0.0
    R2: float = 0.0
    c: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "annulus", "annulus_tail", "disc",
                             "fixed_region"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("lambda_bar", "c", "eta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lambda_bar < 0:
            raise ValueError("lambda_bar must be >= 0")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        if self.kind in MOVING_KINDS and not self.c > 0:
            raise ValueError(f"c must be > 0 for the moving {self.kind} "
                             f"release")
        if self.kind in ("annulus", "annulus_tail", "fixed_region"):
            if not 0 < self.R1 < self.R2:
                raise ValueError("annulus needs 0 < R1 < R2")
        if self.kind == "annulus_tail" and not self.eta > 0:
            raise ValueError("tail variant needs eta > 0")

    @property
    def speed(self) -> Optional[float]:
        return self.c if self.kind in MOVING_KINDS else None


def release_value(schedule: ReleaseSchedule, x, t: float):
    """Lambda at |x| (vectorized) and time t."""
    r = np.abs(np.asarray(x, dtype=float))
    s = schedule
    shift = 0.0 if s.kind == "fixed_region" else s.c * t
    inner, outer = s.R1 + shift, s.R2 + shift
    if s.kind == "none" or s.lambda_bar == 0.0:
        out = np.zeros_like(r)
    elif s.kind == "annulus_tail":
        out = np.where(r < inner, s.lambda_bar * np.exp(s.eta * (r - inner)),
                       s.lambda_bar * (r <= outer))
    elif s.kind == "disc":
        out = s.lambda_bar * (r <= outer)
    else:  # annulus, fixed_region
        out = s.lambda_bar * ((r >= inner) & (r <= outer))
    out = np.asarray(out, dtype=float)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class InitialData:
    """Well-prepared initial fields: cleared, pre-dosed center; equilibrium far out.

    F0 = F* (u0 inside R0_0, linear ramp on [R0_0, R0_1], 1 outside); E0 and
    M0 at the slaved quasi-equilibrium values capped by C0 F0 (and K); Ms0
    ramps from lambda_bar/mu_s inside R0_0 to 0 at R0_1.  The "step" kind is
    the 1D invasion setup: equilibrium on one side of x_step, zero beyond.
    """

    kind: str = "well_prepared"
    R0_0: float = 10.0
    R0_1: float = 15.0
    u0: float = 0.0
    C0: Optional[float] = None
    x_step: float = 0.0
    step_side: str = "left"  # equilibrium on x < x_step ("left") or x > x_step

    def __post_init__(self):
        if self.kind not in ("well_prepared", "step", "uniform"):
            raise ValueError(f"unknown initial kind {self.kind!r}")
        if self.kind == "well_prepared":
            if not 0 <= self.u0 < 1:
                raise ValueError("u0 must be in [0, 1)")
            if not 0 < self.R0_0 < self.R0_1:
                raise ValueError("need 0 < R0_0 < R0_1")


def make_initial(params: ModelParams, data: InitialData, grid: Grid,
                 lambda_bar: float = 0.0) -> SimState:
    """Construct fields satisfying the well-prepared bounds nodewise."""
    eq = solve_equilibria(params.at_max_K(grid.x))
    if eq.upper is None:
        raise SolverError("no positive equilibrium for this parameter set")
    E_star, M_star, F_star = eq.upper
    x = grid.x
    r = grid.radius
    K = np.broadcast_to(params.K_at(x), x.shape)

    if data.kind == "step":
        mask = (x < data.x_step) if data.step_side == "left" else (x > data.x_step)
        E0 = np.where(mask, np.minimum(E_star, K), 0.0)
        M0 = np.where(mask, M_star, 0.0)
        F0 = np.where(mask, F_star, 0.0)
        Ms0 = np.zeros_like(x)
        return SimState(0.0, E0, M0, F0, Ms0)
    if data.kind == "uniform":
        return SimState(0.0, np.minimum(E_star, K) * np.ones_like(x),
                        M_star * np.ones_like(x), F_star * np.ones_like(x),
                        np.zeros_like(x))

    C0 = data.C0
    if C0 is None:
        C0 = max(E_star / F_star, M_star / F_star)
    ramp = np.clip((data.R0_1 - r) / (data.R0_1 - data.R0_0), 0.0, 1.0)
    F0 = F_star * (data.u0 * ramp + (1.0 - ramp))
    E0 = np.minimum(np.minimum(slaved_E(params, F0, K=K), C0 * F0), K)
    M0 = np.minimum(slaved_M(params, E0), C0 * F0)
    Ms0 = (lambda_bar / params.mu_s) * ramp

    # self-check of the well-prepared bounds
    tol = 1e-9 * max(F_star, 1.0)
    if np.any(F0 > F_star + tol) or np.any(E0 > np.minimum(K, C0 * F0) + tol) \
            or np.any(M0 > C0 * F0 + tol):
        raise SolverError("constructed initial data violates its bounds")
    inside = r <= data.R0_0
    if lambda_bar > 0 and np.any(Ms0[inside] < lambda_bar / params.mu_s - tol):
        raise SolverError("sterile pre-dose below lambda_bar/mu_s in the core")
    outside = r > data.R0_1
    if np.any(np.abs(F0[outside] - F_star) > tol):
        raise SolverError("far field is not at equilibrium")
    return SimState(0.0, E0, M0, F0, Ms0)


def implicit_diffusion_matrix(grid: Grid, D: float, dt: float,
                              boundary: str = "neumann") -> np.ndarray:
    """I - dt D L in (1,1)-banded form: rows superdiagonal, diagonal, subdiagonal.

    Entry (i, j) of the matrix is ab[1 + i - j, j]; `factor_diffusion`
    takes this layout.
    """
    n = grid.n
    dx = grid.dx
    lam = D * dt / dx**2
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 + 2.0 * lam
    ab[0, 1:] = -lam   # superdiagonal, column-indexed
    ab[2, :-1] = -lam  # subdiagonal

    if grid.kind == "radial2d":
        # r = 0: symmetry limit lap u = 2 u''(0) => 4 (u1 - u0)/dx^2
        ab[1, 0] = 1.0 + 4.0 * lam
        ab[0, 1] = -4.0 * lam
        ri = grid.x[1:-1]
        adv = D * dt / (2.0 * ri * dx)
        ab[0, 2:] = -(lam + adv)       # u_{i+1} coefficient
        ab[2, :-2] = -(lam - adv)      # u_{i-1} coefficient
    else:
        # Neumann mirror at the left edge
        ab[1, 0] = 1.0 + 2.0 * lam
        ab[0, 1] = -2.0 * lam

    # outer boundary
    if boundary == "neumann":
        ab[1, -1] = 1.0 + 2.0 * lam
        ab[2, -2] = -2.0 * lam
    elif boundary == "dirichlet":
        ab[1, -1] = 1.0
        ab[2, -2] = 0.0
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    return ab


class DiffusionLU(NamedTuple):
    """LU factors of a tridiagonal matrix, as LAPACK dgttrf returns them."""

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray


def factor_diffusion(ab: np.ndarray) -> DiffusionLU:
    """Factor the (1,1)-banded matrix `ab` once for any number of solves."""
    if not np.all(np.isfinite(ab)):
        raise SolverError("non-finite entry in the diffusion matrix")
    dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise SolverError(f"singular diffusion matrix (zero pivot {info})")
    return DiffusionLU(dl, d, du, du2, ipiv)


def solve_banded(lu: DiffusionLU, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factors of `factor_diffusion`, overwriting `rhs`.

    `rhs` is one right-hand side (n,) or several as the columns of a
    Fortran-ordered (n, k) array.
    """
    if not np.all(np.isfinite(rhs)):
        raise SolverError("non-finite state reached the diffusion solve")
    x, info = dgttrs(*lu, rhs, overwrite_b=1)
    if info != 0:
        raise SolverError(f"dgttrs rejected argument {-info}")
    return x


def gate_rates(params: ModelParams, F_sup: float = 0.0,
               x: Optional[np.ndarray] = None) -> dict[str, float]:
    """The four rates whose largest sets the step gate, by term name.

    K ranges over its values at the nodes x (a scalar K needs no x); F_sup,
    the sup of the initial F, raises F_cap when it exceeds
    rho nu_E K_max / mu_F.  See the module docstring for the proof.
    """
    if callable(params.K) and x is None:
        raise ValueError("a heterogeneous K needs the grid nodes x")
    K = params.K_at(x)
    K_min, K_max = float(np.min(K)), float(np.max(K))
    F_cap = max(params.rho * params.nu_E * K_max / params.mu_F, F_sup)
    return {"egg": params.b * F_cap / K_min + params.mu_E + params.nu_E,
            "M": params.mu_M, "F": params.mu_F, "Ms": params.mu_s}


def reaction_dt_bound(params: ModelParams, F_sup: float = 0.0,
                      x: Optional[np.ndarray] = None) -> float:
    """Largest step under which one step is monotone: 1 / max(gate_rates)."""
    return 1.0 / max(gate_rates(params, F_sup, x).values())


@dataclass
class ClampStats:
    count: int = 0
    worst_rel: float = 0.0


def step(state: SimState, params: ModelParams, schedule: ReleaseSchedule,
         dt: float, grid: Grid, lu: Optional[DiffusionLU] = None,
         boundary: str = "neumann", K_nodes: Optional[np.ndarray] = None,
         clamps: Optional[ClampStats] = None,
         dt_max: Optional[float] = None) -> SimState:
    """One semi-implicit step; rejects dt above the reaction-stability gate.

    `lu` holds the factors of the implicit diffusion matrix for this dt and
    boundary; without it the matrix is built and factored here.
    """
    if dt_max is None:
        dt_max = reaction_dt_bound(params, float(np.max(state.F, initial=0.0)),
                                   grid.x)
    if dt > dt_max * (1.0 + 1e-12):
        raise SolverError(f"dt={dt:g} exceeds the reaction-stability bound "
                          f"{dt_max:g}")
    if lu is None:
        lu = factor_diffusion(implicit_diffusion_matrix(grid, params.D, dt,
                                                        boundary))
    if K_nodes is None:
        K_nodes = np.broadcast_to(params.K_at(grid.x), grid.x.shape)

    lam = release_value(schedule, grid.radius, state.t)
    fE, fM, fF, fs = reaction_arrays(params, state.E, state.M, state.F,
                                     state.Ms, lam, K_nodes)
    E_new = np.clip(state.E + dt * fE, 0.0, K_nodes)
    eq_scale = max(float(np.max(state.F, initial=0.0)), 1.0)
    Ms_scale = max(float(np.max(state.Ms, initial=0.0)),
                   schedule.lambda_bar / params.mu_s, 1.0)

    rhs = np.empty((grid.n, 3), order="F")  # M, F, Ms as columns
    for j, (u, f) in enumerate(((state.M, fM), (state.F, fF), (state.Ms, fs))):
        rhs[:, j] = u + dt * f
        if boundary == "dirichlet":
            rhs[-1, j] = u[-1]
    out = solve_banded(lu, rhs)

    undershoot = -out.min(axis=0, initial=0.0)
    for j, scale in enumerate((eq_scale, eq_scale, Ms_scale)):
        worst = float(undershoot[j])
        if worst > 0.0:
            rel = worst / scale
            if rel > CLAMP_FAIL_THRESHOLD:
                raise SolverError(f"negative undershoot {worst:g} exceeds "
                                  f"{CLAMP_FAIL_THRESHOLD:g} of scale {scale:g}")
            if clamps is not None and rel > CLAMP_COUNT_THRESHOLD:
                clamps.count += 1
                clamps.worst_rel = max(clamps.worst_rel, rel)
            np.maximum(out[:, j], 0.0, out=out[:, j])
    return SimState(state.t + dt, E_new, out[:, 0], out[:, 1], out[:, 2])


@dataclass(frozen=True)
class Scenario:
    params: ModelParams
    grid: Grid
    schedule: ReleaseSchedule
    initial: InitialData
    t_end: float
    dt: Optional[float] = None  # None: auto from the step gate
    snapshot_dt: float = SNAPSHOT_DT  # time between snapshots
    boundary: str = "neumann"

    def __post_init__(self):
        for name in ("t_end", "dt", "snapshot_dt"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}; expected "
                             f"one of {', '.join(BOUNDARIES)}")


@dataclass
class Trajectory:
    scenario: Scenario
    times: np.ndarray
    E: np.ndarray   # (n_snapshots, n_nodes)
    M: np.ndarray
    F: np.ndarray
    Ms: np.ndarray
    clamps: ClampStats
    dt: float
    dt_max: float  # the step gate at the initial state
    dt_max_term: str  # the gate_rates term that sets dt_max
    n_steps: int

    @property
    def grid(self) -> Grid:
        return self.scenario.grid


def run(scenario: Scenario, state0: Optional[SimState] = None) -> Trajectory:
    """Integrate to t_end with one dt, snapshotting every snapshot_dt in time.

    Deterministic: no randomness, fixed evaluation order; identical scenarios
    reproduce identical arrays bit for bit.
    """
    sc = scenario
    if state0 is None:
        state0 = make_initial(sc.params, sc.initial, sc.grid,
                              lambda_bar=sc.schedule.lambda_bar)
    F_sup = float(np.max(state0.F))
    rates = gate_rates(sc.params, F_sup, sc.grid.x)
    dt_max = reaction_dt_bound(sc.params, F_sup, sc.grid.x)
    dt = sc.dt if sc.dt is not None else dt_max
    if dt > dt_max * (1.0 + 1e-12):
        raise SolverError(f"dt={dt:g} exceeds the stability bound {dt_max:g}")
    n_steps = int(np.ceil(sc.t_end / dt - 1e-12))
    dt = sc.t_end / n_steps  # land exactly on t_end
    lu = factor_diffusion(implicit_diffusion_matrix(sc.grid, sc.params.D, dt,
                                                    sc.boundary))
    K_nodes = np.array(np.broadcast_to(sc.params.K_at(sc.grid.x),
                                       sc.grid.x.shape))
    clamps = ClampStats()

    state = state0.copy()
    times = [state.t]
    snaps = [[state.E.copy(), state.M.copy(), state.F.copy(), state.Ms.copy()]]
    # the next snapshot is the first step k with k >= m * steps_per_snap
    # (to a 1e-9-step tolerance for roundoff in the ratio)
    steps_per_snap = sc.snapshot_dt / dt
    m = 1
    for k in range(1, n_steps + 1):
        state = step(state, sc.params, sc.schedule, dt, sc.grid, lu=lu,
                     boundary=sc.boundary, K_nodes=K_nodes, clamps=clamps,
                     dt_max=dt_max)
        if k >= m * steps_per_snap - 1e-9 or k == n_steps:
            times.append(state.t)
            snaps.append([state.E.copy(), state.M.copy(), state.F.copy(),
                          state.Ms.copy()])
            m = int(k / steps_per_snap + 1e-9) + 1
    arr = np.array(snaps)  # (n_snap, 4, n)
    return Trajectory(sc, np.array(times), arr[:, 0], arr[:, 1], arr[:, 2],
                      arr[:, 3], clamps, dt, dt_max,
                      max(rates, key=rates.get), n_steps)
